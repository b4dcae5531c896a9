#include "ptask/sched/batch.hpp"

#include "ptask/sched/registry.hpp"

namespace ptask::sched {

BatchScheduler::BatchScheduler(const std::string& strategy,
                               const cost::CostModel& base)
    : strategy_(strategy),
      cost_(base),
      scheduler_(SchedulerRegistry::instance().make(strategy, cost_)) {}

Schedule BatchScheduler::run(const core::TaskGraph& graph,
                             int total_cores) const {
  return scheduler_->run(graph, total_cores);
}

}  // namespace ptask::sched
