#pragma once
/// \file batch.hpp
/// One scheduler shared by a batch of compatible requests.
///
/// The serving layer coalesces schedule requests that dequeue together and
/// agree on (strategy, machine, total_cores, certify) but differ in graph.
/// A `BatchScheduler` resolves the strategy once and runs every member over
/// one plain `CostModel` of the batch's machine, so each member's schedule
/// is byte-identical to an unbatched run of the same strategy; the serve
/// tests and the loadgen oracle enforce that equivalence end to end.
/// Members share no pricing: each run evaluates its own graph's costs.
///
/// Thread safety: `run` is safe to call concurrently (schedulers are
/// stateless per run), but the serving layer runs batch members
/// sequentially on one worker.

#include <memory>
#include <string>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

class BatchScheduler {
 public:
  /// Copies `base` into the batch's cost model and resolves `strategy` from
  /// the SchedulerRegistry (throws std::invalid_argument for unknown names,
  /// like SchedulerRegistry::make).
  BatchScheduler(const std::string& strategy, const cost::CostModel& base);

  /// Schedules one batch member; bit-identical to an unbatched run of the
  /// same strategy.
  Schedule run(const core::TaskGraph& graph, int total_cores) const;

  const std::string& strategy() const { return strategy_; }

 private:
  std::string strategy_;
  /// Declared before scheduler_: the scheduler keeps a reference to the
  /// model for its whole lifetime.
  cost::CostModel cost_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace ptask::sched
