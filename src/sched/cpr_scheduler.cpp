#include "ptask/sched/cpr_scheduler.hpp"

#include <algorithm>
#include <cstdint>

#include "ptask/core/graph_algorithms.hpp"
#include "ptask/obs/metrics.hpp"

namespace ptask::sched {

MoldableResult CprScheduler::schedule(const core::TaskGraph& graph,
                                      int total_cores) const {
  static obs::Counter& trials_counter =
      obs::metrics().counter("sched.cpr.trials");
  static obs::Counter& accepted_counter =
      obs::metrics().counter("sched.cpr.accepted");

  const int n = graph.num_tasks();
  const int P = total_cores;
  const TaskTimeTable table(graph, *cost_, P, mode_);
  ListScheduler list(graph, table);

  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);
  double makespan = list.makespan(result.allocation);

  auto total_task_time = [&] {
    double total = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      total += table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
    return total;
  };

  std::vector<core::TaskId> candidates;
  constexpr double kEps = 1e-15;
  std::uint64_t trials = 0;
  std::uint64_t accepted = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    // The last makespan() call priced the current allocation (the first
    // call or the accepted trial), so the workspace holds its bottom levels.
    const std::span<const double> bottom = list.bottom_levels();
    core::walk_critical_path(graph, bottom, candidates);
    const double sum_before = total_task_time();

    // Try the critical-path tasks in decreasing bottom-level order.
    std::sort(candidates.begin(), candidates.end(),
              [&](core::TaskId a, core::TaskId b) {
                return bottom[static_cast<std::size_t>(a)] >
                       bottom[static_cast<std::size_t>(b)];
              });
    for (core::TaskId id : candidates) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= P || p >= graph.task(id).max_cores()) continue;
      result.allocation[static_cast<std::size_t>(id)] = p + 1;
      ++trials;
      // Cutoff prunes doomed trials: once the partial makespan exceeds
      // current + kEps neither the strict-improvement nor the tie branch
      // below can accept.  An accepted trial therefore never stops early.
      const double trial = list.makespan(result.allocation, makespan + kEps);
      // Accept strict makespan improvements; on an exact tie, accept if the
      // sum of the task times shrank (this is what lets CPR make progress
      // through the plateau of a layer of equal independent tasks, where
      // widening any single task cannot move the makespan until all of them
      // widened).
      bool accept = trial < makespan - kEps;
      if (!accept && trial <= makespan + kEps) {
        accept = total_task_time() < sum_before - kEps;
      }
      if (accept) {
        makespan = trial;
        ++accepted;
        improved = true;
        break;  // recompute the critical path with the new allocation
      }
      result.allocation[static_cast<std::size_t>(id)] = p;  // revert
    }
  }
  // The list scheduler is deterministic, so this is the schedule of the
  // last accepted trial.
  result.schedule = list.schedule(result.allocation);
  trials_counter.add(trials);
  accepted_counter.add(accepted);
  return result;
}

}  // namespace ptask::sched
