#include "ptask/sched/cpa_scheduler.hpp"

#include <algorithm>

#include "ptask/core/graph_algorithms.hpp"

namespace ptask::sched {

namespace {

/// Shared CPA allocation loop; `alloc_cap[id]` bounds each task's cores.
MoldableResult cpa_allocate_and_schedule(const core::TaskGraph& graph, int P,
                                    const TaskTimeTable& table,
                                    const std::vector<int>& alloc_cap) {
  const int n = graph.num_tasks();
  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);
  // One topological order and set of buffers for all steps and the schedule.
  ListScheduler list(graph, table);
  core::CriticalPathInfo cp;

  std::vector<double> task_time(static_cast<std::size_t>(n));
  auto refresh_times = [&] {
    for (core::TaskId id = 0; id < n; ++id) {
      task_time[static_cast<std::size_t>(id)] =
          table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
  };
  auto average_area = [&] {
    double area = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      area += task_time[static_cast<std::size_t>(id)] *
              result.allocation[static_cast<std::size_t>(id)];
    }
    return area / static_cast<double>(P);
  };

  refresh_times();
  while (true) {
    core::critical_path(graph, list.order(), task_time, cp);
    if (cp.length <= average_area()) break;

    core::TaskId best = core::kInvalidTask;
    double best_gain = 0.0;
    for (core::TaskId id : cp.path) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= alloc_cap[static_cast<std::size_t>(id)] ||
          p >= graph.task(id).max_cores()) {
        continue;
      }
      if (table.time(id, p + 1) >= task_time[static_cast<std::size_t>(id)]) {
        continue;
      }
      const double gain = task_time[static_cast<std::size_t>(id)] / p -
                          table.time(id, p + 1) / (p + 1);
      if (best == core::kInvalidTask || gain > best_gain) {
        best = id;
        best_gain = gain;
      }
    }
    if (best == core::kInvalidTask || best_gain <= 0.0) break;
    result.allocation[static_cast<std::size_t>(best)] += 1;
    task_time[static_cast<std::size_t>(best)] =
        table.time(best, result.allocation[static_cast<std::size_t>(best)]);
  }

  result.schedule = list.schedule(result.allocation);
  return result;
}

}  // namespace

MoldableResult CpaScheduler::schedule(const core::TaskGraph& graph,
                                 int total_cores) const {
  const TaskTimeTable table(graph, *cost_, total_cores, mode_);
  const std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()),
                             total_cores);
  return cpa_allocate_and_schedule(graph, total_cores, table, cap);
}


MoldableResult McpaScheduler::schedule(const core::TaskGraph& graph,
                                  int total_cores) const {
  const TaskTimeTable table(graph, *cost_, total_cores, mode_);
  // Level-width bound: a task in a precedence level of width w may use at
  // most ceil(P / w) cores, so the level as a whole fits the machine.
  std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()), 1);
  for (const std::vector<core::TaskId>& level : core::greedy_layers(graph)) {
    const int width = static_cast<int>(level.size());
    const int bound =
        std::max(1, (total_cores + width - 1) / std::max(1, width));
    for (core::TaskId id : level) {
      cap[static_cast<std::size_t>(id)] = bound;
    }
  }
  return cpa_allocate_and_schedule(graph, total_cores, table, cap);
}

}  // namespace ptask::sched
