#pragma once
/// \file schedule.hpp
/// Schedule representations.
///
/// The layer-based scheduler (paper Algorithm 1) produces a
/// `LayeredSchedule`: per layer, a partition of the P *symbolic* cores into
/// groups and an assignment of the layer's tasks to groups.  Symbolic cores
/// (paper Section 3.2, assumption (b)) abstract from the physical machine;
/// the mapping step later binds them to physical cores.
///
/// CPA and CPR produce a general `GanttSchedule` (start/finish/core-range
/// per task), which does not exhibit a layered structure; a LayeredSchedule
/// can be lowered to a Gantt view for uniform validation and comparison.
///
/// `Schedule` is the *canonical* result type every registered scheduling
/// strategy produces (see pipeline.hpp / registry.hpp): it always carries a
/// Gantt view plus a per-task core allocation, and additionally the layered
/// structure when the producing strategy has one.  Consumers (validation,
/// timeline, simulator, executor, linter, fuzz oracles, tools) operate on
/// this one type instead of special-casing per-scheduler result structs.

#include <span>
#include <string>
#include <vector>

#include "ptask/core/graph_algorithms.hpp"
#include "ptask/core/task_graph.hpp"
#include "ptask/cost/cost_model.hpp"

namespace ptask::sched {

/// Group structure and task assignment of one layer.
struct ScheduledLayer {
  std::vector<core::TaskId> tasks;   ///< tasks of this layer (contracted ids)
  std::vector<int> group_sizes;      ///< symbolic cores per group; sums to P
  std::vector<int> task_group;       ///< task_group[i]: group executing tasks[i]
  double predicted_time = 0.0;       ///< symbolic-cost makespan of the layer

  int num_groups() const { return static_cast<int>(group_sizes.size()); }
};

/// Complete output of the layer-based scheduling step.
struct LayeredSchedule {
  int total_cores = 0;
  /// Linear-chain contraction the schedule was computed on; `layers` refer
  /// to tasks of `contraction.contracted`.
  core::ChainContraction contraction;
  std::vector<ScheduledLayer> layers;
  /// Sum of predicted layer times (symbolic costs, no re-distribution).
  double predicted_makespan = 0.0;
};

/// One task's slot in a Gantt-style schedule over symbolic cores [0, P).
/// The core set need not be contiguous (CPA/CPR pick whichever cores free up
/// first); for layered schedules it always is.
struct TaskSlot {
  std::vector<int> cores;
  double start = 0.0;
  double finish = 0.0;

  int num_cores() const { return static_cast<int>(cores.size()); }
};

/// General M-task schedule (CPA/CPR output; lowered LayeredSchedules).
struct GanttSchedule {
  int total_cores = 0;
  std::vector<TaskSlot> slots;  ///< indexed by TaskId of the scheduled graph
  double makespan = 0.0;
};

/// Lowers a layered schedule to the Gantt view: layers execute one after
/// another; inside a layer, each group occupies a contiguous symbolic core
/// range and runs its tasks back-to-back in assignment order.  Task times
/// are taken from `task_time(task_id, q, num_groups)`.
template <typename TimeFn>
GanttSchedule to_gantt(const LayeredSchedule& schedule, TimeFn&& task_time) {
  GanttSchedule gantt;
  gantt.total_cores = schedule.total_cores;
  gantt.slots.resize(
      static_cast<std::size_t>(schedule.contraction.contracted.num_tasks()));
  double layer_start = 0.0;
  for (const ScheduledLayer& layer : schedule.layers) {
    // Every task of group g occupies the same contiguous core range, so the
    // range is materialized once per group and copied per task (one memcpy
    // per slot instead of a zero-fill plus an element-wise rewrite).
    std::vector<std::vector<int>> group_cores(layer.group_sizes.size());
    int next_core = 0;
    for (std::size_t g = 0; g < layer.group_sizes.size(); ++g) {
      group_cores[g].reserve(static_cast<std::size_t>(layer.group_sizes[g]));
      for (int c = 0; c < layer.group_sizes[g]; ++c) {
        group_cores[g].push_back(next_core + c);
      }
      next_core += layer.group_sizes[g];
    }
    std::vector<double> group_clock(layer.group_sizes.size(), layer_start);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const core::TaskId id = layer.tasks[i];
      const std::size_t g = static_cast<std::size_t>(layer.task_group[i]);
      const int q = layer.group_sizes[g];
      const double t = task_time(id, q, layer.num_groups());
      TaskSlot& slot = gantt.slots[static_cast<std::size_t>(id)];
      slot.cores = group_cores[g];
      slot.start = group_clock[g];
      slot.finish = slot.start + t;
      group_clock[g] = slot.finish;
    }
    double layer_end = layer_start;
    for (double c : group_clock) layer_end = std::max(layer_end, c);
    layer_start = layer_end;
  }
  gantt.makespan = layer_start;
  return gantt;
}

/// Canonical output of any scheduling strategy.
///
/// Indices are uniform: `gantt.slots`, `allocation`, and the task ids inside
/// `layered` all refer to tasks of `layered.contraction.contracted`.  For
/// strategies without a layered structure (CPA/CPR) the contraction is the
/// identity and `layered.layers` is empty.
struct Schedule {
  std::string strategy;       ///< registry name of the producing strategy
  LayeredSchedule layered;    ///< contraction always valid; layers optional
  GanttSchedule gantt;        ///< uniform Gantt view (always populated)
  std::vector<int> allocation;  ///< symbolic cores per (contracted) task
  /// Free-form diagnostics accumulated by the portfolio scoreboard.
  std::vector<std::string> notes;
  /// Incremental repair annotation: the number of leading layers replayed
  /// unchanged from the previous settled schedule (the stable prefix of a
  /// spliced schedule).  0 for offline strategies and full re-schedules.
  /// Pure annotation like `notes`: excluded from serve::serialize_schedule,
  /// so spliced and monolithic schedules of the same graph stay
  /// byte-identical on the wire.
  std::size_t settled_prefix_layers = 0;

  int total_cores() const { return gantt.total_cores; }
  double makespan() const { return gantt.makespan; }
  bool has_layers() const { return !layered.layers.empty(); }
  std::size_t num_layers() const { return layered.layers.size(); }

  /// The graph the slot/allocation indices refer to.
  const core::TaskGraph& scheduled_graph() const {
    return layered.contraction.contracted;
  }
  int num_tasks() const { return scheduled_graph().num_tasks(); }

  /// Symbolic cores executing `id` (empty for markers).
  std::span<const int> task_cores(core::TaskId id) const {
    return gantt.slots[static_cast<std::size_t>(id)].cores;
  }
  /// Number of cores allocated to `id`.
  int task_width(core::TaskId id) const {
    return allocation[static_cast<std::size_t>(id)];
  }
  /// Group sizes of one layer (empty span when the strategy is not layered).
  std::span<const int> group_sizes(std::size_t layer) const {
    return layered.layers[layer].group_sizes;
  }
  /// Tasks executed by symbolic core `core`, ordered by start time -- the
  /// core-sequence view CPA/CPR results historically lacked.
  std::vector<core::TaskId> core_sequence(int core) const;
};

/// The number of leading layers on which two schedules agree exactly
/// (same tasks, group sizes, assignment, and predicted time) -- the splice
/// invariant check: an incremental schedule and the full re-schedule of the
/// same graph share at least the settled prefix.
std::size_t common_layer_prefix(const Schedule& a, const Schedule& b);

/// Human-readable rendering of a layered schedule (groups per layer and the
/// task-to-group assignment).
std::string describe(const LayeredSchedule& schedule);

/// Human-readable rendering of a canonical schedule: strategy, makespan,
/// the layered structure when present, and any notes.
std::string describe(const Schedule& schedule);

}  // namespace ptask::sched
