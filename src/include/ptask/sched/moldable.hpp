#pragma once
/// \file moldable.hpp
/// Shared machinery for allocation-based moldable-task schedulers (CPA and
/// CPR, paper Section 4.3): a precomputed T(t, p) table and a bottom-level
/// list scheduler that turns an allocation into a Gantt schedule.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

/// Internal cost model a moldable scheduler optimizes.
///
/// `CommAware` prices computation plus the task's group/global collectives
/// under the default mapping pattern -- the same information the layer
/// scheduler uses.  Orthogonal collectives are inter-task exchanges whose
/// cost depends on the (unknown) group structure of a layer; they are not
/// part of T(t, p) for any of the schedulers.
///
/// `ComputeOnly` prices Tcomp/p only -- the near-linear speedup functions
/// the original CPA/CPR publications evaluate with.  A scheduler driven by
/// this model is blind to the communication penalty of very wide tasks,
/// which is precisely the failure mode the paper demonstrates for CPR on
/// the extrapolation method (Fig. 13 right).
enum class MoldableCostMode { CommAware, ComputeOnly };

/// Common result of the allocation-based schedulers (CPA/MCPA/CPR): cores
/// per task plus the list-scheduled Gantt view.  Convert to the canonical
/// `Schedule` with `canonical()` (pipeline.hpp) for the group/core-sequence
/// accessors and uniform downstream consumption.
struct MoldableResult {
  std::vector<int> allocation;  ///< cores per task
  GanttSchedule schedule;
};

/// Precomputed execution times T(t, p) for p in [1, P], one flat n x P table.
class TaskTimeTable {
 public:
  TaskTimeTable(const core::TaskGraph& graph, const cost::CostModel& cost,
                int total_cores,
                MoldableCostMode mode = MoldableCostMode::CommAware);

  /// Throws std::out_of_range for a bad task id or core count.
  double time(core::TaskId id, int p) const;
  int total_cores() const { return total_cores_; }

  /// Unchecked row of task `id`: row(id)[p - 1] is T(id, p).
  const double* row(core::TaskId id) const {
    return times_.data() + static_cast<std::size_t>(id) * total_cores_;
  }

 private:
  int total_cores_;
  int num_tasks_;
  std::vector<double> times_;  // [task * P + p - 1]
};

/// Bottom-level list scheduling of one graph under one T(t, p) table,
/// as a workspace that is built once and reused across allocations (CPR
/// list-schedules the same graph hundreds of times per request).
///
/// Tasks are prioritized by decreasing bottom level (the first ready task
/// wins a tie); a ready task starts as soon as its allocation of cores is
/// free.  The cores that become free earliest are picked, ties broken
/// towards the cores of the task's predecessors (data affinity keeps chains
/// on one set of cores), then towards lower core indices.
///
/// The free cores are kept as blocks of equal free time in ascending order;
/// each block is a core bitset with a core count and the range of words
/// that can hold set bits, so a placement costs O(blocks + words touched)
/// instead of O(P).  The topological order, CSR successor and predecessor
/// arrays and every scratch buffer are kept between calls.
class ListScheduler {
 public:
  /// `table` must outlive the workspace.  Throws
  /// std::logic_error when the graph has a cycle.
  ListScheduler(const core::TaskGraph& graph, const TaskTimeTable& table);

  /// The makespan of list-scheduling `allocation` (cores per task).  The
  /// makespan only grows as tasks are placed, so once it exceeds
  /// `abort_above` the rest is skipped and that partial makespan returned:
  /// it already exceeds the cutoff, which is all a reject decision needs.
  /// Throws std::out_of_range when an entry is not in [1, P].
  double makespan(std::span<const int> allocation,
                  double abort_above = std::numeric_limits<double>::infinity());

  /// The full Gantt view of list-scheduling `allocation`.
  GanttSchedule schedule(std::span<const int> allocation);

  /// Bottom levels of the last makespan() call's allocation, as
  /// core::critical_path computes them (complete even if that call aborted).
  std::span<const double> bottom_levels() const { return bottom_; }

  /// The topological order the workspace schedules in.
  const std::vector<core::TaskId>& order() const { return order_; }

 private:
  struct Block {
    double free;  ///< free time shared by every core of the block
    int count;    ///< cores in the block
    int lo, hi;   ///< words [lo, hi) of the bitset can hold set bits
    int slot;     ///< bitset index in pool_
  };

  std::uint64_t* block_bits(const Block& block) {
    return pool_.data() + static_cast<std::size_t>(block.slot) * words_;
  }
  std::uint64_t* task_bits(core::TaskId id) {
    return task_bits_.data() + static_cast<std::size_t>(id) * words_;
  }
  int take_slot();
  void place(core::TaskId id, int p, double start, double finish);

  const TaskTimeTable* table_;
  int P_;
  std::size_t words_;
  std::vector<core::TaskId> order_;  // topological order
  // CSR adjacency: the successors of task i are succ_ids_[succ_off_[i] ..
  // succ_off_[i + 1]), in TaskGraph::successors order; likewise pred_ids_.
  std::vector<int> succ_off_{0}, pred_off_{0};
  std::vector<core::TaskId> succ_ids_, pred_ids_;

  // Per-call task state.
  std::vector<double> task_time_, bottom_, ready_time_, start_, finish_;
  std::vector<int> remaining_preds_;
  std::vector<core::TaskId> ready_;
  std::vector<std::uint64_t> task_bits_;  // [task][word]: the task's cores
  std::vector<int> task_lo_, task_hi_;    // its words that can hold set bits

  // Free cores.  Bitsets live in pool_ slots, so reordering blocks moves
  // only the small Block entries; a free slot is all zero.
  std::vector<Block> blocks_;  // ascending free time
  std::vector<std::uint64_t> pool_;
  std::vector<int> free_slots_;
  std::vector<std::uint64_t> pred_;  // predecessor cores of the current task
};

/// List-schedules `graph` with the fixed per-task core counts `allocation`
/// onto `P = table.total_cores()` symbolic cores (see ListScheduler).
GanttSchedule list_schedule(const core::TaskGraph& graph,
                            std::span<const int> allocation,
                            const TaskTimeTable& table);

}  // namespace ptask::sched
