#pragma once
/// \file cost_model.hpp
/// Execution-time cost model for M-tasks (paper Section 3.1):
///
///     T(M, q, mp) = Tcomp(M)/q + Tcomm(M, q, mp)
///
/// Two pricing modes are provided.
///
/// *Symbolic* costs are what the scheduler uses: the mapping is not yet
/// known, so communication is priced with the *default mapping pattern* dmp
/// (all traffic over the slowest interconnect of the machine), making
/// Tsymb(M, p) an upper bound that is independent of the later mapping step.
///
/// *Mapped* costs price the same operations for a concrete assignment of
/// symbolic cores to physical cores, using the round-based collective
/// algorithms of ptask::net and charging NIC contention between concurrently
/// executing groups.  This is the quantity the mapping strategies of
/// Section 3.4 differ in.

#include <span>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/core/mtask.hpp"
#include "ptask/dist/redistribution.hpp"
#include "ptask/net/link_model.hpp"

namespace ptask::cost {

/// Physical cores of one scheduled group, in symbolic-core order (the i-th
/// entry executes symbolic core i of the group).
struct GroupLayout {
  std::vector<int> cores;
  int size() const { return static_cast<int>(cores.size()); }
};

/// Physical layout of one scheduling layer: one entry per concurrent group.
struct LayerLayout {
  std::vector<GroupLayout> groups;

  int total_cores() const {
    int total = 0;
    for (const GroupLayout& g : groups) total += g.size();
    return total;
  }
  /// Concatenation of all groups' cores, in group order (this is the global
  /// rank order of the layer).
  std::vector<int> all_cores() const;
};

class CostModel {
 public:
  explicit CostModel(arch::Machine machine);

  const arch::Machine& machine() const { return machine_; }

  // ---- symbolic costs (default mapping pattern) ----

  /// Tcomp(M)/q at the machine's sustained flop rate; respects max_cores.
  double symbolic_compute_time(const core::MTask& task, int q) const;

  /// Internal communication of the task under the default mapping pattern.
  /// `num_groups` is the number of concurrent groups in the task's layer
  /// (needed to size orthogonal collectives); `total_cores` the program-wide
  /// core count (for global collectives).
  double symbolic_comm_time(const core::MTask& task, int q, int num_groups,
                            int total_cores) const;

  /// Tsymb(M, q) = compute + comm (paper Section 3.2).
  double symbolic_task_time(const core::MTask& task, int q, int num_groups,
                            int total_cores) const;

  /// Whether the task's symbolic time depends on `num_groups`: only
  /// Orthogonal-scope collectives are sized by the concurrent group count,
  /// so the times of every other task are shared by all candidate group
  /// counts with the same group size.
  static bool depends_on_num_groups(const core::MTask& task);

  // ---- mapped costs (placement-aware) ----

  /// Time of one collective for the task running on `layout.groups[gi]`.
  /// Group-scope and orthogonal-scope collectives are priced assuming all
  /// groups of the layer execute the same operation concurrently (lockstep),
  /// so cross-group NIC contention is charged; global collectives span all
  /// cores of the layer.
  double mapped_collective_time(const core::CollectiveOp& op,
                                const LayerLayout& layout,
                                std::size_t group_index) const;

  /// T(M, q, mp) for the mapped group: compute + all internal collectives.
  double mapped_task_time(const core::MTask& task, const LayerLayout& layout,
                          std::size_t group_index) const;

  /// Time of a re-distribution plan between two physically mapped groups.
  double redistribution_time(const dist::RedistributionPlan& plan,
                             std::span<const int> src_cores,
                             std::span<const int> dst_cores) const;

  /// Builds the message schedule of one collective for `q` ranks with the
  /// task-level payload convention (see core::CollectiveOp).
  static net::MessageSchedule collective_schedule(const core::CollectiveOp& op,
                                                  int q);

 private:
  arch::Machine machine_;
  net::LinkModel link_;
};

}  // namespace ptask::cost
