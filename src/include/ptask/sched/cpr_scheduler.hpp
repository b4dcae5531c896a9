#pragma once
/// \file cpr_scheduler.hpp
/// CPR: Critical Path Reduction scheduling (Radulescu et al., IPDPS'01),
/// the second baseline of the paper (Section 4.3).
///
/// CPR interleaves allocation and scheduling: starting from one core per
/// task it repeatedly tries to grant one more core to a critical-path task,
/// re-runs the list scheduler, and keeps the enlargement only if the
/// makespan actually improves; it stops when no critical-path task improves
/// the makespan.
///
/// Characteristic behaviour reproduced from the paper: for graphs dominated
/// by one long linear chain (EPOL, Fig. 13 right), CPR inflates the chain
/// tasks towards a data-parallel execution whose internal communication and
/// re-distribution overhead makes it *slower* than pure data parallelism.

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/moldable.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

class CprScheduler {
 public:
  /// The default compute-only cost mode follows the near-linear speedup
  /// functions of the original CPR evaluation; it is what lets CPR talk
  /// itself into the very wide chain allocations the paper observes.  Pass
  /// MoldableCostMode::CommAware to let CPR optimize the full model instead.
  explicit CprScheduler(const cost::CostModel& cost,
                        MoldableCostMode mode = MoldableCostMode::ComputeOnly)
      : cost_(&cost), mode_(mode) {}

  MoldableResult schedule(const core::TaskGraph& graph, int total_cores) const;

 private:
  const cost::CostModel* cost_;
  MoldableCostMode mode_;
};

}  // namespace ptask::sched
