#pragma once
/// \file cpa_scheduler.hpp
/// CPA: Critical Path and Area-based scheduling (Radulescu & van Gemund,
/// ICPP'01), one of the two baselines the paper compares against
/// (Section 4.3).
///
/// CPA decouples allocation from scheduling.  The allocation phase starts
/// every task at one core and repeatedly grants one more core to the
/// critical-path task that benefits most, until the critical path length
/// TCP no longer exceeds the average area TA = sum(T(t,p_t) * p_t) / P.
/// The scheduling phase list-schedules the allocated tasks by bottom level.
///
/// The characteristic failure mode the paper observes (PABM, Fig. 13 left)
/// emerges naturally: the allocation phase hands the K independent stage
/// tasks more cores in total than the machine has, so the scheduling phase
/// cannot run them concurrently and large idle gaps appear.

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/moldable.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

class CpaScheduler {
 public:
  /// The default communication-aware cost mode lets the over-allocation
  /// emerge: the benefit criterion keeps granting cores past the point
  /// where a task's own execution time stops improving.
  explicit CpaScheduler(const cost::CostModel& cost,
                        MoldableCostMode mode = MoldableCostMode::CommAware)
      : cost_(&cost), mode_(mode) {}

  MoldableResult schedule(const core::TaskGraph& graph, int total_cores) const;

 private:
  const cost::CostModel* cost_;
  MoldableCostMode mode_;
};

/// MCPA: the modified CPA of Bansal et al. (Parallel Computing 32, 2006),
/// included as an additional baseline.  The allocation phase is CPA's, but
/// a task's allocation is bounded by P divided by the width of the task's
/// precedence level, so a layer of w independent tasks can never be granted
/// more than P cores in total -- directly removing CPA's over-allocation
/// pathology on wide stage layers.
class McpaScheduler {
 public:
  explicit McpaScheduler(const cost::CostModel& cost,
                         MoldableCostMode mode = MoldableCostMode::CommAware)
      : cost_(&cost), mode_(mode) {}

  MoldableResult schedule(const core::TaskGraph& graph, int total_cores) const;

 private:
  const cost::CostModel* cost_;
  MoldableCostMode mode_;
};

}  // namespace ptask::sched
