#pragma once
/// \file layer_scheduler.hpp
/// The combined layer-based scheduling algorithm (paper Section 3.2,
/// Algorithm 1).
///
/// Steps per invocation:
///  1. contract maximal linear chains of the M-task graph;
///  2. partition the contracted graph into layers of independent tasks
///     (greedy breadth-first);
///  3. for every layer, try every group count g in {1, ..., P}: split the P
///     symbolic cores into g equal groups, assign the layer's tasks to
///     groups with the modified greedy algorithm for independent tasks
///     (largest task first onto the least-loaded group; Sahni's 4/3-bound
///     algorithm for the uniprocessor case), and keep the g with the
///     smallest layer makespan under symbolic costs;
///  4. adjust the group sizes of the chosen partition proportionally to the
///     accumulated sequential work of each group (largest-remainder
///     rounding, every group keeps at least one core).
///
/// Since the pass-based refactor, LayerScheduler is a thin facade over
/// `Pipeline::algorithm1` (pipeline.hpp); each step above is a reusable
/// `Pass` and the facade merely preserves the historical LayeredSchedule
/// return type.  Step 3 skips the group counts that provably cannot win and
/// stops a losing assignment early; the result is byte-identical to trying
/// every g (docs/SCHEDULING.md, "Scheduler hot-path performance").

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

struct LayerSchedulerOptions {
  /// Upper bound on the group counts tried per layer; 0 means "up to P".
  /// (Group counts beyond the layer's task count are never useful and are
  /// always skipped.)
  int max_groups = 0;
  /// Force exactly this many groups per layer instead of searching (clamped
  /// to the layer's task count); 0 means "search" (Algorithm 1, line 5).
  /// Used by the NPB experiments that compare fixed group counts (Fig. 17).
  int fixed_groups = 0;
  /// Apply the proportional group-size adjustment step.
  bool adjust_group_sizes = true;
  /// Contract linear chains before layering.
  bool contract_chains = true;

  /// Schedule independent layers on up to this many threads (<= 1 runs
  /// serially; layers are independent and tie-breaking is per-layer, so
  /// the parallel path is bit-identical to the serial one).
  int parallel_layers = 1;
};

class LayerScheduler {
 public:
  LayerScheduler(const cost::CostModel& cost, LayerSchedulerOptions options = {})
      : cost_(&cost), options_(options) {}

  /// Schedules `graph` onto `total_cores` symbolic cores.
  LayeredSchedule schedule(const core::TaskGraph& graph, int total_cores) const;

  const LayerSchedulerOptions& options() const { return options_; }

 private:
  const cost::CostModel* cost_;
  LayerSchedulerOptions options_;
};

/// Equal split of `total` cores into `g` groups (sizes differ by at most 1;
/// earlier groups get the extra cores).
std::vector<int> equal_group_sizes(int total, int g);

/// Largest-remainder proportional rounding of `total` cores to `weights`
/// (every entry gets at least 1; the result sums to `total`).
std::vector<int> proportional_group_sizes(int total,
                                          const std::vector<double>& weights);

}  // namespace ptask::sched
