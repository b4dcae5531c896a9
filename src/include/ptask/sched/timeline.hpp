#pragma once
/// \file timeline.hpp
/// End-to-end evaluation of a mapped layered schedule.
///
/// Two evaluation paths share the same inputs (a LayeredSchedule plus the
/// per-layer physical layouts produced by the mapping step):
///
///  * `evaluate` prices the execution analytically with the mapped cost
///    model (optionally the hybrid MPI+OpenMP variant): per layer, each
///    group runs its assigned tasks back-to-back, concurrent groups are
///    charged lockstep NIC contention, and re-distribution operations
///    implied by cross-layer input-output relations are added;
///
///  * `simulate` lowers the same execution onto rank programs (compute +
///    collective message schedules + re-distribution transfers + inter-layer
///    barriers) and runs the discrete-event network simulator, yielding a
///    "measured" makespan with full asynchrony and contention.

#include <span>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/cost/hybrid_model.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/sched/schedule.hpp"
#include "ptask/sim/network_sim.hpp"

namespace ptask::sched {

struct TimelineOptions {
  /// Include re-distribution traffic for cross-layer input-output relations.
  bool include_redistribution = true;
  /// OpenMP threads per MPI rank; 1 = pure MPI.  With t > 1, collectives run
  /// over the rank sub-layout and every collective pays a team fork/join
  /// (see cost::HybridCostModel).
  int threads_per_rank = 1;
  /// In the simulation path, collectives repeated more often than this are
  /// lowered explicitly this many times and the remaining repetitions are
  /// charged as (analytically priced) busy time -- keeps event counts sane
  /// for operations like DIIRK's O(n) broadcasts without losing mapping
  /// sensitivity.
  int max_explicit_repeats = 4;
  /// Insert a global barrier between layers in the simulation (the group
  /// structure changes between layers, which synchronizes all cores).
  bool barrier_between_layers = true;
  /// In the simulation path, record every compute interval and transfer into
  /// SimResult::trace (see obs::spans_from_sim for turning the trace into
  /// exportable spans).
  bool record_trace = false;
};

struct TimelineResult {
  double makespan = 0.0;
  std::vector<double> layer_times;   ///< analytic per-layer times
  double redistribution_time = 0.0;  ///< analytic total re-distribution time
};

class TimelineEvaluator {
 public:
  explicit TimelineEvaluator(const cost::CostModel& cost) : cost_(&cost) {}

  /// Analytic evaluation.
  TimelineResult evaluate(const LayeredSchedule& schedule,
                          std::span<const cost::LayerLayout> layouts,
                          const TimelineOptions& options = {}) const;

  /// Canonical-schedule overload: evaluates `schedule.layered` (throws
  /// std::invalid_argument when the schedule has no layers).
  TimelineResult evaluate(const Schedule& schedule,
                          std::span<const cost::LayerLayout> layouts,
                          const TimelineOptions& options = {}) const;

  /// Discrete-event simulation of the mapped schedule.  Rank r of the
  /// simulation runs on physical core `rank_cores[r]`; rank_cores must cover
  /// every core any layout uses.  Convenience overload derives rank_cores
  /// from the first layer's layout.
  sim::SimResult simulate(const LayeredSchedule& schedule,
                          std::span<const cost::LayerLayout> layouts,
                          const TimelineOptions& options = {}) const;

  /// Canonical-schedule overload, mirroring `evaluate`.
  sim::SimResult simulate(const Schedule& schedule,
                          std::span<const cost::LayerLayout> layouts,
                          const TimelineOptions& options = {}) const;

 private:
  const cost::CostModel* cost_;
};

/// Cross-layer re-distribution requirement derived from an input-output
/// relation: producer task's output parameter feeding a consumer's input.
struct RedistributionEdge {
  core::TaskId producer = core::kInvalidTask;
  core::TaskId consumer = core::kInvalidTask;
  std::size_t producer_layer = 0;
  std::size_t consumer_layer = 0;
  int producer_group = 0;
  int consumer_group = 0;
  std::string param_name;
  std::size_t bytes = 0;
  dist::Distribution src_dist = dist::Distribution::replicated();
  dist::Distribution dst_dist = dist::Distribution::replicated();
};

/// Enumerates the re-distribution edges of a layered schedule (edges of the
/// contracted graph between tasks in different layers whose parameter names
/// match as output -> input).
std::vector<RedistributionEdge> redistribution_edges(
    const LayeredSchedule& schedule);

/// Total re-distribution penalty of a Gantt schedule (CPA/CPR output or a
/// lowered layered schedule): for every graph edge whose endpoints occupy
/// different core sets, the matched parameters are re-distributed.  Priced
/// on the machine's slowest interconnect (the same default mapping pattern
/// the schedulers' symbolic costs use); replicated -> replicated moves are
/// priced as a binomial broadcast to the cores that lack the data.
///
/// This is the cost component the baseline schedulers do not see in their
/// objective -- the paper attributes CPR's losses on EPOL exactly to these
/// operations (Section 4.3).
double gantt_redistribution_time(const core::TaskGraph& graph,
                                 const GanttSchedule& schedule,
                                 const cost::CostModel& cost);

}  // namespace ptask::sched
