#pragma once
/// \file pipeline.hpp
/// Pass-based scheduling pipeline and the common `Scheduler` interface.
///
/// The paper's Algorithm 1 is a pipeline: chain contraction -> layer
/// partitioning -> group-count search -> LPT assignment -> proportional
/// group adjustment.  Each stage is a `Pass` over a shared `PassContext`
/// (graph, cost model, core budget, memo, working state), and
/// `Pipeline::algorithm1` composes the five passes into the `Scheduler`
/// producing the canonical `Schedule`.  `Pipeline::run(PassContext&)` is the
/// one implementation of the algorithm: it replays layers from the context's
/// memo and lowers the result to the Gantt view.
///
/// Every strategy in the repository -- the layer scheduler, CPA/MCPA/CPR,
/// pure data parallelism, and the portfolio -- implements `Scheduler`, so
/// consumers depend on one interface and one result type.  Discovery and
/// construction by name goes through `SchedulerRegistry` (registry.hpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/moldable.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

/// Options of the layer-based scheduler (paper Section 3.2, Algorithm 1).
struct LayerSchedulerOptions {
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

/// Equal split of `total` cores into `g` groups (sizes differ by at most 1;
/// earlier groups get the extra cores).
std::vector<int> equal_group_sizes(int total, int g);

/// Largest-remainder proportional rounding of `total` cores to `weights`
/// (every entry gets at least 1; the result sums to `total`).
std::vector<int> proportional_group_sizes(int total,
                                          const std::vector<double>& weights);

/// Common interface of all scheduling strategies: one canonical result.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Stable strategy name (registry key; also stamped into the result).
  virtual std::string_view name() const = 0;
  /// Schedules `graph` onto `total_cores` symbolic cores.
  virtual Schedule run(const core::TaskGraph& graph, int total_cores) const = 0;
};

/// Memoized result of one settled layer, carried between pipeline
/// invocations by the incremental scheduler.
///
/// The key is the layer's *content signature*: the ordered list of
/// original-task member sets of its contracted nodes (plus the candidate
/// group counts GroupSearch derived for it).  Old tasks are immutable in
/// the online-arrival model and chain contraction merges members
/// deterministically, so an identical signature implies identical merged
/// task contents -- and `schedule_layer` is a pure function of (contents in
/// layer order, candidates, P, cost model, options), so the memoized
/// post-adjust layer can be replayed bit-identically under remapped
/// contracted ids.  `task_times` stores the exact Gantt-lowering doubles of
/// the settled run: replaying them through `to_gantt` (instead of deriving
/// durations from slot differences, which is not FP-exact) keeps the
/// spliced schedule byte-identical to a full re-schedule.
struct LayerMemoEntry {
  /// Per contracted task of the layer, in layer order: the original-task
  /// ids merged into it (contraction.members[task]).
  std::vector<std::vector<core::TaskId>> members;
  /// Candidate group counts GroupSearch produced for the layer.
  std::vector<int> candidates;
  /// The settled post-AdjustGroups layer (contracted ids of its own run;
  /// remapped positionally on reuse).
  ScheduledLayer layer;
  /// Symbolic task time per layer task (layer.tasks order) used by the
  /// Gantt lowering.
  std::vector<double> task_times;
};

/// Shared state the passes of one pipeline invocation read and write.
struct PassContext {
  // ---- inputs (set by Pipeline::run, constant across passes) ----
  const core::TaskGraph* graph = nullptr;  ///< original (uncontracted) graph
  const cost::CostModel* cost = nullptr;
  int total_cores = 0;
  LayerSchedulerOptions options;

  /// Equal to `cost` in contexts from Pipeline::make_context (null in
  /// hand-built ones).  The passes price through `cost`; this alias is kept
  /// only for callers that still read it.
  const cost::CostModel* pricing = nullptr;

  /// Settled per-layer memo from a previous invocation (empty on the first
  /// run).  AssignLPT reuses every layer whose content signature matches an
  /// entry and schedules only the rest; AdjustGroups skips reused layers.
  /// IncrementalScheduler settles it from each result, so the next graph
  /// delta runs against the layers of the last one.
  std::vector<LayerMemoEntry> memo;

  // ---- working state (produced/consumed along the pass chain) ----
  core::ChainContraction contraction;                 ///< ContractChains
  std::vector<std::vector<core::TaskId>> layer_tasks; ///< Layerize
  std::vector<std::vector<int>> group_candidates;     ///< GroupSearch
  std::vector<ScheduledLayer> layers;                 ///< AssignLPT / Adjust
  /// Per-layer dirty flags (AssignLPT): 1 = scheduled this run, 0 = replayed
  /// from the memo.  Sized like `layers`; all-dirty when the memo is empty.
  std::vector<std::uint8_t> layer_dirty;
  /// Per-layer index into `memo` of the entry a clean layer was replayed
  /// from (-1 for dirty layers) -- the Gantt lowering reads the settled
  /// task times through it.
  std::vector<std::int32_t> layer_memo;

  // ---- incremental-repair accounting (filled by AssignLPT) ----
  std::size_t settled_prefix = 0;   ///< leading layers replayed unchanged
  std::size_t layers_reused = 0;    ///< layers replayed from the memo
  std::size_t layers_scheduled = 0; ///< layers (re)scheduled this run
};

/// One composable stage of a scheduling pipeline.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual void run(PassContext& ctx) const = 0;
};

/// Step 1: contract maximal linear chains (or install the identity
/// contraction when options.contract_chains is off).
class ContractChains final : public Pass {
 public:
  std::string_view name() const override { return "contract-chains"; }
  void run(PassContext& ctx) const override;
};

/// Step 2: greedy breadth-first partition of the contracted graph into
/// layers of pairwise independent tasks.
class Layerize final : public Pass {
 public:
  std::string_view name() const override { return "layerize"; }
  void run(PassContext& ctx) const override;
};

/// Step 3: enumerate the candidate group counts of every layer (Algorithm 1,
/// line 5): {1, ..., min(P, |layer|)}, or the single forced
/// options.fixed_groups value.
class GroupSearch final : public Pass {
 public:
  std::string_view name() const override { return "group-search"; }
  void run(PassContext& ctx) const override;
};

/// Step 4: for every layer, evaluate each candidate group count with an
/// equal core split and the modified greedy assignment for independent
/// tasks (largest task first onto the least-loaded group; Sahni's 4/3-bound
/// algorithm for the uniprocessor case) and keep the candidate with the
/// smallest layer makespan under symbolic costs.
class AssignLPT final : public Pass {
 public:
  std::string_view name() const override { return "assign-lpt"; }
  void run(PassContext& ctx) const override;
};

/// Step 5: adjust the chosen group sizes proportionally to the accumulated
/// sequential work of each group (largest-remainder rounding, every group
/// keeps at least one core) and re-price the layers.  No-op when
/// options.adjust_group_sizes is off or a layer has a single group.
class AdjustGroups final : public Pass {
 public:
  std::string_view name() const override { return "adjust-groups"; }
  void run(PassContext& ctx) const override;
};

/// The paper's Algorithm 1: a `Scheduler` that runs the five passes over one
/// PassContext and lowers the result.
class Pipeline final : public Scheduler {
 public:
  /// The canonical five-pass chain, stamped with strategy name `name`.
  static Pipeline algorithm1(const cost::CostModel& cost,
                             LayerSchedulerOptions options = {},
                             std::string name = "layer");

  std::string_view name() const override { return name_; }
  /// Runs a fresh `make_context(graph, total_cores)` through `run(ctx)`.
  Schedule run(const core::TaskGraph& graph, int total_cores) const override;

  /// Builds a fresh context for `graph`.  Public so re-entrant callers (the
  /// incremental scheduler, tests) can thread memo state between
  /// invocations.
  PassContext make_context(const core::TaskGraph& graph,
                           int total_cores) const;

  /// Runs the pass chain over a caller-owned context and assembles the
  /// canonical result.  Layers whose content signature matches `ctx.memo`
  /// are replayed (bit-identically) instead of re-scheduled; on return the
  /// repair counters (`settled_prefix`, `layers_reused`,
  /// `layers_scheduled`) describe what the run reused.  With an empty memo
  /// every layer is dirty.
  Schedule run(PassContext& ctx) const;

  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

 private:
  Pipeline(const cost::CostModel& cost, std::string name,
           LayerSchedulerOptions options)
      : cost_(&cost), name_(std::move(name)), options_(options) {}

  const cost::CostModel* cost_;
  std::string name_;
  LayerSchedulerOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Canonicalizes a layered schedule: lowers it to the Gantt view with the
/// scheduler's own symbolic costs and derives the per-task allocation.
Schedule canonical(LayeredSchedule layered, const cost::CostModel& cost,
                   std::string strategy);

/// Canonicalizes an allocation-based (CPA/MCPA/CPR) result: the contraction
/// is the identity, the Gantt view is the list schedule itself.
Schedule canonical(const core::TaskGraph& graph, MoldableResult result,
                   std::string strategy);

}  // namespace ptask::sched
