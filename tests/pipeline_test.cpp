// Tests for the pass-based scheduling pipeline (pipeline.hpp): every pass
// in isolation over a hand-built PassContext, pipeline composition
// (Algorithm 1 chain, canonical assembly), the
// scheduler registry, the canonical conversions, and -- the load-bearing
// property -- byte-identical equivalence between the composed pipeline and
// a verbatim copy of the pre-refactor monolithic layer scheduler
// (reference_layer_scheduler.hpp) on all five fuzz graph families.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/core/graph_algorithms.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/protocol.hpp"
#include "reference_layer_scheduler.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 8) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

core::TaskGraph independent_tasks(const std::vector<double>& works) {
  core::TaskGraph g;
  for (std::size_t i = 0; i < works.size(); ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), works[i]));
  }
  return g;
}

core::TaskGraph chain_graph(int length) {
  core::TaskGraph g;
  for (int i = 0; i < length; ++i) {
    g.add_task(core::MTask("c" + std::to_string(i), 1.0e9));
  }
  for (int i = 0; i + 1 < length; ++i) {
    g.add_edge(static_cast<core::TaskId>(i), static_cast<core::TaskId>(i + 1));
  }
  return g;
}

PassContext make_ctx(const core::TaskGraph& graph, const cost::CostModel& cost,
                     int total_cores, LayerSchedulerOptions options = {}) {
  PassContext ctx;
  ctx.graph = &graph;
  ctx.cost = &cost;
  ctx.total_cores = total_cores;
  ctx.options = options;
  return ctx;
}

/// Field-by-field exact comparison (doubles with ==, deliberately).
void expect_identical(const LayeredSchedule& reference,
                      const LayeredSchedule& actual,
                      const std::string& label) {
  EXPECT_EQ(reference.total_cores, actual.total_cores) << label;
  EXPECT_EQ(reference.predicted_makespan, actual.predicted_makespan) << label;
  EXPECT_EQ(reference.contraction.members, actual.contraction.members)
      << label;
  EXPECT_EQ(reference.contraction.representative,
            actual.contraction.representative)
      << label;
  EXPECT_EQ(reference.contraction.contracted.num_tasks(),
            actual.contraction.contracted.num_tasks())
      << label;
  EXPECT_EQ(reference.contraction.contracted.num_edges(),
            actual.contraction.contracted.num_edges())
      << label;
  ASSERT_EQ(reference.layers.size(), actual.layers.size()) << label;
  for (std::size_t l = 0; l < reference.layers.size(); ++l) {
    const ScheduledLayer& a = reference.layers[l];
    const ScheduledLayer& b = actual.layers[l];
    const std::string where = label + ", layer " + std::to_string(l);
    EXPECT_EQ(a.tasks, b.tasks) << where;
    EXPECT_EQ(a.group_sizes, b.group_sizes) << where;
    EXPECT_EQ(a.task_group, b.task_group) << where;
    EXPECT_EQ(a.predicted_time, b.predicted_time) << where;
  }
}

core::TaskGraph family_graph(fuzz::GraphFamily family, fuzz::Rng& rng) {
  const fuzz::GeneratorParams params;
  switch (family) {
    case fuzz::GraphFamily::Layered:
      return fuzz::layered_graph(rng, params);
    case fuzz::GraphFamily::SeriesParallel:
      return fuzz::series_parallel_graph(rng, params);
    case fuzz::GraphFamily::RandomDag:
      return fuzz::random_dag(rng, params);
    case fuzz::GraphFamily::OdeSolver:
      return fuzz::ode_solver_graph(rng);
    case fuzz::GraphFamily::NpbMultiZone:
      return fuzz::npb_multizone_graph(rng);
  }
  throw std::logic_error("unknown family");
}

// ---------------------------------------------------------------------------
// The equivalence property: pipeline == pre-refactor monolith, bit for bit.
// ---------------------------------------------------------------------------

TEST(PipelineEquivalence, ReproducesMonolithOnAllFamilies) {
  // 5 families x 25 seeds = 125 cases with the default options, plus one
  // rotating non-default option set per case (forced groups, no chain
  // contraction, no adjustment, parallel layers, and combinations of them).
  // Each default case also pins the lowering of Pipeline::run byte for byte
  // to canonical()'s, the one dp and perfbench use.
  const std::uint64_t base =
      fuzz::substream(fuzz::seed_from_env(fuzz::kDefaultFuzzSeed), 0x9191);
  const std::vector<fuzz::GraphFamily> families = {
      fuzz::GraphFamily::Layered,       fuzz::GraphFamily::SeriesParallel,
      fuzz::GraphFamily::RandomDag,     fuzz::GraphFamily::OdeSolver,
      fuzz::GraphFamily::NpbMultiZone};
  const std::vector<LayerSchedulerOptions> variants = [] {
    std::vector<LayerSchedulerOptions> v(8);
    v[0].fixed_groups = 2;
    v[1].contract_chains = false;
    v[2].adjust_group_sizes = false;
    v[3].fixed_groups = 3;
    v[3].contract_chains = false;
    v[4].parallel_layers = 4;
    v[5].contract_chains = false;
    v[5].parallel_layers = 3;
    v[6].contract_chains = false;
    v[6].adjust_group_sizes = false;
    v[7].fixed_groups = 4;
    v[7].parallel_layers = 2;
    return v;
  }();

  int cases = 0;
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (int s = 0; s < 25; ++s) {
      const std::uint64_t seed =
          fuzz::substream(base, (static_cast<std::uint64_t>(f) << 32) |
                                    static_cast<std::uint64_t>(s));
      fuzz::Rng graph_rng(seed);
      const core::TaskGraph graph = family_graph(families[f], graph_rng);
      fuzz::Rng shape_rng(fuzz::substream(seed, 0xC0DE));
      const arch::Machine m = machine(shape_rng.uniform(1, 16));
      const cost::CostModel cost(m);
      const int cores = 1 << shape_rng.uniform(1, 7);
      const std::string label =
          std::string(to_string(families[f])) + " seed " + std::to_string(s) +
          " cores " + std::to_string(cores);

      const Schedule schedule = Pipeline::algorithm1(cost).run(graph, cores);
      expect_identical(ReferenceLayerScheduler(cost).schedule(graph, cores),
                       schedule.layered, label);
      EXPECT_EQ(serve::serialize_schedule(schedule),
                serve::serialize_schedule(
                    canonical(schedule.layered, cost, "layer")))
          << label;
      const LayerSchedulerOptions& opt = variants[static_cast<std::size_t>(
          s % static_cast<int>(variants.size()))];
      expect_identical(
          ReferenceLayerScheduler(cost, opt).schedule(graph, cores),
          Pipeline::algorithm1(cost, opt).run(graph, cores).layered,
          label + " (variant)");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 125);
}

TEST(PipelineEquivalence, TiesOnlyAtSmallGroupsReplayTheSortHistory) {
  // 100 pairs of equal-work tasks without collectives, one capped at 5
  // cores and one at 8.  A pair's times tie only when the group size is at
  // most 5; the works span a factor of two, so pairs interleave differently
  // at every larger size.  Task x carries a heavy group-scope broadcast
  // whose binomial step count drops at group sizes 2^k.  On 512 cores g = 64
  // (q = 8) is the incumbent, the full-time bound prunes g = 65..102
  // (q_lo >= 5, still three steps) without sorting them, and g = 103
  // (q_lo = 4, two steps) runs again with tied keys: its order must replay
  // the monolith's sorts across the pruned candidates.  The winner g = 128
  // (q = 4) inherits that tie history.
  const int P = 512;
  core::TaskGraph graph;
  core::MTask x("x", 1.0e10);
  x.add_comm(core::CollectiveOp{core::CollectiveKind::Bcast,
                                core::CommScope::Group, 10'000'000'000, 1});
  graph.add_task(x);
  for (int k = 0; k < 100; ++k) {
    const double work = (1000.0 + 11.0 * k) * 1.0e7;
    core::MTask a("a" + std::to_string(k), work);
    a.set_max_cores(5);
    core::MTask b("b" + std::to_string(k), work);
    b.set_max_cores(8);
    graph.add_task(a);
    graph.add_task(b);
  }
  const arch::Machine m = machine(P / 4);
  const cost::CostModel cost(m);
  const core::MTask& a0 = graph.task(1);
  const core::MTask& b0 = graph.task(2);
  for (const int q : {4, 5}) {
    EXPECT_EQ(cost.symbolic_task_time(a0, q, 1, P),
              cost.symbolic_task_time(b0, q, 1, P));
  }
  for (const int q : {6, 8}) {
    EXPECT_NE(cost.symbolic_task_time(a0, q, 1, P),
              cost.symbolic_task_time(b0, q, 1, P));
  }

  LayerSchedulerOptions unadjusted;
  unadjusted.adjust_group_sizes = false;
  obs::metrics().reset();
  const LayeredSchedule layered =
      Pipeline::algorithm1(cost, unadjusted).run(graph, P).layered;
  EXPECT_GT(obs::metrics().counter("sched.prune.pruned").value(), 0u);
  ASSERT_EQ(layered.layers.size(), 1u);
  EXPECT_EQ(layered.layers[0].group_sizes, std::vector<int>(128, 4));
  expect_identical(ReferenceLayerScheduler(cost, unadjusted).schedule(graph, P),
                   layered, "ties, unadjusted");
  expect_identical(ReferenceLayerScheduler(cost).schedule(graph, P),
                   Pipeline::algorithm1(cost).run(graph, P).layered, "ties");
}

TEST(PipelineEquivalence, ReproducesMonolithOnWideLayersAtP1024) {
  // The equivalence cases above use at most 128 cores, where few
  // candidates share a time row and the LPT abort rarely engages.  Layers
  // of a few hundred tasks on 1024 cores exercise both.
  fuzz::GeneratorParams params;
  params.max_width = 400;
  params.max_depth = 4;
  params.edge_density = 0.05;
  // A fixed seed: the layer-width check below is about this instance.
  fuzz::Rng rng(fuzz::substream(fuzz::kDefaultFuzzSeed, 0x1024));
  const core::TaskGraph graph = fuzz::layered_graph(rng, params);
  const arch::Machine m = machine(16);
  const cost::CostModel cost(m);
  const LayeredSchedule reference =
      ReferenceLayerScheduler(cost).schedule(graph, 1024);
  std::size_t widest = 0;
  for (const ScheduledLayer& layer : reference.layers) {
    widest = std::max(widest, layer.tasks.size());
  }
  EXPECT_GE(widest, 100u);
  expect_identical(reference,
                   Pipeline::algorithm1(cost).run(graph, 1024).layered,
                   "P=1024");
}

// ---------------------------------------------------------------------------
// Pass isolation.
// ---------------------------------------------------------------------------

class PassTest : public ::testing::Test {
 protected:
  PassTest() : machine_(machine()), cost_(machine_) {}
  arch::Machine machine_;
  cost::CostModel cost_;
};

TEST_F(PassTest, ContractChainsContractsLinearChains) {
  const core::TaskGraph graph = chain_graph(4);
  PassContext ctx = make_ctx(graph, cost_, 8);
  ContractChains().run(ctx);
  const core::ChainContraction expected = core::contract_linear_chains(graph);
  EXPECT_EQ(ctx.contraction.contracted.num_tasks(),
            expected.contracted.num_tasks());
  EXPECT_EQ(ctx.contraction.members, expected.members);
  EXPECT_EQ(ctx.contraction.representative, expected.representative);
  EXPECT_LT(ctx.contraction.contracted.num_tasks(), graph.num_tasks());
}

TEST_F(PassTest, ContractChainsInstallsIdentityWhenDisabled) {
  const core::TaskGraph graph = chain_graph(4);
  LayerSchedulerOptions options;
  options.contract_chains = false;
  PassContext ctx = make_ctx(graph, cost_, 8, options);
  ContractChains().run(ctx);
  ASSERT_EQ(ctx.contraction.contracted.num_tasks(), graph.num_tasks());
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    EXPECT_EQ(ctx.contraction.members[static_cast<std::size_t>(id)],
              std::vector<core::TaskId>{id});
    EXPECT_EQ(ctx.contraction.representative[static_cast<std::size_t>(id)],
              id);
  }
}

TEST_F(PassTest, LayerizeMatchesGreedyLayers) {
  const core::TaskGraph graph = independent_tasks({1e9, 2e9, 3e9});
  PassContext ctx = make_ctx(graph, cost_, 8);
  ContractChains().run(ctx);
  Layerize().run(ctx);
  EXPECT_EQ(ctx.layer_tasks, core::greedy_layers(ctx.contraction.contracted));
  ASSERT_EQ(ctx.layer_tasks.size(), 1u);
  EXPECT_EQ(ctx.layer_tasks[0].size(), 3u);
}

TEST_F(PassTest, GroupSearchEnumeratesFullRange) {
  const core::TaskGraph graph = independent_tasks({1e9, 1e9, 1e9, 1e9});
  PassContext ctx = make_ctx(graph, cost_, 8);
  ContractChains().run(ctx);
  Layerize().run(ctx);
  GroupSearch().run(ctx);
  ASSERT_EQ(ctx.group_candidates.size(), 1u);
  // min(P, n_tasks) = 4 candidates.
  EXPECT_EQ(ctx.group_candidates[0], (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(PassTest, GroupSearchHonoursFixedGroups) {
  const core::TaskGraph graph = independent_tasks({1e9, 1e9, 1e9, 1e9});
  {
    LayerSchedulerOptions options;
    options.fixed_groups = 3;
    PassContext ctx = make_ctx(graph, cost_, 8, options);
    ContractChains().run(ctx);
    Layerize().run(ctx);
    GroupSearch().run(ctx);
    EXPECT_EQ(ctx.group_candidates[0], (std::vector<int>{3}));
  }
  {
    // Forced group counts clamp to the layer's task count.
    LayerSchedulerOptions options;
    options.fixed_groups = 10;
    PassContext ctx = make_ctx(graph, cost_, 8, options);
    ContractChains().run(ctx);
    Layerize().run(ctx);
    GroupSearch().run(ctx);
    EXPECT_EQ(ctx.group_candidates[0], (std::vector<int>{4}));
  }
}

TEST_F(PassTest, AssignLptRequiresGroupSearch) {
  const core::TaskGraph graph = independent_tasks({1e9, 1e9});
  PassContext ctx = make_ctx(graph, cost_, 4);
  ContractChains().run(ctx);
  Layerize().run(ctx);
  EXPECT_THROW(AssignLPT().run(ctx), std::logic_error);
}

TEST_F(PassTest, AssignLptSingleGroupAccumulatesInLptOrder) {
  const std::vector<double> works = {4.0e9, 1.0e9, 3.0e9, 2.0e9};
  const core::TaskGraph graph = independent_tasks(works);
  LayerSchedulerOptions options;
  options.fixed_groups = 1;
  PassContext ctx = make_ctx(graph, cost_, 4, options);
  ContractChains().run(ctx);
  Layerize().run(ctx);
  GroupSearch().run(ctx);
  AssignLPT().run(ctx);
  ASSERT_EQ(ctx.layers.size(), 1u);
  const ScheduledLayer& layer = ctx.layers[0];
  EXPECT_EQ(layer.group_sizes, std::vector<int>{4});
  EXPECT_EQ(layer.task_group, (std::vector<int>{0, 0, 0, 0}));
  // One group: the layer time is the sum of all task times on 4 cores,
  // accumulated in decreasing-time order.
  std::vector<double> times;
  for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
    times.push_back(cost_.symbolic_task_time(
        ctx.contraction.contracted.task(layer.tasks[i]), 4, 1, 4));
  }
  std::sort(times.begin(), times.end(), std::greater<double>());
  double expected = 0.0;
  for (double t : times) expected += t;
  EXPECT_EQ(layer.predicted_time, expected);
}

TEST_F(PassTest, AdjustGroupsFollowsAccumulatedWork) {
  const core::TaskGraph graph = independent_tasks({3.0e10, 1.0e10});
  PassContext ctx = make_ctx(graph, cost_, 8);
  ContractChains().run(ctx);
  // Fabricate the AssignLPT outcome: two equal groups, one task each.
  ScheduledLayer layer;
  layer.tasks = {0, 1};
  layer.group_sizes = {4, 4};
  layer.task_group = {0, 1};
  layer.predicted_time = 1.0;
  ctx.layers.push_back(layer);
  AdjustGroups().run(ctx);
  // 3:1 work over 8 cores -> 6 and 2 (largest-remainder rounding).
  EXPECT_EQ(ctx.layers[0].group_sizes, (std::vector<int>{6, 2}));
  const double t0 = cost_.symbolic_task_time(graph.task(0), 6, 2, 8);
  const double t1 = cost_.symbolic_task_time(graph.task(1), 2, 2, 8);
  EXPECT_EQ(ctx.layers[0].predicted_time, std::max(t0, t1));
}

TEST_F(PassTest, AdjustGroupsIsANoOpWhenDisabledOrSingleGroup) {
  const core::TaskGraph graph = independent_tasks({3.0e10, 1.0e10});
  {
    LayerSchedulerOptions options;
    options.adjust_group_sizes = false;
    PassContext ctx = make_ctx(graph, cost_, 8, options);
    ContractChains().run(ctx);
    ScheduledLayer layer;
    layer.tasks = {0, 1};
    layer.group_sizes = {4, 4};
    layer.task_group = {0, 1};
    layer.predicted_time = 1.0;
    ctx.layers.push_back(layer);
    AdjustGroups().run(ctx);
    EXPECT_EQ(ctx.layers[0].group_sizes, (std::vector<int>{4, 4}));
    EXPECT_EQ(ctx.layers[0].predicted_time, 1.0);
  }
  {
    PassContext ctx = make_ctx(graph, cost_, 8);
    ContractChains().run(ctx);
    ScheduledLayer layer;
    layer.tasks = {0, 1};
    layer.group_sizes = {8};
    layer.task_group = {0, 0};
    layer.predicted_time = 1.0;
    ctx.layers.push_back(layer);
    AdjustGroups().run(ctx);
    EXPECT_EQ(ctx.layers[0].group_sizes, std::vector<int>{8});
    EXPECT_EQ(ctx.layers[0].predicted_time, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Pipeline composition and canonical assembly.
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : machine_(machine()), cost_(machine_) {}

  static core::TaskGraph solver_graph() {
    ode::SolverGraphSpec spec;
    spec.method = ode::Method::PABM;
    spec.n = 1 << 12;
    spec.stages = 4;
    spec.iterations = 2;
    return spec.step_graph();
  }

  arch::Machine machine_;
  cost::CostModel cost_;
};

TEST_F(PipelineTest, Algorithm1ComposesTheFivePaperPasses) {
  const Pipeline pipeline = Pipeline::algorithm1(cost_);
  EXPECT_EQ(pipeline.name(), "layer");
  ASSERT_EQ(pipeline.passes().size(), 5u);
  const std::vector<std::string> expected = {
      "contract-chains", "layerize", "group-search", "assign-lpt",
      "adjust-groups"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(pipeline.passes()[i]->name(), expected[i]);
  }
}

TEST_F(PipelineTest, RunAssemblesCanonicalSchedule) {
  const core::TaskGraph graph = solver_graph();
  const Schedule s = Pipeline::algorithm1(cost_).run(graph, 16);
  EXPECT_EQ(s.strategy, "layer");
  EXPECT_TRUE(s.has_layers());
  EXPECT_EQ(s.total_cores(), 16);
  EXPECT_GT(s.makespan(), 0.0);
  ASSERT_EQ(s.allocation.size(), s.gantt.slots.size());
  for (core::TaskId id = 0; id < s.num_tasks(); ++id) {
    EXPECT_EQ(s.task_width(id),
              static_cast<int>(s.task_cores(id).size()));
  }
  // The lowered Gantt view agrees with the layered prediction up to
  // floating-point association order.
  EXPECT_NEAR(s.makespan(), s.layered.predicted_makespan,
              1e-9 * s.layered.predicted_makespan);
  EXPECT_THROW(Pipeline::algorithm1(cost_).run(graph, 0),
               std::invalid_argument);
}

TEST_F(PipelineTest, CanonicalMoldableResultKeepsGanttAndAllocation) {
  const core::TaskGraph graph = solver_graph();
  const CpaScheduler cpa(cost_);
  MoldableResult result = cpa.schedule(graph, 16);
  const std::vector<int> allocation = result.allocation;
  const double makespan = result.schedule.makespan;
  const Schedule s = canonical(graph, std::move(result), "cpa");
  EXPECT_EQ(s.strategy, "cpa");
  EXPECT_FALSE(s.has_layers());
  EXPECT_EQ(s.allocation, allocation);
  EXPECT_EQ(s.makespan(), makespan);
  EXPECT_EQ(s.layered.predicted_makespan, makespan);
  // Identity contraction: canonical ids are the original ids.
  ASSERT_EQ(s.scheduled_graph().num_tasks(), graph.num_tasks());
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    EXPECT_EQ(s.layered.contraction.representative[static_cast<std::size_t>(
                  id)],
              id);
  }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(RegistryTest, ListsBuiltinStrategiesInRegistrationOrder) {
  const std::vector<std::string> names =
      SchedulerRegistry::instance().names();
  const std::vector<std::string> expected = {
      "layer", "cpa", "mcpa", "cpr", "dp", "portfolio", "incremental"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(SchedulerRegistry::instance().contains(name)) << name;
  }
  EXPECT_FALSE(SchedulerRegistry::instance().contains("nope"));
}

TEST(RegistryTest, MakeConstructsTheNamedStrategy) {
  const arch::Machine m = machine();
  const cost::CostModel cost(m);
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    const std::unique_ptr<Scheduler> s =
        SchedulerRegistry::instance().make(name, cost);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW(SchedulerRegistry::instance().make("nope", cost),
               std::invalid_argument);
}

TEST(RegistryTest, EveryStrategyProducesAConsistentCanonicalSchedule) {
  const arch::Machine m = machine();
  const cost::CostModel cost(m);
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PAB;
  spec.n = 1 << 12;
  spec.stages = 4;
  spec.iterations = 2;
  const core::TaskGraph graph = spec.step_graph();
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    const Schedule s =
        SchedulerRegistry::instance().make(name, cost)->run(graph, 16);
    EXPECT_FALSE(s.strategy.empty()) << name;
    EXPECT_EQ(s.total_cores(), 16) << name;
    EXPECT_GT(s.makespan(), 0.0) << name;
    ASSERT_EQ(s.allocation.size(),
              static_cast<std::size_t>(s.num_tasks()))
        << name;
    for (core::TaskId id = 0; id < s.num_tasks(); ++id) {
      EXPECT_EQ(s.task_width(id), static_cast<int>(s.task_cores(id).size()))
          << name << " task " << id;
    }
  }
}

}  // namespace
}  // namespace ptask::sched
