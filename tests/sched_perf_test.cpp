// Tests for the scheduler hot-path optimizations (ISSUE: memoized cost
// evaluation, heap-based LPT, pruned group search, parallel per-layer
// assignment).  The load-bearing property is the bit-identity contract:
// every optimization knob, alone and combined, must reproduce the
// all-disabled reference path byte for byte on all five fuzz graph
// families.  Alongside the differential property: CachedCostModel unit
// behaviour (transparency, invalidation on mutation, per-machine
// isolation), deterministic prune accounting, the portfolio's shared
// cache, and group-size helper edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cached_model.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/portfolio.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 8) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

/// The naive reference configuration: every performance knob off.
LayerSchedulerOptions all_off(LayerSchedulerOptions opt = {}) {
  opt.cost_cache = false;
  opt.heap_lpt = false;
  opt.prune_group_search = false;
  opt.parallel_layers = 1;
  return opt;
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
  return core::TaskGraph();
}

core::TaskGraph independent_tasks(const std::vector<double>& works) {
  core::TaskGraph g;
  for (std::size_t i = 0; i < works.size(); ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), works[i]));
  }
  return g;
}

/// Exact (bit-level) comparison of two layered schedules.
void expect_identical(const LayeredSchedule& reference,
                      const LayeredSchedule& actual,
                      const std::string& label) {
  EXPECT_EQ(reference.total_cores, actual.total_cores) << label;
  EXPECT_EQ(reference.predicted_makespan, actual.predicted_makespan) << label;
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

/// Exact comparison of two canonical schedules (Gantt view + allocation).
void expect_same_schedule(const Schedule& reference, const Schedule& actual,
                          const std::string& label) {
  EXPECT_EQ(reference.gantt.makespan, actual.gantt.makespan) << label;
  EXPECT_EQ(reference.allocation, actual.allocation) << label;
  ASSERT_EQ(reference.gantt.slots.size(), actual.gantt.slots.size()) << label;
  for (std::size_t i = 0; i < reference.gantt.slots.size(); ++i) {
    const TaskSlot& a = reference.gantt.slots[i];
    const TaskSlot& b = actual.gantt.slots[i];
    const std::string where = label + ", slot " + std::to_string(i);
    EXPECT_EQ(a.cores, b.cores) << where;
    EXPECT_EQ(a.start, b.start) << where;
    EXPECT_EQ(a.finish, b.finish) << where;
  }
}

// ---------------------------------------------------------------------------
// Differential property: each optimization alone, and all combined, against
// the all-disabled reference path.
// ---------------------------------------------------------------------------

TEST(PerfKnobDifferential, EveryKnobIsBitTransparentOnAllFamilies) {
  const std::uint64_t base =
      fuzz::substream(fuzz::seed_from_env(fuzz::kDefaultFuzzSeed), 0x5EED);
  const std::vector<fuzz::GraphFamily> families = {
      fuzz::GraphFamily::Layered,       fuzz::GraphFamily::SeriesParallel,
      fuzz::GraphFamily::RandomDag,     fuzz::GraphFamily::OdeSolver,
      fuzz::GraphFamily::NpbMultiZone};

  // One knob flipped on per variant, then everything at once (cache + heap
  // + prune + 4 layer threads).
  struct Variant {
    const char* name;
    LayerSchedulerOptions opt;
  };
  std::vector<Variant> variants;
  {
    Variant v{"cache", all_off()};
    v.opt.cost_cache = true;
    variants.push_back(v);
    v = {"heap", all_off()};
    v.opt.heap_lpt = true;
    variants.push_back(v);
    v = {"prune", all_off()};
    v.opt.prune_group_search = true;
    variants.push_back(v);
    v = {"parallel", all_off()};
    v.opt.parallel_layers = 4;
    variants.push_back(v);
    v = {"all", LayerSchedulerOptions{}};
    v.opt.parallel_layers = 4;
    variants.push_back(v);
  }

  for (std::size_t f = 0; f < families.size(); ++f) {
    for (int s = 0; s < 8; ++s) {
      const std::uint64_t seed =
          fuzz::substream(base, (static_cast<std::uint64_t>(f) << 32) |
                                    static_cast<std::uint64_t>(s));
      fuzz::Rng graph_rng(seed);
      const core::TaskGraph graph = family_graph(families[f], graph_rng);
      fuzz::Rng shape_rng(fuzz::substream(seed, 0xC0DE));
      const arch::Machine m = machine(shape_rng.uniform(1, 16));
      const cost::CostModel cost(m);
      const int cores = 1 << shape_rng.uniform(1, 7);

      const LayeredSchedule reference =
          Pipeline::algorithm1(cost, all_off()).run_layered(graph, cores);
      const Schedule reference_canonical =
          Pipeline::algorithm1(cost, all_off()).run(graph, cores);
      for (const Variant& variant : variants) {
        const std::string label = std::string(to_string(families[f])) +
                                  " seed " + std::to_string(s) + " cores " +
                                  std::to_string(cores) + " [" +
                                  variant.name + "]";
        expect_identical(
            reference,
            Pipeline::algorithm1(cost, variant.opt).run_layered(graph, cores),
            label);
        expect_same_schedule(
            reference_canonical,
            Pipeline::algorithm1(cost, variant.opt).run(graph, cores), label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CachedCostModel unit behaviour.
// ---------------------------------------------------------------------------

TEST(CachedCostModelTest, IsBitTransparentAndCountsHits) {
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  core::MTask task("t", 3.7e9);
  task.add_comm({core::CollectiveKind::Allreduce, core::CommScope::Group,
                 1 << 20, 2});
  for (int pass = 0; pass < 2; ++pass) {
    for (int q : {1, 2, 3, 8, 64}) {
      for (int g : {1, 2, 4}) {
        EXPECT_EQ(plain.symbolic_task_time(task, q, g, 128),
                  cached.symbolic_task_time(task, q, g, 128))
            << "q=" << q << " g=" << g;
      }
    }
  }
  // The group-scope task is priced independently of num_groups, so the
  // first pass misses once per q and hits for the other group counts; the
  // second pass hits everywhere.
  EXPECT_EQ(cached.misses(), 5u);
  EXPECT_EQ(cached.hits(), 25u);
}

TEST(CachedCostModelTest, OrthogonalTasksKeyOnGroupCount) {
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  core::MTask task("ortho", 1.0e9);
  task.add_comm({core::CollectiveKind::Allgather, core::CommScope::Orthogonal,
                 1 << 22, 1});
  EXPECT_TRUE(cost::CachedCostModel::depends_on_num_groups(task));
  for (int g : {1, 2, 4, 8}) {
    EXPECT_EQ(plain.symbolic_task_time(task, 8, g, 64),
              cached.symbolic_task_time(task, 8, g, 64))
        << "g=" << g;
  }
  // Four distinct group counts -> four distinct entries, no stale reuse.
  EXPECT_EQ(cached.misses(), 4u);
}

TEST(CachedCostModelTest, MutationAtTheSameAddressIsNotServedStale) {
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  // The same MTask object (same address) is re-priced after mutations that
  // change its cost: the content fingerprint must force a fresh compute.
  core::MTask task("mut", 1.0e9);
  EXPECT_EQ(cached.symbolic_task_time(task, 4, 1, 16),
            plain.symbolic_task_time(task, 4, 1, 16));

  task.set_work_flop(2.5e9);
  EXPECT_EQ(cached.symbolic_task_time(task, 4, 1, 16),
            plain.symbolic_task_time(task, 4, 1, 16));

  task.set_max_cores(2);
  EXPECT_EQ(cached.symbolic_task_time(task, 4, 1, 16),
            plain.symbolic_task_time(task, 4, 1, 16));

  task.add_comm({core::CollectiveKind::Bcast, core::CommScope::Global,
                 1 << 16, 3});
  EXPECT_EQ(cached.symbolic_task_time(task, 4, 1, 16),
            plain.symbolic_task_time(task, 4, 1, 16));

  EXPECT_EQ(cached.misses(), 4u);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachedCostModelTest, NearCollisionOneUlpWeightChangeIsNotServedStale) {
  // Negative test for fingerprint near-collisions: the same task object
  // (same address, so only the content fingerprint separates the entries)
  // re-priced after the *smallest representable* weight change.  A
  // fingerprint that truncated, rounded, or only sampled the weight would
  // serve the stale time here.
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  core::MTask task("ulp", 1.0e9);
  const double first = cached.symbolic_task_time(task, 4, 1, 16);
  EXPECT_EQ(first, plain.symbolic_task_time(task, 4, 1, 16));

  task.set_work_flop(std::nextafter(1.0e9, 2.0e9));
  const double second = cached.symbolic_task_time(task, 4, 1, 16);
  EXPECT_EQ(second, plain.symbolic_task_time(task, 4, 1, 16));
  EXPECT_NE(first, second);
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachedCostModelTest, NearCollisionGraphsSameShapeOneWeightDiffers) {
  // Two structurally identical graphs -- same tasks, same collectives, same
  // edges -- where exactly one task's weight differs.  Priced through one
  // shared cache, every task of both graphs must come back bit-identical to
  // the plain model; the twin of the differing task must be a fresh miss,
  // never a hit on its near-collision sibling.
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  const auto build = [](double pivot_work) {
    core::TaskGraph graph;
    core::TaskId previous = core::kInvalidTask;
    for (int i = 0; i < 6; ++i) {
      core::MTask task("t" + std::to_string(i),
                       i == 3 ? pivot_work : 1.0e8 * (i + 1));
      task.add_comm({core::CollectiveKind::Allgather, core::CommScope::Group,
                     1u << 18, 1});
      const core::TaskId id = graph.add_task(task);
      if (i > 0) graph.add_edge(previous, id);
      previous = id;
    }
    return graph;
  };

  const core::TaskGraph a = build(5.0e8);
  const core::TaskGraph b = build(std::nextafter(5.0e8, 1.0e9));
  for (const core::TaskGraph* graph : {&a, &b}) {
    for (core::TaskId id = 0; id < graph->num_tasks(); ++id) {
      for (int q : {1, 4, 16}) {
        EXPECT_EQ(cached.symbolic_task_time(graph->task(id), q, 1, 64),
                  plain.symbolic_task_time(graph->task(id), q, 1, 64))
            << "task " << id << " q=" << q;
      }
    }
  }
  // Distinct task objects never share entries (keys carry the address), so
  // all 36 evaluations are misses -- and in particular the pivot twin was
  // not answered from its near-collision sibling's entry.
  EXPECT_EQ(cached.misses(), 36u);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachedCostModelTest, NearCollisionSwappedCollectiveFieldsStayDistinct) {
  // Field-transposition near-collisions: the same numeric values moved
  // between fields (bytes<->repeat, and a kind/scope swap).  A fingerprint
  // that summed or XOR-folded fields order-insensitively would alias these;
  // the sequential byte mix must keep them apart.
  const arch::Machine m = machine(4);
  const cost::CostModel plain(m);
  const cost::CachedCostModel cached(plain);

  core::MTask task("swap", 1.0e9);
  task.add_comm({core::CollectiveKind::Allgather, core::CommScope::Group,
                 4096, 8});
  const double first = cached.symbolic_task_time(task, 4, 1, 16);
  EXPECT_EQ(first, plain.symbolic_task_time(task, 4, 1, 16));

  // bytes=8, repeat=4096: same numbers, transposed fields, written into the
  // SAME object (assignment keeps the address, i.e. real address reuse).
  core::MTask transposed("swap", 1.0e9);
  transposed.add_comm({core::CollectiveKind::Allgather, core::CommScope::Group,
                       8, 4096});
  task = transposed;
  const double second = cached.symbolic_task_time(task, 4, 1, 16);
  EXPECT_EQ(second, plain.symbolic_task_time(task, 4, 1, 16));

  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachedCostModelTest, CachesOfDifferentMachinesStayIsolated) {
  const arch::Machine small = machine(1);
  const arch::Machine large = machine(16);
  const cost::CostModel plain_small(small);
  const cost::CostModel plain_large(large);
  const cost::CachedCostModel cached_small(plain_small);
  const cost::CachedCostModel cached_large(plain_large);

  core::MTask task("t", 2.0e9);
  task.add_comm({core::CollectiveKind::Allreduce, core::CommScope::Global,
                 1 << 24, 1});
  for (int q : {1, 4, 16}) {
    EXPECT_EQ(cached_small.symbolic_task_time(task, q, 2, 16),
              plain_small.symbolic_task_time(task, q, 2, 16));
    EXPECT_EQ(cached_large.symbolic_task_time(task, q, 2, 16),
              plain_large.symbolic_task_time(task, q, 2, 16));
  }
}

TEST(CachedCostModelTest, ClearDropsEntriesButKeepsValues) {
  const arch::Machine m = machine(2);
  const cost::CostModel plain(m);
  cost::CachedCostModel cached(plain);

  const core::MTask task("t", 1.0e9);
  const double before = cached.symbolic_task_time(task, 2, 1, 4);
  cached.clear();
  EXPECT_EQ(cached.symbolic_task_time(task, 2, 1, 4), before);
  EXPECT_EQ(cached.misses(), 2u);  // recomputed after clear()
}

// ---------------------------------------------------------------------------
// Prune accounting and observability counters.
// ---------------------------------------------------------------------------

TEST(PruneCounters, DeterministicPruneCountOnSequentialTasks) {
  // Eight sequential tasks (max_cores = 1), one dominant: once g=2 has
  // incumbent time = t(dominant), the compute-only lower bound equals the
  // incumbent for every larger g and the candidate is pruned.  Candidates
  // are g = 1..8 (P = 16, 8 tasks): g=1 and g=2 evaluate, g=3..8 prune.
  core::TaskGraph graph = independent_tasks(
      {100.0e9, 1.0e9, 1.0e9, 1.0e9, 1.0e9, 1.0e9, 1.0e9, 1.0e9});
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    graph.task(id).set_max_cores(1);
  }
  const arch::Machine m = machine(4);
  const cost::CostModel cost(m);

  obs::metrics().reset();
  const LayeredSchedule pruned =
      Pipeline::algorithm1(cost).run_layered(graph, 16);
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 2u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.pruned").value(), 6u);
  // g=2 wins (loads 100 and 7 units against the incumbent's 107), so no
  // LPT run stops early.
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 0u);

  // Same schedule as the exhaustive sweep, which never aborts.
  LayerSchedulerOptions exhaustive;
  exhaustive.prune_group_search = false;
  expect_identical(
      Pipeline::algorithm1(cost, exhaustive).run_layered(graph, 16), pruned,
      "pruned vs exhaustive");
  EXPECT_EQ(obs::metrics().counter("sched.prune.pruned").value(), 6u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 10u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 0u);
}

TEST(PruneCounters, DeterministicAbortCountOnEqualParallelTasks) {
  // Eight equal, perfectly parallel tasks on 16 cores at 1 Gflop/s: a task
  // takes 240 / q seconds, exact for every group size used.  g=1 sets the
  // incumbent 8 * 15 = 120 s.  g=2..7 pass both bounds (compute share at
  // most 80, averaged share at most 120 less the rounding allowance), and
  // each LPT run stops as soon as one group's load reaches 120 (e.g. g=4:
  // the fifth task lands on a group already holding 60).  g=8 (two cores,
  // 120 s per task) is pruned.
  core::TaskGraph graph = independent_tasks(std::vector<double>(8, 240.0e9));
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 4;
  spec.core_flops = 1.0e9;
  spec.core_efficiency = 1.0;
  const arch::Machine m(spec);
  const cost::CostModel cost(m);

  obs::metrics().reset();
  const LayeredSchedule pruned =
      Pipeline::algorithm1(cost).run_layered(graph, 16);
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 7u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 6u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.pruned").value(), 1u);
  ASSERT_EQ(pruned.layers.size(), 1u);
  EXPECT_EQ(pruned.layers[0].num_groups(), 1);
  EXPECT_EQ(pruned.layers[0].predicted_time, 120.0);

  LayerSchedulerOptions exhaustive;
  exhaustive.prune_group_search = false;
  expect_identical(
      Pipeline::algorithm1(cost, exhaustive).run_layered(graph, 16), pruned,
      "pruned vs exhaustive");
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 15u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 6u);
}

TEST(ObsCounters, PortfolioRunHitsTheSharedCostCache) {
  const std::uint64_t seed =
      fuzz::substream(fuzz::seed_from_env(fuzz::kDefaultFuzzSeed), 0xCAFE);
  fuzz::Rng rng(seed);
  const core::TaskGraph graph =
      family_graph(fuzz::GraphFamily::Layered, rng);
  const arch::Machine m = machine(4);
  const cost::CostModel cost(m);

  obs::metrics().reset();
  PortfolioOptions options;
  options.shared_cost_cache = true;  // opt-in: pays off on repetitive graphs
  const PortfolioScheduler portfolio(cost, options);
  const Schedule winner = portfolio.run(graph, 64);
  EXPECT_GT(winner.gantt.makespan, 0.0);
  EXPECT_GT(obs::metrics().counter("sched.cache.hit").value(), 0u);
  EXPECT_GT(obs::metrics().counter("sched.cache.miss").value(), 0u);
}

// ---------------------------------------------------------------------------
// Group-size helpers and scheduler edge cases (satellites).
// ---------------------------------------------------------------------------

TEST(GroupSizeHelpers, EqualSplitRejectsMoreGroupsThanCores) {
  EXPECT_THROW(equal_group_sizes(4, 8), std::invalid_argument);
  EXPECT_THROW(equal_group_sizes(4, 0), std::invalid_argument);
  EXPECT_THROW(equal_group_sizes(4, -1), std::invalid_argument);
  EXPECT_EQ(equal_group_sizes(4, 4), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(equal_group_sizes(7, 3), (std::vector<int>{3, 2, 2}));
}

TEST(GroupSizeHelpers, ProportionalSplitKeepsZeroWeightGroupsAlive) {
  // A zero-weight group still gets its guaranteed core.
  const std::vector<int> sizes = proportional_group_sizes(8, {3.0, 0.0, 1.0});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 8);
  for (int s : sizes) EXPECT_GE(s, 1);
  EXPECT_GE(sizes[0], sizes[2]);

  // All-zero weights degrade to the equal split.
  EXPECT_EQ(proportional_group_sizes(7, {0.0, 0.0, 0.0}),
            equal_group_sizes(7, 3));
}

TEST(SchedulerEdgeCases, ZeroWorkGroupsSurviveAdjustment) {
  // With a zero-work task forced into its own group, AdjustGroups prices a
  // zero-weight group: it must keep >= 1 core and the sizes still sum to P.
  core::TaskGraph graph = independent_tasks({4.0e9, 0.0});
  const arch::Machine m = machine(2);
  const cost::CostModel cost(m);
  LayerSchedulerOptions opt;
  opt.fixed_groups = 2;
  const LayeredSchedule schedule =
      Pipeline::algorithm1(cost, opt).run_layered(graph, 8);
  ASSERT_EQ(schedule.layers.size(), 1u);
  const ScheduledLayer& layer = schedule.layers[0];
  ASSERT_EQ(layer.num_groups(), 2);
  int total = 0;
  for (int s : layer.group_sizes) {
    EXPECT_GE(s, 1);
    total += s;
  }
  EXPECT_EQ(total, 8);
}

TEST(SchedulerEdgeCases, FixedGroupsClampsToTaskAndCoreCount) {
  const arch::Machine m = machine(2);
  const cost::CostModel cost(m);
  LayerSchedulerOptions opt;
  opt.fixed_groups = 10;

  // Clamped to the layer's task count...
  core::TaskGraph three = independent_tasks({1.0e9, 2.0e9, 3.0e9});
  const LayeredSchedule by_tasks =
      Pipeline::algorithm1(cost, opt).run_layered(three, 8);
  ASSERT_EQ(by_tasks.layers.size(), 1u);
  EXPECT_EQ(by_tasks.layers[0].num_groups(), 3);

  // ...and to the core budget when that is smaller than the task count.
  core::TaskGraph wide =
      independent_tasks({1.0e9, 2.0e9, 3.0e9, 4.0e9, 5.0e9});
  const LayeredSchedule by_cores =
      Pipeline::algorithm1(cost, opt).run_layered(wide, 2);
  ASSERT_EQ(by_cores.layers.size(), 1u);
  EXPECT_EQ(by_cores.layers[0].num_groups(), 2);
}

TEST(SchedulerEdgeCases, SingleTaskLayersGetOneGroupWithAllCores) {
  // A pure chain with contraction disabled: every layer holds one task, so
  // the only candidate is g=1 and the task gets the whole budget.
  core::TaskGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.add_task(core::MTask("c" + std::to_string(i), 1.0e9));
  }
  for (core::TaskId i = 0; i + 1 < 4; ++i) graph.add_edge(i, i + 1);
  const arch::Machine m = machine(2);
  const cost::CostModel cost(m);
  LayerSchedulerOptions opt;
  opt.contract_chains = false;
  const LayeredSchedule schedule =
      Pipeline::algorithm1(cost, opt).run_layered(graph, 16);
  ASSERT_EQ(schedule.layers.size(), 4u);
  for (const ScheduledLayer& layer : schedule.layers) {
    EXPECT_EQ(layer.group_sizes, (std::vector<int>{16}));
    EXPECT_EQ(layer.task_group, (std::vector<int>{0}));
  }
}

TEST(SchedulerEdgeCases, ParallelLayersBeyondLayerCountIsHarmless) {
  core::TaskGraph graph = independent_tasks({1.0e9, 2.0e9, 3.0e9});
  const arch::Machine m = machine(2);
  const cost::CostModel cost(m);
  LayerSchedulerOptions opt;
  opt.parallel_layers = 64;  // one layer; workers clamp to the layer count
  expect_identical(Pipeline::algorithm1(cost, all_off()).run_layered(graph, 8),
                   Pipeline::algorithm1(cost, opt).run_layered(graph, 8),
                   "parallel_layers > n_layers");
}

}  // namespace
}  // namespace ptask::sched
