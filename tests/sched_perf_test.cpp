// Tests for the scheduler hot path (per-layer time rows, heap-based LPT,
// pruned group search, parallel per-layer assignment).  The load-bearing
// property is the bit-identity contract: serial and parallel layer
// scheduling must reproduce the monolith reference
// (reference_layer_scheduler.hpp) byte for byte on all five fuzz graph
// families.  Alongside the differential property: deterministic prune
// accounting and group-size helper edge cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/sched/pipeline.hpp"
#include "reference_layer_scheduler.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 8) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
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
// Differential property: the serial and the parallel pipeline against the
// monolith reference.
// ---------------------------------------------------------------------------

TEST(PerfKnobDifferential, EveryKnobIsBitTransparentOnAllFamilies) {
  const std::uint64_t base =
      fuzz::substream(fuzz::seed_from_env(fuzz::kDefaultFuzzSeed), 0x5EED);
  const std::vector<fuzz::GraphFamily> families = {
      fuzz::GraphFamily::Layered,       fuzz::GraphFamily::SeriesParallel,
      fuzz::GraphFamily::RandomDag,     fuzz::GraphFamily::OdeSolver,
      fuzz::GraphFamily::NpbMultiZone};

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
          ReferenceLayerScheduler(cost).schedule(graph, cores);
      const Schedule reference_canonical =
          canonical(reference, cost, "layer");
      // The default (serial) pipeline, then 4 layer threads.
      for (const int threads : {1, 4}) {
        LayerSchedulerOptions opt;
        opt.parallel_layers = threads;
        const std::string label = std::string(to_string(families[f])) +
                                  " seed " + std::to_string(s) + " cores " +
                                  std::to_string(cores) + " [" +
                                  std::to_string(threads) + " threads]";
        expect_identical(
            reference,
            Pipeline::algorithm1(cost, opt).run(graph, cores).layered, label);
        expect_same_schedule(reference_canonical,
                             Pipeline::algorithm1(cost, opt).run(graph, cores),
                             label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prune accounting.
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
      Pipeline::algorithm1(cost).run(graph, 16).layered;
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 2u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.pruned").value(), 6u);
  // g=2 wins (loads 100 and 7 units against the incumbent's 107), so no
  // LPT run stops early.
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 0u);

  // Same schedule as the exhaustive sweep of the monolith reference.
  expect_identical(ReferenceLayerScheduler(cost).schedule(graph, 16), pruned,
                   "pruned vs exhaustive");
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
      Pipeline::algorithm1(cost).run(graph, 16).layered;
  EXPECT_EQ(obs::metrics().counter("sched.prune.evaluated").value(), 7u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.aborted").value(), 6u);
  EXPECT_EQ(obs::metrics().counter("sched.prune.pruned").value(), 1u);
  ASSERT_EQ(pruned.layers.size(), 1u);
  EXPECT_EQ(pruned.layers[0].num_groups(), 1);
  EXPECT_EQ(pruned.layers[0].predicted_time, 120.0);

  expect_identical(ReferenceLayerScheduler(cost).schedule(graph, 16), pruned,
                   "pruned vs exhaustive");
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
      Pipeline::algorithm1(cost, opt).run(graph, 8).layered;
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
      Pipeline::algorithm1(cost, opt).run(three, 8).layered;
  ASSERT_EQ(by_tasks.layers.size(), 1u);
  EXPECT_EQ(by_tasks.layers[0].num_groups(), 3);

  // ...and to the core budget when that is smaller than the task count.
  core::TaskGraph wide =
      independent_tasks({1.0e9, 2.0e9, 3.0e9, 4.0e9, 5.0e9});
  const LayeredSchedule by_cores =
      Pipeline::algorithm1(cost, opt).run(wide, 2).layered;
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
      Pipeline::algorithm1(cost, opt).run(graph, 16).layered;
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
  expect_identical(ReferenceLayerScheduler(cost).schedule(graph, 8),
                   Pipeline::algorithm1(cost, opt).run(graph, 8).layered,
                   "parallel_layers > n_layers");
}

}  // namespace
}  // namespace ptask::sched
