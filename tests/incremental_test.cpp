// Tests for the incremental scheduling core: the re-entrant pass pipeline
// (PassContext memo reuse), the IncrementalScheduler session API
// (reset/extend over online graph deltas), and the differential oracle --
// an incrementally repaired schedule must be *byte-identical* under
// serve::serialize_schedule to a full re-schedule of the accumulated graph,
// and every spliced schedule must certify like a monolithic one.
//
// Reproduction: the randomized sweeps derive all instances from the base
// seed; re-run with PTASK_FUZZ_SEED=<seed> PTASK_FUZZ_INSTANCES=1 to
// regenerate a failing stream first.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ptask/analysis/certifier.hpp"
#include "ptask/analysis/diagnostics.hpp"
#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/protocol.hpp"

namespace ptask::sched {
namespace {

std::uint64_t base_seed() { return fuzz::seed_from_env(fuzz::kDefaultFuzzSeed); }

int instance_count() {
  if (const char* env = std::getenv("PTASK_FUZZ_INSTANCES");
      env != nullptr && *env != '\0') {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<int>(value);
  }
  return 40;
}

arch::Machine test_machine() {
  arch::MachineSpec spec = arch::machine_by_name("chic");
  spec.num_nodes = 4;
  return arch::Machine(spec);
}

core::MTask work_task(const std::string& name, double flop) {
  return core::MTask(name, flop);
}

/// A two-diamond layered graph: 0 -> {1,2} -> 3 -> {4,5} -> 6.
core::TaskGraph diamond_chain() {
  core::TaskGraph g;
  for (int i = 0; i < 7; ++i) {
    g.add_task(work_task("t" + std::to_string(i), 1.0e8 * (i + 1)));
  }
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 6);
  g.add_edge(5, 6);
  return g;
}

GraphDelta tail_delta(double release, core::TaskId attach_to,
                      core::TaskId next_id) {
  GraphDelta delta;
  delta.release_time = release;
  for (int i = 0; i < 2; ++i) {
    ArrivingTask arriving;
    arriving.task = work_task("a" + std::to_string(i), 3.0e8);
    arriving.release_time = release + 0.1 * i;
    arriving.priority = i;
    delta.tasks.push_back(std::move(arriving));
  }
  delta.edges = {{attach_to, next_id}, {attach_to, next_id + 1}};
  return delta;
}

// ---------------------------------------------------------------------------
// Handmade deltas: local repair, splice annotation, error paths.
// ---------------------------------------------------------------------------

TEST(IncrementalScheduler, ExtendMatchesFullRescheduleOnHandmadeGraph) {
  const arch::Machine machine = test_machine();
  const cost::CostModel cost(machine);
  IncrementalScheduler inc(cost);
  inc.reset(diamond_chain(), 32);

  // Hang two new tasks off the sink: only the tail of the schedule can
  // change, so the repair must reuse a settled prefix.
  const Schedule& spliced = inc.extend(tail_delta(1.0, 6, 7));
  const Schedule full = inc.run(inc.graph(), 32);
  EXPECT_EQ(serve::serialize_schedule(spliced),
            serve::serialize_schedule(full));

  const RepairStats& stats = inc.last_stats();
  EXPECT_EQ(stats.total_layers, spliced.num_layers());
  EXPECT_EQ(stats.layers_reused + stats.layers_scheduled, stats.total_layers);
  EXPECT_GT(stats.layers_reused, 0u) << "tail delta must not rebuild the head";
  EXPECT_GT(stats.settled_prefix, 0u);
  EXPECT_EQ(stats.delta_tasks, 2u);
  EXPECT_EQ(stats.delta_edges, 2u);
  EXPECT_EQ(spliced.settled_prefix_layers, stats.settled_prefix);
  // The full re-schedule agrees with the spliced one on at least the prefix.
  EXPECT_GE(common_layer_prefix(spliced, full), stats.settled_prefix);
  // A one-shot run is offline: no splice annotation.
  EXPECT_EQ(full.settled_prefix_layers, 0u);
}

TEST(IncrementalScheduler, NoOpExtendIsBitIdenticalAndReusesEveryLayer) {
  const arch::Machine machine = test_machine();
  const cost::CostModel cost(machine);
  IncrementalScheduler inc(cost);
  inc.reset(diamond_chain(), 32);
  const std::string before = serve::serialize_schedule(inc.current());
  const std::size_t layers = inc.current().num_layers();

  GraphDelta empty;
  empty.release_time = 5.0;
  const Schedule& after = inc.extend(empty);
  EXPECT_EQ(serve::serialize_schedule(after), before);
  EXPECT_EQ(inc.last_stats().layers_reused, layers);
  EXPECT_EQ(inc.last_stats().layers_scheduled, 0u);
  EXPECT_EQ(inc.last_stats().settled_prefix, layers);
  EXPECT_EQ(after.settled_prefix_layers, layers);
}

TEST(IncrementalScheduler, InvalidDeltasThrowAndLeaveTheSessionUntouched) {
  const arch::Machine machine = test_machine();
  const cost::CostModel cost(machine);
  IncrementalScheduler inc(cost);

  GraphDelta premature;
  EXPECT_THROW(inc.extend(premature), DeltaError);

  inc.reset(diamond_chain(), 32, /*release_time=*/2.0);
  const std::string before = serve::serialize_schedule(inc.current());
  const int tasks_before = inc.graph().num_tasks();

  const auto expect_rejected = [&](const GraphDelta& delta) {
    EXPECT_THROW(inc.extend(delta), DeltaError);
    EXPECT_EQ(serve::serialize_schedule(inc.current()), before)
        << "a rejected delta must not perturb the settled schedule";
    EXPECT_EQ(inc.graph().num_tasks(), tasks_before)
        << "a rejected delta must not grow the accumulated graph";
  };

  {  // Edge endpoint beyond the accumulated graph + this batch.
    GraphDelta delta;
    delta.release_time = 3.0;
    delta.edges = {{0, 99}};
    expect_rejected(delta);
  }
  {  // Self edge.
    GraphDelta delta;
    delta.release_time = 3.0;
    delta.edges = {{4, 4}};
    expect_rejected(delta);
  }
  {  // A cycle inside the batch.
    GraphDelta delta;
    delta.release_time = 3.0;
    ArrivingTask a;
    a.task = work_task("x0", 1.0e8);
    a.release_time = 3.0;
    ArrivingTask b;
    b.task = work_task("x1", 1.0e8);
    b.release_time = 3.0;
    delta.tasks.push_back(std::move(a));
    delta.tasks.push_back(std::move(b));
    delta.edges = {{7, 8}, {8, 7}};
    expect_rejected(delta);
  }
  {  // Batch release behind the last accepted batch.
    GraphDelta delta;
    delta.release_time = 1.0;
    expect_rejected(delta);
  }
  {  // Task released before its batch.
    GraphDelta delta;
    delta.release_time = 4.0;
    ArrivingTask early;
    early.task = work_task("early", 1.0e8);
    early.release_time = 3.5;
    delta.tasks.push_back(std::move(early));
    expect_rejected(delta);
  }

  // The session still works after every rejection.
  const Schedule& spliced = inc.extend(tail_delta(6.0, 6, 7));
  EXPECT_EQ(serve::serialize_schedule(spliced),
            serve::serialize_schedule(inc.run(inc.graph(), 32)));
}

TEST(IncrementalScheduler, DescribeReportsTaskCountsAndSpliceBoundary) {
  const arch::Machine machine = test_machine();
  const cost::CostModel cost(machine);
  IncrementalScheduler inc(cost);
  inc.reset(diamond_chain(), 32);
  inc.extend(tail_delta(1.0, 6, 7));
  ASSERT_GT(inc.last_stats().settled_prefix, 0u);

  const std::string text = describe(inc.current());
  EXPECT_NE(text.find("task(s)"), std::string::npos)
      << "describe must report per-layer task counts:\n"
      << text;
  EXPECT_NE(text.find("settled prefix"), std::string::npos) << text;
  EXPECT_NE(text.find("settled prefix ends; repaired suffix below"),
            std::string::npos)
      << text;
}

TEST(IncrementalScheduler, OneShotRunMatchesTheLayerStrategyModuloName) {
  const std::uint64_t base = fuzz::substream(base_seed(), 0x1AC5);
  for (int i = 0; i < 8; ++i) {
    const fuzz::Instance instance =
        fuzz::random_instance(fuzz::substream(base, static_cast<std::uint64_t>(i)));
    const arch::Machine machine(instance.machine);
    const cost::CostModel cost(machine);
    SchedulerRegistry& registry = SchedulerRegistry::instance();
    Schedule incremental = registry.make("incremental", cost)->run(
        instance.graph, instance.total_cores);
    const Schedule layer =
        registry.make("layer", cost)->run(instance.graph, instance.total_cores);
    EXPECT_EQ(incremental.strategy, "incremental");
    EXPECT_EQ(layer.strategy, "layer");
    // Same bytes once the only intended difference -- the stamped strategy
    // name -- is aligned.
    incremental.strategy = "layer";
    EXPECT_EQ(serve::serialize_schedule(incremental),
              serve::serialize_schedule(layer))
        << "instance " << i << " (seed " << instance.seed << ", "
        << instance.name << ")";
  }
}

// ---------------------------------------------------------------------------
// Re-entrant memo: an empty delta replays every settled layer.
// ---------------------------------------------------------------------------

TEST(PassContextReuse, RerunWithoutDeltaIsANoOpAcrossFamiliesAndSeeds) {
  const arch::Machine machine = test_machine();
  const cost::CostModel cost(machine);
  const std::uint64_t base = fuzz::substream(base_seed(), 0x9E05);
  constexpr int kSeedsPerFamily = 8;

  for (int family = 0; family < 5; ++family) {
    for (int s = 0; s < kSeedsPerFamily; ++s) {
      fuzz::Rng rng(fuzz::substream(
          base, static_cast<std::uint64_t>(family * 100 + s)));
      fuzz::GeneratorParams params;
      core::TaskGraph graph;
      switch (static_cast<fuzz::GraphFamily>(family)) {
        case fuzz::GraphFamily::Layered:
          graph = fuzz::layered_graph(rng, params);
          break;
        case fuzz::GraphFamily::SeriesParallel:
          graph = fuzz::series_parallel_graph(rng, params);
          break;
        case fuzz::GraphFamily::RandomDag:
          graph = fuzz::random_dag(rng, params);
          break;
        case fuzz::GraphFamily::OdeSolver:
          graph = fuzz::ode_solver_graph(rng);
          break;
        case fuzz::GraphFamily::NpbMultiZone:
          graph = fuzz::npb_multizone_graph(rng);
          break;
      }
      IncrementalScheduler inc(cost);
      const Schedule first = inc.reset(graph, 64);
      EXPECT_EQ(inc.last_stats().layers_reused, 0u)
          << "first run has nothing to reuse";
      const Schedule& second = inc.extend(GraphDelta{});
      EXPECT_EQ(serve::serialize_schedule(second),
                serve::serialize_schedule(first))
          << fuzz::to_string(static_cast<fuzz::GraphFamily>(family))
          << " seed index " << s;
      EXPECT_EQ(inc.last_stats().layers_scheduled, 0u)
          << "an empty delta must not re-schedule layers";
      EXPECT_EQ(inc.last_stats().layers_reused, second.num_layers());
      EXPECT_EQ(inc.last_stats().settled_prefix, second.num_layers());
    }
  }
}

// ---------------------------------------------------------------------------
// Differential oracle over fuzz arrival streams.
// ---------------------------------------------------------------------------

TEST(IncrementalOracle, ArrivalStreamsAreBitIdenticalToFullReschedule) {
  const std::uint64_t base = fuzz::substream(base_seed(), 0x10CA);
  const int count = instance_count();
  std::cerr << "[fuzz] incremental oracle: base seed " << base_seed() << " ("
            << count << " streams; override with PTASK_FUZZ_SEED / "
               "PTASK_FUZZ_INSTANCES)\n";
  int extends = 0;
  int reused_layers = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = fuzz::substream(base,
                                               static_cast<std::uint64_t>(i));
    const int batches = 2 + i % 4;  // 2..5 timed batches
    const fuzz::ArrivalStream stream = fuzz::arrival_stream(seed, batches);
    SCOPED_TRACE("stream " + std::to_string(i) + " (seed " +
                 std::to_string(stream.instance.seed) + ", " +
                 stream.instance.name + "); reproduce with PTASK_FUZZ_SEED=" +
                 std::to_string(base_seed()));
    const arch::Machine machine(stream.instance.machine);
    const cost::CostModel cost(machine);
    const int cores = stream.instance.total_cores;

    // Accumulating the stream must reproduce the instance's graph exactly.
    ASSERT_EQ(fuzz::materialize(stream).num_tasks(),
              stream.instance.graph.num_tasks());

    IncrementalScheduler inc(cost);
    inc.reset(stream.initial, cores, stream.initial_release);
    for (const GraphDelta& delta : stream.deltas) {
      inc.extend(delta);
      ++extends;
      reused_layers += static_cast<int>(inc.last_stats().layers_reused);
    }
    ASSERT_EQ(inc.graph().num_tasks(), stream.instance.graph.num_tasks());

    // Oracle 1: bit-identity against a one-shot schedule of the accumulated
    // graph (same strategy, so the serialized strategy name matches too).
    const Schedule full = inc.run(stream.instance.graph, cores);
    EXPECT_EQ(serve::serialize_schedule(inc.current()),
              serve::serialize_schedule(full));

    // Oracle 2: the spliced schedule certifies like a monolithic one.
    const analysis::Certificate cert =
        analysis::certify(stream.instance.graph, inc.current());
    EXPECT_TRUE(cert.ok()) << analysis::render_text(cert.report);
    EXPECT_EQ(cert.report.error_count(), 0);
  }
  EXPECT_GE(extends, count) << "every stream must replay at least one delta";
  EXPECT_GT(reused_layers, 0)
      << "the sweep must exercise actual layer reuse, not just full re-runs";
}

}  // namespace
}  // namespace ptask::sched
