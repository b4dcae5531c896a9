// Property-based tests: randomized task graphs, distributions, and
// collective patterns checked against structural invariants, with a
// deterministic seeded generator so failures reproduce.
//
// Seeds are fixed by default; setting PTASK_FUZZ_SEED mixes an override into
// every parameterized seed (XOR, so behaviour with the variable unset is
// bit-identical to not having the override at all).  Every test announces
// its effective seed via SCOPED_TRACE, so a failure log always carries the
// numbers needed to reproduce it.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "ptask/core/graph_algorithms.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/dist/redistribution.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/net/collectives.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask {
namespace {

// Shared deterministic PRNG (SplitMix64, identical across platforms).
using Rng = fuzz::Rng;

/// Random DAG: forward edges only, random works, some comm ops.
core::TaskGraph random_graph(Rng& rng, int n_tasks) {
  core::TaskGraph g;
  for (int i = 0; i < n_tasks; ++i) {
    core::MTask t("t" + std::to_string(i),
                  rng.uniform_real(1e7, 5e9));
    if (rng.chance(0.5)) {
      t.add_comm(core::CollectiveOp{
          core::CollectiveKind::Allgather,
          rng.chance(0.3) ? core::CommScope::Orthogonal
                          : core::CommScope::Group,
          static_cast<std::size_t>(rng.uniform(1, 64)) * 1024,
          rng.uniform(1, 4)});
    }
    if (rng.chance(0.2)) t.set_max_cores(rng.uniform(1, 64));
    g.add_task(std::move(t));
  }
  for (int to = 1; to < n_tasks; ++to) {
    const int edges = rng.uniform(0, std::min(3, to));
    for (int e = 0; e < edges; ++e) {
      const int from = rng.uniform(0, to - 1);
      if (!g.has_edge(from, to)) g.add_edge(from, to);
    }
  }
  return g;
}

arch::Machine machine(int nodes = 16) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Effective seed for this test instance: the suite parameter, the
  /// optional PTASK_FUZZ_SEED override, and a per-test stream constant (so
  /// sibling tests on the same parameter see unrelated randomness).
  std::uint64_t seed(std::uint64_t stream = 0) const {
    return GetParam() ^ fuzz::seed_from_env(0) ^ stream;
  }

  /// Reproduction breadcrumb attached to every failure in scope.
  ::testing::Message trace(std::uint64_t effective) const {
    return ::testing::Message()
           << "rng seed " << effective << " (param " << GetParam()
           << ", PTASK_FUZZ_SEED override " << fuzz::seed_from_env(0) << ")";
  }
};

TEST_P(RandomGraphTest, AllSchedulersProduceValidSchedules) {
  SCOPED_TRACE(trace(seed()));
  Rng rng(seed());
  const int n_tasks = rng.uniform(3, 40);
  const core::TaskGraph g = random_graph(rng, n_tasks);
  const int cores = 4 * rng.uniform(1, 16);
  const arch::Machine m = machine();
  const cost::CostModel cm(m);

  const sched::LayeredSchedule layered =
      sched::Pipeline::algorithm1(cm).run(g, cores).layered;
  const sched::ValidationReport lr = sched::validate(layered, g);
  EXPECT_TRUE(lr.ok()) << lr.errors.front();
  EXPECT_GT(layered.predicted_makespan, 0.0);

  const sched::MoldableResult cpa = sched::CpaScheduler(cm).schedule(g, cores);
  EXPECT_TRUE(sched::validate(cpa.schedule, g).ok());
  const sched::MoldableResult mcpa =
      sched::McpaScheduler(cm).schedule(g, cores);
  EXPECT_TRUE(sched::validate(mcpa.schedule, g).ok());
  const sched::MoldableResult cpr = sched::CprScheduler(cm).schedule(g, cores);
  EXPECT_TRUE(sched::validate(cpr.schedule, g).ok());
}

TEST_P(RandomGraphTest, MappingsAreAlwaysDisjointPermutationSlices) {
  SCOPED_TRACE(trace(seed(0x9E3779B97F4A7C15ull)));
  Rng rng(seed(0x9E3779B97F4A7C15ull));
  const core::TaskGraph g = random_graph(rng, rng.uniform(3, 25));
  const int cores = 4 * rng.uniform(1, 16);
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, cores).layered;
  for (map::Strategy strategy :
       {map::Strategy::Consecutive, map::Strategy::Scattered,
        map::Strategy::Mixed}) {
    const std::vector<cost::LayerLayout> layouts =
        map::map_schedule(s, m, strategy, 2);
    for (const cost::LayerLayout& layout : layouts) {
      std::set<int> seen;
      for (const cost::GroupLayout& group : layout.groups) {
        for (int core : group.cores) {
          EXPECT_TRUE(seen.insert(core).second) << "core mapped twice";
          EXPECT_GE(core, 0);
          EXPECT_LT(core, m.total_cores());
        }
      }
      EXPECT_EQ(static_cast<int>(seen.size()), cores);
    }
  }
}

TEST_P(RandomGraphTest, ChainContractionPreservesWorkAndReachability) {
  SCOPED_TRACE(trace(seed(0xD1B54A32D192ED03ull)));
  Rng rng(seed(0xD1B54A32D192ED03ull));
  const core::TaskGraph g = random_graph(rng, rng.uniform(4, 60));
  const core::ChainContraction cc = core::contract_linear_chains(g);
  EXPECT_NEAR(cc.contracted.total_work_flop(), g.total_work_flop(),
              g.total_work_flop() * 1e-12);
  // Every original task is covered exactly once.
  std::vector<int> covered(static_cast<std::size_t>(g.num_tasks()), 0);
  for (const std::vector<core::TaskId>& members : cc.members) {
    for (core::TaskId id : members) covered[static_cast<std::size_t>(id)]++;
  }
  for (int c : covered) EXPECT_EQ(c, 1);
  // Reachability between chain representatives is preserved.
  for (core::TaskId a = 0; a < g.num_tasks(); ++a) {
    for (core::TaskId b = 0; b < g.num_tasks(); ++b) {
      const core::TaskId ca = cc.representative[static_cast<std::size_t>(a)];
      const core::TaskId cb = cc.representative[static_cast<std::size_t>(b)];
      if (ca == cb) continue;
      EXPECT_EQ(g.reaches(a, b), cc.contracted.reaches(ca, cb))
          << "tasks " << a << " -> " << b;
    }
  }
}

TEST_P(RandomGraphTest, LayeringIsAPartitionIntoAntichains) {
  SCOPED_TRACE(trace(seed(0xA0761D6478BD642Full)));
  Rng rng(seed(0xA0761D6478BD642Full));
  const core::TaskGraph g = random_graph(rng, rng.uniform(4, 60));
  std::set<core::TaskId> seen;
  for (const std::vector<core::TaskId>& layer : core::greedy_layers(g)) {
    for (std::size_t i = 0; i < layer.size(); ++i) {
      EXPECT_TRUE(seen.insert(layer[i]).second);
      for (std::size_t j = i + 1; j < layer.size(); ++j) {
        EXPECT_TRUE(g.independent(layer[i], layer[j]));
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.num_tasks());
}

TEST_P(RandomGraphTest, RedistributionConservesVolume) {
  SCOPED_TRACE(trace(seed(0xE7037ED1A0B428DBull)));
  Rng rng(seed(0xE7037ED1A0B428DBull));
  const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 5000));
  const std::size_t q1 = static_cast<std::size_t>(rng.uniform(1, 24));
  const std::size_t q2 = static_cast<std::size_t>(rng.uniform(1, 24));
  auto pick = [&](Rng& r) {
    switch (r.uniform(0, 2)) {
      case 0:
        return dist::Distribution::block();
      case 1:
        return dist::Distribution::cyclic();
      default:
        return dist::Distribution::block_cyclic(
            static_cast<std::size_t>(r.uniform(1, 9)));
    }
  };
  const dist::Distribution src = pick(rng);
  const dist::Distribution dst = pick(rng);
  const dist::RedistributionPlan plan = dist::RedistributionPlan::compute(
      n, 8, src, q1, dst, q2, /*same_groups=*/false);
  // With disjoint groups, every element moves exactly once: total volume is
  // n elements.
  EXPECT_EQ(plan.total_bytes(), n * 8);
  // Per-destination volume equals the destination's local counts.
  std::vector<std::size_t> per_dst(q2, 0);
  for (const dist::Transfer& t : plan.transfers()) {
    ASSERT_LT(t.src_rank, q1);
    ASSERT_LT(t.dst_rank, q2);
    per_dst[t.dst_rank] += t.bytes;
  }
  for (std::size_t r = 0; r < q2; ++r) {
    EXPECT_EQ(per_dst[r], dst.local_count(r, n, q2) * 8);
  }
}

TEST_P(RandomGraphTest, CollectivesDeliverToEveryRank) {
  SCOPED_TRACE(trace(seed(0x589965CC75374CC3ull)));
  Rng rng(seed(0x589965CC75374CC3ull));
  const int ranks = rng.uniform(2, 40);
  // Bcast coverage: simulate holder propagation.
  {
    const int root = rng.uniform(0, ranks - 1);
    std::set<int> holders{root};
    for (const net::Round& round : net::binomial_bcast(ranks, root, 8)) {
      std::set<int> arrived;
      for (const net::Message& m : round.messages) {
        EXPECT_TRUE(holders.count(m.src));
        arrived.insert(m.dst);
      }
      holders.insert(arrived.begin(), arrived.end());
    }
    EXPECT_EQ(static_cast<int>(holders.size()), ranks);
  }
  // Allgather coverage: every rank must receive n-1 distinct blocks (track
  // block sets through the ring).
  {
    std::vector<std::set<int>> blocks(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) blocks[static_cast<std::size_t>(r)] = {r};
    for (const net::Round& round : net::ring_allgather(ranks, 8)) {
      std::vector<std::set<int>> next = blocks;
      for (const net::Message& m : round.messages) {
        next[static_cast<std::size_t>(m.dst)].insert(
            blocks[static_cast<std::size_t>(m.src)].begin(),
            blocks[static_cast<std::size_t>(m.src)].end());
      }
      blocks = std::move(next);
    }
    for (const std::set<int>& b : blocks) {
      EXPECT_EQ(static_cast<int>(b.size()), ranks);
    }
  }
}

TEST_P(RandomGraphTest, SimulatedMakespanBoundsHold) {
  SCOPED_TRACE(trace(seed(0x1D8E4E27C47D124Full)));
  Rng rng(seed(0x1D8E4E27C47D124Full));
  const core::TaskGraph g = random_graph(rng, rng.uniform(3, 15));
  const int cores = 4 * rng.uniform(1, 8);
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, cores).layered;
  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(s, m, map::Strategy::Consecutive);
  const sched::TimelineEvaluator eval(cm);
  const sim::SimResult sim = eval.simulate(s, layouts);
  // Work conservation: the simulated makespan is at least the total compute
  // divided by the core count (no simulator can beat perfect speedup) ...
  const double lower =
      g.total_work_flop() / (cm.machine().spec().sustained_flops() * cores);
  EXPECT_GE(sim.makespan * (1.0 + 1e-9), lower);
  // ... and within a generous multiple of the analytic estimate.
  const double analytic = eval.evaluate(s, layouts).makespan;
  EXPECT_LT(sim.makespan, analytic * 10.0 + 1e-6);
  EXPECT_TRUE(std::isfinite(sim.makespan));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

TEST(RepeatGraph, ChainsStepCopiesWithStateEdges) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 10;
  spec.stages = 3;
  const core::TaskGraph step = spec.step_graph();  // 6 steps + combine
  const core::TaskGraph program = core::repeat_graph(step, 3);
  EXPECT_EQ(program.num_tasks(), 3 * step.num_tasks());
  // Copy 0's combine feeds every source of copy 1.
  core::TaskId combine0 = core::kInvalidTask, step11_1 = core::kInvalidTask;
  for (core::TaskId id = 0; id < program.num_tasks(); ++id) {
    if (program.task(id).name() == "combine#0") combine0 = id;
    if (program.task(id).name() == "step(1,1)#1") step11_1 = id;
  }
  ASSERT_NE(combine0, core::kInvalidTask);
  ASSERT_NE(step11_1, core::kInvalidTask);
  EXPECT_TRUE(program.has_edge(combine0, step11_1));
  // A three-step program is schedulable and valid.
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(program, 16).layered;
  EXPECT_TRUE(sched::validate(s, program).ok());
  // Layer count: 2 per step (chains + combine).
  EXPECT_EQ(s.layers.size(), 6u);
}

TEST(RepeatGraph, SingleRepetitionIsACopy) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PAB;
  spec.n = 1 << 10;
  spec.stages = 4;
  const core::TaskGraph step = spec.step_graph();
  const core::TaskGraph program = core::repeat_graph(step, 1);
  EXPECT_EQ(program.num_tasks(), step.num_tasks());  // no markers in PAB graph
  EXPECT_THROW(core::repeat_graph(step, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ptask
