// Tests for the cost model T(M, q, mp) and the hybrid MPI+OpenMP variant.

#include <gtest/gtest.h>

#include <numeric>

#include "ptask/cost/cost_model.hpp"
#include "ptask/cost/hybrid_model.hpp"
#include "ptask/map/core_sequence.hpp"
#include "ptask/map/mapping.hpp"

namespace ptask::cost {
namespace {

arch::Machine machine(int nodes = 16) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

core::MTask compute_task(double flop) { return core::MTask("comp", flop); }

core::MTask allgather_task(std::size_t bytes, int repeat = 1,
                           core::CommScope scope = core::CommScope::Group) {
  core::MTask t("ag", 0.0);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather, scope, bytes,
                                repeat});
  return t;
}

TEST(CostModel, ComputeScalesLinearlyWithCores) {
  const CostModel cm(machine());
  const core::MTask t = compute_task(1.0e9);
  const double t1 = cm.symbolic_compute_time(t, 1);
  const double t4 = cm.symbolic_compute_time(t, 4);
  EXPECT_NEAR(t1 / 4.0, t4, 1e-12);
}

TEST(CostModel, ComputeRespectsMaxCores) {
  const CostModel cm(machine());
  core::MTask t = compute_task(1.0e9);
  t.set_max_cores(8);
  EXPECT_DOUBLE_EQ(cm.symbolic_compute_time(t, 8),
                   cm.symbolic_compute_time(t, 64));
}

TEST(CostModel, SymbolicTimeIsAmdahlShaped) {
  // With communication, adding cores eventually stops helping: the
  // group allgather cost grows with q.
  const CostModel cm(machine());
  core::MTask t = compute_task(1.0e8);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 64 * 1024, 1000});
  double prev = cm.symbolic_task_time(t, 1, 1, 64);
  double best = prev;
  int best_q = 1;
  for (int q = 2; q <= 64; q *= 2) {
    const double cur = cm.symbolic_task_time(t, q, 1, 64);
    if (cur < best) {
      best = cur;
      best_q = q;
    }
  }
  EXPECT_GT(best_q, 1);   // parallelism helps ...
  EXPECT_LT(best_q, 64);  // ... but not indefinitely (latency term)
}

TEST(CostModel, SymbolicIsUpperBoundOfMapped) {
  // The default mapping pattern prices everything on the slowest network, so
  // for any real consecutive layout of the same group the mapped collective
  // time must not exceed the symbolic one (same algorithm, faster links).
  const arch::Machine m = machine();
  const CostModel cm(m);
  const core::MTask t = allgather_task(1 << 20);
  const int q = 16;
  LayerLayout layout;
  GroupLayout g;
  g.cores.resize(static_cast<std::size_t>(q));
  std::iota(g.cores.begin(), g.cores.end(), 0);
  layout.groups.push_back(g);
  const double mapped = cm.mapped_task_time(t, layout, 0);
  const double symbolic = cm.symbolic_task_time(t, q, 1, q);
  EXPECT_LE(mapped, symbolic * 1.0001);
}

TEST(CostModel, GlobalScopeUsesAllCores) {
  const CostModel cm(machine());
  const core::MTask global = allgather_task(1 << 20, 1, core::CommScope::Global);
  const core::MTask group = allgather_task(1 << 20, 1, core::CommScope::Group);
  // Same q, but global ops see total_cores = 64: more ring rounds.
  const double tg = cm.symbolic_comm_time(global, 8, 1, 64);
  const double tq = cm.symbolic_comm_time(group, 8, 1, 64);
  EXPECT_GT(tg, tq);
}

TEST(CostModel, OrthogonalScopeVanishesWithOneGroup) {
  const CostModel cm(machine());
  const core::MTask t =
      allgather_task(1 << 20, 1, core::CommScope::Orthogonal);
  EXPECT_DOUBLE_EQ(cm.symbolic_comm_time(t, 16, 1, 16), 0.0);
  EXPECT_GT(cm.symbolic_comm_time(t, 16, 4, 64), 0.0);
}

TEST(CostModel, OnlyOrthogonalCollectivesDependOnGroupCount) {
  // The layer search shares one time row per group size among every task
  // this predicate clears, so their times must not move with num_groups.
  const CostModel cm(machine());
  for (const core::MTask& task :
       {compute_task(1.0e9), allgather_task(1 << 20),
        allgather_task(1 << 20, 1, core::CommScope::Global)}) {
    EXPECT_FALSE(CostModel::depends_on_num_groups(task));
    for (const int g : {2, 4, 8}) {
      EXPECT_EQ(cm.symbolic_task_time(task, 8, g, 64),
                cm.symbolic_task_time(task, 8, 1, 64))
          << "g=" << g;
    }
  }
  const core::MTask ortho =
      allgather_task(1 << 20, 1, core::CommScope::Orthogonal);
  EXPECT_TRUE(CostModel::depends_on_num_groups(ortho));
  EXPECT_NE(cm.symbolic_task_time(ortho, 8, 2, 64),
            cm.symbolic_task_time(ortho, 8, 8, 64));
}

TEST(CostModel, RepeatMultipliesCost) {
  const CostModel cm(machine());
  const core::MTask once = allgather_task(1 << 16, 1);
  const core::MTask thrice = allgather_task(1 << 16, 3);
  EXPECT_NEAR(3.0 * cm.symbolic_comm_time(once, 8, 1, 8),
              cm.symbolic_comm_time(thrice, 8, 1, 8), 1e-12);
}

TEST(CostModel, MappedGroupCollectivePrefersConsecutive) {
  // Fig. 14 mechanism at the cost-model level: a ring allgather over all 64
  // cores of 16 nodes.  Consecutive ordering keeps 3 of 4 ring hops inside a
  // node and loads each NIC with one transfer per round; scattered ordering
  // makes every hop inter-node with 4 transfers per NIC per round.
  const arch::Machine m = machine();
  const CostModel cm(m);
  const core::MTask t = allgather_task(64u << 20);
  const int q = m.total_cores();
  LayerLayout lc, ls;
  lc.groups.push_back(
      GroupLayout{map::physical_sequence(m, map::Strategy::Consecutive)});
  ls.groups.push_back(
      GroupLayout{map::physical_sequence(m, map::Strategy::Scattered)});
  ASSERT_EQ(lc.groups[0].size(), q);
  const double t_cons = cm.mapped_task_time(t, lc, 0);
  const double t_scat = cm.mapped_task_time(t, ls, 0);
  EXPECT_LT(t_cons * 2.0, t_scat);
}

TEST(CostModel, OrthogonalCollectivePrefersScattered) {
  // Orthogonal comm binds same-position cores of the 4 groups; a scattered
  // mapping puts those on the same node.
  const arch::Machine m = machine();
  const CostModel cm(m);
  core::MTask t("orth", 0.0);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Orthogonal, 16u << 20, 1});
  const int q = 16, groups = 4;

  auto make_layout = [&](map::Strategy s) {
    const std::vector<int> seq = map::physical_sequence(m, s);
    LayerLayout layout;
    for (int g = 0; g < groups; ++g) {
      layout.groups.push_back(GroupLayout{{seq.begin() + g * q,
                                           seq.begin() + (g + 1) * q}});
    }
    return layout;
  };
  const double t_cons =
      cm.mapped_task_time(t, make_layout(map::Strategy::Consecutive), 0);
  const double t_scat =
      cm.mapped_task_time(t, make_layout(map::Strategy::Scattered), 0);
  EXPECT_LT(t_scat, t_cons);
}

TEST(CostModel, RedistributionBetweenDisjointGroupsCostsTime) {
  const arch::Machine m = machine();
  const CostModel cm(m);
  const dist::RedistributionPlan plan = dist::RedistributionPlan::compute(
      1 << 16, 8, dist::Distribution::block(), 4, dist::Distribution::block(),
      4, false);
  const std::vector<int> src{0, 1, 2, 3};
  const std::vector<int> dst{4, 5, 6, 7};
  EXPECT_GT(cm.redistribution_time(plan, src, dst), 0.0);
}

TEST(CostModel, RedistributionWithinSameCoresIsFree) {
  const arch::Machine m = machine();
  const CostModel cm(m);
  const dist::RedistributionPlan plan = dist::RedistributionPlan::compute(
      1 << 16, 8, dist::Distribution::block(), 4, dist::Distribution::block(),
      4, true);
  const std::vector<int> cores{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(cm.redistribution_time(plan, cores, cores), 0.0);
}

TEST(CostModel, InputValidation) {
  const CostModel cm(machine());
  const core::MTask t = compute_task(1.0);
  EXPECT_THROW(cm.symbolic_compute_time(t, 0), std::invalid_argument);
  EXPECT_THROW(cm.symbolic_comm_time(t, 4, 0, 4), std::invalid_argument);
  LayerLayout empty;
  EXPECT_THROW(cm.mapped_collective_time(
                   core::CollectiveOp{}, empty, 0),
               std::out_of_range);
}

// --- hybrid MPI+OpenMP model (paper Section 4.7) ---

class HybridTest : public ::testing::Test {
 protected:
  HybridTest() : machine_(machine(32)) {}
  arch::Machine machine_;

  LayerLayout consecutive_layout(int q, int groups = 1) const {
    const std::vector<int> seq =
        map::physical_sequence(machine_, map::Strategy::Consecutive);
    LayerLayout layout;
    for (int g = 0; g < groups; ++g) {
      layout.groups.push_back(GroupLayout{{seq.begin() + g * q,
                                           seq.begin() + (g + 1) * q}});
    }
    return layout;
  }
};

TEST_F(HybridTest, RankLayoutTakesEveryTthCore) {
  HybridConfig cfg;
  cfg.threads_per_rank = 4;
  const HybridCostModel hm(machine_, cfg);
  const LayerLayout phys = consecutive_layout(16);
  const LayerLayout ranks = hm.rank_layout(phys);
  ASSERT_EQ(ranks.groups.size(), 1u);
  EXPECT_EQ(ranks.groups[0].size(), 4);
  EXPECT_EQ(ranks.groups[0].cores,
            (std::vector<int>{phys.groups[0].cores[0], phys.groups[0].cores[4],
                              phys.groups[0].cores[8],
                              phys.groups[0].cores[12]}));
}

TEST_F(HybridTest, RankLayoutRequiresDivisibility) {
  HybridConfig cfg;
  cfg.threads_per_rank = 3;
  const HybridCostModel hm(machine_, cfg);
  EXPECT_THROW(hm.rank_layout(consecutive_layout(16)), std::invalid_argument);
}

TEST_F(HybridTest, TeamSpanDetectsLevels) {
  HybridConfig cfg;
  cfg.threads_per_rank = 4;  // CHiC: 4 cores per node -> team spans one node
  const HybridCostModel hm(machine_, cfg);
  const LayerLayout phys = consecutive_layout(16);
  EXPECT_EQ(hm.team_span(phys.groups[0], 0), arch::CommLevel::SameNode);

  HybridConfig cfg2;
  cfg2.threads_per_rank = 2;  // within one processor
  const HybridCostModel hm2(machine_, cfg2);
  EXPECT_EQ(hm2.team_span(phys.groups[0], 0), arch::CommLevel::SameProcessor);

  HybridConfig cfg8;
  cfg8.threads_per_rank = 8;  // spans two CHiC nodes (DSM-style)
  const HybridCostModel hm8(machine_, cfg8);
  EXPECT_EQ(hm8.team_span(phys.groups[0], 0), arch::CommLevel::InterNode);
}

TEST_F(HybridTest, OneThreadEqualsPureModel) {
  const HybridCostModel hm(machine_, HybridConfig{});
  const CostModel cm(machine_);
  core::MTask t = compute_task(1.0e9);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 1 << 20, 2});
  const LayerLayout phys = consecutive_layout(16);
  EXPECT_DOUBLE_EQ(hm.mapped_task_time(t, phys, 0),
                   cm.mapped_task_time(t, phys, 0));
}

TEST_F(HybridTest, HybridHelpsCommunicationDominatedTasks) {
  // Large global allgather, little compute: fewer ranks -> less NIC traffic.
  HybridConfig cfg;
  cfg.threads_per_rank = 4;
  const HybridCostModel hm(machine_, cfg);
  const CostModel cm(machine_);
  core::MTask t = compute_task(1.0e8);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 64u << 20, 1});
  const LayerLayout phys = consecutive_layout(64);
  EXPECT_LT(hm.mapped_task_time(t, phys, 0), cm.mapped_task_time(t, phys, 0));
}

TEST_F(HybridTest, HybridHurtsSynchronizationHeavyTasks) {
  // Many tiny broadcasts (DIIRK's data-parallel pattern): the per-collective
  // team fork/join overhead outweighs the traffic savings.
  HybridConfig cfg;
  cfg.threads_per_rank = 4;
  const HybridCostModel hm(machine_, cfg);
  const CostModel cm(machine_);
  core::MTask t = compute_task(1.0e8);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Bcast,
                                core::CommScope::Group, 256, 20000});
  const LayerLayout phys = consecutive_layout(64);
  EXPECT_GT(hm.mapped_task_time(t, phys, 0), cm.mapped_task_time(t, phys, 0));
}

TEST_F(HybridTest, TeamSyncGrowsWithThreadsAndLevel) {
  HybridConfig cfg;
  cfg.threads_per_rank = 4;
  const HybridCostModel hm(machine_, cfg);
  EXPECT_DOUBLE_EQ(hm.team_sync_time(1, arch::CommLevel::SameNode), 0.0);
  EXPECT_LT(hm.team_sync_time(4, arch::CommLevel::SameProcessor),
            hm.team_sync_time(4, arch::CommLevel::InterNode));
  EXPECT_LT(hm.team_sync_time(2, arch::CommLevel::SameNode),
            hm.team_sync_time(16, arch::CommLevel::SameNode));
}

}  // namespace
}  // namespace ptask::cost
