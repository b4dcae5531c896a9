// Tests for the mapping strategies (paper Section 3.4, Figs. 9-12).

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ptask/map/core_sequence.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/sched/pipeline.hpp"

namespace ptask::map {
namespace {

arch::Machine machine4x4() {
  // Fig. 9-11 platform: four nodes, two dual-core processors each.
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 4;
  return arch::Machine(spec);
}

TEST(CoreSequence, ConsecutiveIsNodeMajor) {
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Consecutive);
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seq, expected);
}

TEST(CoreSequence, ScatteredRoundRobinsNodes) {
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Scattered);
  // First 4 entries: core 0 of each node (flat 0, 4, 8, 12).
  EXPECT_EQ(seq[0], 0);
  EXPECT_EQ(seq[1], 4);
  EXPECT_EQ(seq[2], 8);
  EXPECT_EQ(seq[3], 12);
  EXPECT_EQ(seq[4], 1);  // then core 1 of node 1
}

TEST(CoreSequence, MixedD2TakesProcessorPairs) {
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = mixed_sequence(m, 2);
  // First 8: first processor (2 cores) of every node.
  EXPECT_EQ((std::vector<int>{seq[0], seq[1], seq[2], seq[3]}),
            (std::vector<int>{0, 1, 4, 5}));
  EXPECT_EQ(seq[8], 2);  // then second processor of node 1
}

TEST(CoreSequence, SpecialCasesCollapseToMixed) {
  const arch::Machine m = machine4x4();
  EXPECT_EQ(physical_sequence(m, Strategy::Consecutive), mixed_sequence(m, 4));
  EXPECT_EQ(physical_sequence(m, Strategy::Scattered), mixed_sequence(m, 1));
}

TEST(CoreSequence, EverySequenceIsAPermutation) {
  const arch::Machine m = machine4x4();
  for (int d : {1, 2, 4}) {
    const std::vector<int> seq = mixed_sequence(m, d);
    std::set<int> unique(seq.begin(), seq.end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(m.total_cores()));
    EXPECT_EQ(*unique.begin(), 0);
    EXPECT_EQ(*unique.rbegin(), m.total_cores() - 1);
  }
}

TEST(CoreSequence, RejectsBadBlockSizes) {
  const arch::Machine m = machine4x4();
  EXPECT_THROW(mixed_sequence(m, 0), std::invalid_argument);
  EXPECT_THROW(mixed_sequence(m, 3), std::invalid_argument);  // 3 does not divide 4
  EXPECT_THROW(mixed_sequence(m, 8), std::invalid_argument);
}

TEST(CoreSequence, StrategyLabels) {
  EXPECT_STREQ(to_string(Strategy::Consecutive), "consecutive");
  EXPECT_EQ(strategy_label(Strategy::Mixed, 2), "mixed(d=2)");
  EXPECT_EQ(strategy_label(Strategy::Scattered, 1), "scattered");
}

TEST(MapLayer, SlicesSequenceByGroup) {
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Consecutive);
  const std::vector<int> sizes{4, 4, 4, 4};
  const cost::LayerLayout layout = map_layer(sizes, seq);
  ASSERT_EQ(layout.groups.size(), 4u);
  // Fig. 9: with a consecutive mapping, each 4-core group owns one node.
  for (int g = 0; g < 4; ++g) {
    const cost::GroupLayout& group = layout.groups[static_cast<std::size_t>(g)];
    for (int core : group.cores) {
      EXPECT_EQ(m.core_at(core).node, g);
    }
  }
}

TEST(MapLayer, ScatteredSpreadsEveryGroupOverAllNodes) {
  // Fig. 10: each group gets one core of every node.
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Scattered);
  const cost::LayerLayout layout = map_layer(std::vector<int>{4, 4, 4, 4}, seq);
  for (const cost::GroupLayout& group : layout.groups) {
    std::set<int> nodes;
    for (int core : group.cores) nodes.insert(m.core_at(core).node);
    EXPECT_EQ(nodes.size(), 4u);
  }
}

TEST(MapLayer, GroupsAreDisjoint) {
  const arch::Machine m = machine4x4();
  for (Strategy s : {Strategy::Consecutive, Strategy::Scattered}) {
    const std::vector<int> seq = physical_sequence(m, s);
    const cost::LayerLayout layout = map_layer(std::vector<int>{5, 3, 8}, seq);
    std::set<int> seen;
    for (const cost::GroupLayout& g : layout.groups) {
      for (int core : g.cores) {
        EXPECT_TRUE(seen.insert(core).second) << "core mapped twice";
      }
    }
    EXPECT_EQ(seen.size(), 16u);
  }
}

TEST(MapLayer, SizePreservation) {
  // |F_W(G_i)| == |G_i| for every group (paper Section 3.4).
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Consecutive);
  const std::vector<int> sizes{1, 2, 3, 4, 6};
  const cost::LayerLayout layout = map_layer(sizes, seq);
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    EXPECT_EQ(layout.groups[g].size(), sizes[g]);
  }
}

TEST(MapLayer, RejectsOversizedLayers) {
  const arch::Machine m = machine4x4();
  const std::vector<int> seq = physical_sequence(m, Strategy::Consecutive);
  EXPECT_THROW(map_layer(std::vector<int>{17}, seq), std::invalid_argument);
  EXPECT_THROW(map_layer(std::vector<int>{0, 4}, seq), std::invalid_argument);
}

TEST(MapSchedule, MapsEveryLayer) {
  core::TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    core::MTask t("t" + std::to_string(i), 1.0e10);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 4u << 20, 4});
    g.add_task(std::move(t));
  }
  const arch::Machine m = machine4x4();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 16).layered;
  const std::vector<cost::LayerLayout> layouts =
      map_schedule(s, m, Strategy::Mixed, 2);
  ASSERT_EQ(layouts.size(), s.layers.size());
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    EXPECT_EQ(layouts[li].total_cores(), 16);
    ASSERT_EQ(layouts[li].groups.size(), s.layers[li].group_sizes.size());
  }
}

TEST(MapSchedule, RejectsOversizedSchedules) {
  core::TaskGraph g;
  g.add_task(core::MTask("t", 1.0));
  const arch::Machine m = machine4x4();
  const cost::CostModel cm(m);
  sched::LayeredSchedule s = sched::Pipeline::algorithm1(cm).run(g, 16).layered;
  s.total_cores = 999;
  EXPECT_THROW(map_schedule(s, m, Strategy::Consecutive),
               std::invalid_argument);
}

TEST(Fig12, ScatteredAndMixedUseSameCoresDifferentOrder) {
  // Fig. 12: on 8 CHiC nodes with two 16-core groups, scattered and
  // mixed(d=2) select the same core *set* but order it differently.
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 8;
  const arch::Machine m(spec);
  const std::vector<int> scat = physical_sequence(m, Strategy::Scattered);
  const std::vector<int> mixed = physical_sequence(m, Strategy::Mixed, 2);
  const std::vector<int> sizes{16, 16};
  const cost::LayerLayout ls = map_layer(sizes, scat);
  const cost::LayerLayout lm = map_layer(sizes, mixed);
  for (std::size_t g = 0; g < 2; ++g) {
    std::set<int> set_s(ls.groups[g].cores.begin(), ls.groups[g].cores.end());
    std::set<int> set_m(lm.groups[g].cores.begin(), lm.groups[g].cores.end());
    EXPECT_EQ(set_s, set_m);
    EXPECT_NE(ls.groups[g].cores, lm.groups[g].cores);
  }
}

}  // namespace
}  // namespace ptask::map
