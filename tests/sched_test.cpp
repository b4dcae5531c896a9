// Tests for the layer-based scheduling algorithm (paper Algorithm 1) and
// schedule validation.

#include <gtest/gtest.h>

#include <numeric>

#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 32) {
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

TEST(GroupSizes, EqualSplit) {
  EXPECT_EQ(equal_group_sizes(8, 4), (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(equal_group_sizes(10, 3), (std::vector<int>{4, 3, 3}));
  EXPECT_EQ(equal_group_sizes(5, 5), (std::vector<int>{1, 1, 1, 1, 1}));
  EXPECT_THROW(equal_group_sizes(3, 4), std::invalid_argument);
  EXPECT_THROW(equal_group_sizes(4, 0), std::invalid_argument);
}

TEST(GroupSizes, ProportionalAdjustment) {
  // Weights 3:1 over 8 cores -> 6 and 2.
  EXPECT_EQ(proportional_group_sizes(8, {3.0, 1.0}), (std::vector<int>{6, 2}));
  // Every group keeps at least one core even with zero weight.
  const std::vector<int> sizes = proportional_group_sizes(4, {1.0, 0.0, 0.0});
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), 4);
  for (int s : sizes) EXPECT_GE(s, 1);
  // Zero total weight falls back to equal sizes.
  EXPECT_EQ(proportional_group_sizes(6, {0.0, 0.0}), (std::vector<int>{3, 3}));
}

TEST(GroupSizes, ProportionalAlwaysSumsToTotal) {
  for (int total : {4, 7, 16, 33, 512}) {
    for (const std::vector<double>& w :
         {std::vector<double>{1, 2, 3}, std::vector<double>{5, 1, 1, 1},
          std::vector<double>{0.1, 0.9}}) {
      if (total < static_cast<int>(w.size())) continue;
      const std::vector<int> sizes = proportional_group_sizes(total, w);
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), total);
      for (int s : sizes) EXPECT_GE(s, 1);
    }
  }
}

class LayerSchedulerTest : public ::testing::Test {
 protected:
  LayerSchedulerTest() : machine_(machine()), cost_(machine_) {}
  arch::Machine machine_;
  cost::CostModel cost_;
};

TEST_F(LayerSchedulerTest, SingleTaskGetsAllCores) {
  core::TaskGraph g = independent_tasks({1.0e12});
  const Pipeline sched = Pipeline::algorithm1(cost_);
  const LayeredSchedule s = sched.run(g, 16).layered;
  ASSERT_EQ(s.layers.size(), 1u);
  EXPECT_EQ(s.layers[0].num_groups(), 1);
  EXPECT_EQ(s.layers[0].group_sizes[0], 16);
}

TEST_F(LayerSchedulerTest, CommHeavyIndependentTasksSplitIntoGroups) {
  // Four identical tasks whose group-internal communication makes full-width
  // execution wasteful: Algorithm 1 must pick g > 1.
  core::TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    core::MTask t("t" + std::to_string(i), 1.0e10);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 8u << 20, 4});
    g.add_task(std::move(t));
  }
  const Pipeline sched = Pipeline::algorithm1(cost_);
  const LayeredSchedule s = sched.run(g, 64).layered;
  ASSERT_EQ(s.layers.size(), 1u);
  EXPECT_GT(s.layers[0].num_groups(), 1);
  const ValidationReport report = validate(s, g);
  EXPECT_TRUE(report.ok()) << report.errors.front();
}

TEST_F(LayerSchedulerTest, PureComputeTasksPreferDataParallel) {
  // Without communication, splitting brings no benefit; equal work on all
  // cores one after another has the same predicted time as any split, and
  // the search keeps the first (g=1) optimum.
  core::TaskGraph g = independent_tasks({1e9, 1e9, 1e9, 1e9});
  const Pipeline sched = Pipeline::algorithm1(cost_);
  const LayeredSchedule s = sched.run(g, 8).layered;
  EXPECT_EQ(s.layers[0].num_groups(), 1);
}

TEST_F(LayerSchedulerTest, GroupAdjustmentFollowsWork) {
  // Two tasks with 3:1 work and heavy comm so that g=2 wins; the adjustment
  // step must hand the bigger task about 3/4 of the cores.
  core::TaskGraph g;
  for (double w : {3.0e10, 1.0e10}) {
    core::MTask t("t", w);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 32u << 20, 8});
    g.add_task(std::move(t));
  }
  LayerSchedulerOptions opts;
  opts.fixed_groups = 2;
  const Pipeline sched = Pipeline::algorithm1(cost_, opts);
  const LayeredSchedule s = sched.run(g, 16).layered;
  ASSERT_EQ(s.layers[0].num_groups(), 2);
  std::vector<int> sizes = s.layers[0].group_sizes;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<int>{4, 12}));
}

TEST_F(LayerSchedulerTest, AdjustmentCanBeDisabled) {
  core::TaskGraph g;
  for (double w : {3.0e10, 1.0e10}) {
    core::MTask t("t", w);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 32u << 20, 8});
    g.add_task(std::move(t));
  }
  LayerSchedulerOptions opts;
  opts.fixed_groups = 2;
  opts.adjust_group_sizes = false;
  const Pipeline sched = Pipeline::algorithm1(cost_, opts);
  const LayeredSchedule s = sched.run(g, 16).layered;
  EXPECT_EQ(s.layers[0].group_sizes, (std::vector<int>{8, 8}));
}

TEST_F(LayerSchedulerTest, LptAssignmentBalancesAccumulatedTime) {
  // 5 tasks with works 5,4,3,2,1 on 2 groups: LPT gives {5,2,1} vs {4,3}.
  core::TaskGraph g = independent_tasks({5e9, 4e9, 3e9, 2e9, 1e9});
  LayerSchedulerOptions opts;
  opts.fixed_groups = 2;
  opts.adjust_group_sizes = false;
  const Pipeline sched = Pipeline::algorithm1(cost_, opts);
  const LayeredSchedule s = sched.run(g, 8).layered;
  std::vector<double> acc(2, 0.0);
  for (std::size_t i = 0; i < s.layers[0].tasks.size(); ++i) {
    acc[static_cast<std::size_t>(s.layers[0].task_group[i])] +=
        s.contraction.contracted.task(s.layers[0].tasks[i]).work_flop();
  }
  EXPECT_NEAR(acc[0], acc[1], 1.01e9);  // within one small task
}

TEST_F(LayerSchedulerTest, EpolScheduleMatchesPaperStructure) {
  // Fig. 6 (middle): the task-parallel EPOL version uses R/2 groups and each
  // group handles approximations i and R+1-i (same micro step count), which
  // is exactly what the LPT assignment of Algorithm 1 produces.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 16;
  spec.stages = 8;
  const core::TaskGraph g = spec.step_graph();
  LayerSchedulerOptions opts;
  opts.fixed_groups = 4;  // R/2
  const Pipeline sched = Pipeline::algorithm1(cost_, opts);
  const LayeredSchedule s = sched.run(g, 64).layered;
  ASSERT_EQ(s.layers.size(), 2u);
  EXPECT_EQ(s.layers[0].num_groups(), 4);  // R/2 = 4
  // Each group computes R+1 = 9 micro steps.
  std::vector<int> micro_steps(4, 0);
  for (std::size_t i = 0; i < s.layers[0].tasks.size(); ++i) {
    micro_steps[static_cast<std::size_t>(s.layers[0].task_group[i])] +=
        static_cast<int>(s.contraction
                             .members[static_cast<std::size_t>(
                                 s.layers[0].tasks[i])]
                             .size());
  }
  for (int m : micro_steps) EXPECT_EQ(m, 9);
  // Second layer: the combine on all cores.
  EXPECT_EQ(s.layers[1].num_groups(), 1);
  const ValidationReport report = validate(s, g);
  EXPECT_TRUE(report.ok()) << report.errors.front();
}

TEST_F(LayerSchedulerTest, EpolFreeSearchPicksTaskParallelism) {
  // The exact group count the search picks depends on the platform constants
  // (the paper makes the same observation); it must exploit task
  // parallelism (g > 1) and be at least as good as the paper's R/2 scheme
  // under the same cost model.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 16;
  spec.stages = 8;
  const core::TaskGraph g = spec.step_graph();
  const LayeredSchedule free_search =
      Pipeline::algorithm1(cost_).run(g, 64).layered;
  EXPECT_GT(free_search.layers[0].num_groups(), 1);
  EXPECT_LE(free_search.layers[0].num_groups(), 8);

  LayerSchedulerOptions half;
  half.fixed_groups = 4;
  const LayeredSchedule r_half =
      Pipeline::algorithm1(cost_, half).run(g, 64).layered;
  EXPECT_LE(free_search.predicted_makespan,
            r_half.predicted_makespan * 1.0001);
}

TEST_F(LayerSchedulerTest, StageSolversUseKGroups) {
  // IRK/PAB/PABM: the K independent stage tasks run on K disjoint groups.
  for (ode::Method method :
       {ode::Method::IRK, ode::Method::PAB, ode::Method::PABM}) {
    ode::SolverGraphSpec spec;
    spec.method = method;
    spec.n = 1 << 16;
    spec.stages = 4;
    spec.iterations = 3;
    const core::TaskGraph g = spec.step_graph();
    const Pipeline sched = Pipeline::algorithm1(cost_);
    const LayeredSchedule s = sched.run(g, 64).layered;
    EXPECT_EQ(s.layers[0].num_groups(), 4) << to_string(method);
    EXPECT_TRUE(validate(s, g).ok()) << to_string(method);
  }
}

TEST_F(LayerSchedulerTest, FixedGroupsIsClamped) {
  core::TaskGraph g = independent_tasks({1e9, 1e9});
  LayerSchedulerOptions opts;
  opts.fixed_groups = 16;  // only 2 tasks
  const Pipeline sched = Pipeline::algorithm1(cost_, opts);
  const LayeredSchedule s = sched.run(g, 8).layered;
  EXPECT_EQ(s.layers[0].num_groups(), 2);
}

TEST_F(LayerSchedulerTest, PredictedMakespanAccumulatesLayers) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 14;
  spec.stages = 4;
  spec.iterations = 2;
  const Pipeline sched = Pipeline::algorithm1(cost_);
  const LayeredSchedule s = sched.run(spec.step_graph(), 16).layered;
  double sum = 0.0;
  for (const ScheduledLayer& l : s.layers) sum += l.predicted_time;
  EXPECT_DOUBLE_EQ(s.predicted_makespan, sum);
  EXPECT_GT(sum, 0.0);
}

TEST_F(LayerSchedulerTest, RejectsNonPositiveCores) {
  core::TaskGraph g = independent_tasks({1.0});
  const Pipeline sched = Pipeline::algorithm1(cost_);
  EXPECT_THROW(sched.run(g, 0).layered, std::invalid_argument);
}

// Property sweep: validity for all (method, core count) combinations.
class ScheduleValidityTest
    : public ::testing::TestWithParam<std::tuple<ode::Method, int>> {};

TEST_P(ScheduleValidityTest, ScheduleIsValidAndGantt) {
  const auto [method, cores] = GetParam();
  ode::SolverGraphSpec spec;
  spec.method = method;
  spec.n = 1 << 14;
  spec.stages = 4;
  spec.iterations = 2;
  spec.inner_iterations = 2;
  const core::TaskGraph g = spec.step_graph();

  const arch::Machine m = machine(256);
  const cost::CostModel cost(m);
  const Pipeline sched = Pipeline::algorithm1(cost);
  const LayeredSchedule s = sched.run(g, cores).layered;
  const ValidationReport report = validate(s, g);
  EXPECT_TRUE(report.ok()) << report.errors.front();

  // Lower to Gantt and validate that view as well.
  const GanttSchedule gantt = to_gantt(
      s, [&](core::TaskId id, int q, int groups) {
        return cost.symbolic_task_time(s.contraction.contracted.task(id), q,
                                       groups, cores);
      });
  const ValidationReport gantt_report =
      validate(gantt, s.contraction.contracted);
  EXPECT_TRUE(gantt_report.ok()) << gantt_report.errors.front();
  EXPECT_GT(gantt.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndCores, ScheduleValidityTest,
    ::testing::Combine(::testing::Values(ode::Method::EPOL, ode::Method::IRK,
                                         ode::Method::DIIRK, ode::Method::PAB,
                                         ode::Method::PABM),
                       ::testing::Values(4, 16, 64, 128)));

// --- validation catches broken schedules ---

TEST(Validation, DetectsDependentTasksInOneLayer) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0));
  g.add_edge(a, b);

  LayeredSchedule s;
  s.total_cores = 4;
  s.contraction.contracted = g;
  s.contraction.members = {{a}, {b}};
  s.contraction.representative = {a, b};
  ScheduledLayer layer;
  layer.tasks = {a, b};
  layer.group_sizes = {2, 2};
  layer.task_group = {0, 1};
  s.layers.push_back(layer);
  const ValidationReport report = validate(s, g);
  EXPECT_FALSE(report.ok());
}

TEST(Validation, DetectsBadGroupSizes) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  LayeredSchedule s;
  s.total_cores = 4;
  s.contraction.contracted = g;
  s.contraction.members = {{a}};
  s.contraction.representative = {a};
  ScheduledLayer layer;
  layer.tasks = {a};
  layer.group_sizes = {3};  // != total_cores
  layer.task_group = {0};
  s.layers.push_back(layer);
  EXPECT_FALSE(validate(s, g).ok());
}

TEST(Validation, DetectsMissingAndDuplicateTasks) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0));
  g.add_task(core::MTask("b", 1.0));
  LayeredSchedule s;
  s.total_cores = 2;
  s.contraction.contracted = g;
  s.contraction.members = {{0}, {1}};
  s.contraction.representative = {0, 1};
  ScheduledLayer layer;
  layer.tasks = {0, 0};  // duplicate a, missing b
  layer.group_sizes = {1, 1};
  layer.task_group = {0, 1};
  s.layers.push_back(layer);
  EXPECT_FALSE(validate(s, g).ok());
}

TEST(Validation, GanttDetectsCoreOverlapAndPrecedence) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0));
  g.add_edge(a, b);
  GanttSchedule gantt;
  gantt.total_cores = 2;
  gantt.slots.resize(2);
  gantt.slots[static_cast<std::size_t>(a)] = {{0, 1}, 0.0, 2.0};
  gantt.slots[static_cast<std::size_t>(b)] = {{1}, 1.0, 3.0};  // overlap + early
  const ValidationReport report = validate(gantt, g);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.errors.size(), 2u);
}

TEST(Describe, RendersGroupsAndTasks) {
  core::TaskGraph g;
  g.add_task(core::MTask("alpha", 1.0));
  const arch::Machine m = machine(4);
  const cost::CostModel cost(m);
  const Pipeline sched = Pipeline::algorithm1(cost);
  const LayeredSchedule s = sched.run(g, 4).layered;
  const std::string text = describe(s);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("layer 0"), std::string::npos);
}

}  // namespace
}  // namespace ptask::sched
