// Error-path coverage for sched::validate: every structural invariant is
// violated by a hand-built schedule and the specific diagnostic is asserted,
// so the fuzz harness's oracles can rely on validation actually firing.
// Also the regression tests for LayerSchedulerOptions::fixed_groups
// clamping (group counts beyond the layer width or the machine size).

#include <gtest/gtest.h>

#include <algorithm>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::sched {
namespace {

/// True if any error message contains `needle`.
bool has_error(const ValidationReport& report, const std::string& needle) {
  return std::any_of(report.errors.begin(), report.errors.end(),
                     [&](const std::string& e) {
                       return e.find(needle) != std::string::npos;
                     });
}

std::string all_errors(const ValidationReport& report) {
  std::string joined;
  for (const std::string& e : report.errors) joined += e + "\n";
  return joined;
}

/// Three-task graph (a, b, c) with the given edges and an identity (no-op)
/// chain contraction, so layers address original task ids directly.
core::TaskGraph abc_graph(
    const std::vector<std::pair<core::TaskId, core::TaskId>>& edges = {}) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0));
  g.add_task(core::MTask("b", 1.0));
  g.add_task(core::MTask("c", 1.0));
  for (const auto& [from, to] : edges) g.add_edge(from, to);
  return g;
}

LayeredSchedule identity_schedule(const core::TaskGraph& g, int total_cores) {
  LayeredSchedule s;
  s.total_cores = total_cores;
  s.contraction.contracted = g;
  s.contraction.members.resize(static_cast<std::size_t>(g.num_tasks()));
  s.contraction.representative.resize(static_cast<std::size_t>(g.num_tasks()));
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    s.contraction.members[static_cast<std::size_t>(id)] = {id};
    s.contraction.representative[static_cast<std::size_t>(id)] = id;
  }
  return s;
}

ScheduledLayer layer(std::vector<core::TaskId> tasks,
                     std::vector<int> group_sizes,
                     std::vector<int> task_group) {
  ScheduledLayer l;
  l.tasks = std::move(tasks);
  l.group_sizes = std::move(group_sizes);
  l.task_group = std::move(task_group);
  return l;
}

// ---- layered-schedule invariants ----

TEST(LayeredValidation, TaskInTwoLayersIsReported) {
  const core::TaskGraph g = abc_graph();
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1}, {4}, {0, 0}));
  s.layers.push_back(layer({0, 2}, {4}, {0, 0}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task 'a' (id 0) appears 2 times"))
      << all_errors(r);
}

TEST(LayeredValidation, MissingTaskIsReported) {
  const core::TaskGraph g = abc_graph();
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1}, {4}, {0, 0}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task 'c' (id 2) appears 0 times"))
      << all_errors(r);
}

TEST(LayeredValidation, DependentTasksSharingALayerAreReported) {
  const core::TaskGraph g = abc_graph({{0, 1}});
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1}, {2, 2}, {0, 1}));
  s.layers.push_back(layer({2}, {4}, {0}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(
      r, "dependent tasks share a layer: 'a' (id 0) and 'b' (id 1)"))
      << all_errors(r);
}

TEST(LayeredValidation, LayerOrderViolatingAnEdgeIsReported) {
  const core::TaskGraph g = abc_graph({{0, 1}});
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({1, 2}, {2, 2}, {0, 1}));
  s.layers.push_back(layer({0}, {4}, {0}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(
      has_error(r, "edge 'a' (id 0) -> 'b' (id 1) violated by layer order"))
      << all_errors(r);
}

TEST(LayeredValidation, GroupSizesNotSummingToTotalCoresAreReported) {
  const core::TaskGraph g = abc_graph();
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1, 2}, {2, 1}, {0, 1, 0}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "group sizes sum to 3, expected 4"))
      << all_errors(r);
}

TEST(LayeredValidation, NonPositiveGroupSizeIsReported) {
  const core::TaskGraph g = abc_graph();
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1, 2}, {4, 0}, {0, 0, 1}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "non-positive group size")) << all_errors(r);
}

TEST(LayeredValidation, TaskAssignedToMissingGroupIsReported) {
  const core::TaskGraph g = abc_graph();
  LayeredSchedule s = identity_schedule(g, 4);
  s.layers.push_back(layer({0, 1, 2}, {2, 2}, {0, 1, 5}));
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task assigned to missing group"))
      << all_errors(r);
}

// ---- Gantt-schedule invariants ----

GanttSchedule gantt_for(const core::TaskGraph& g, int total_cores) {
  GanttSchedule s;
  s.total_cores = total_cores;
  s.slots.resize(static_cast<std::size_t>(g.num_tasks()));
  return s;
}

TEST(GanttValidation, OverlappingCoreSlotsAreReported) {
  const core::TaskGraph g = abc_graph();
  GanttSchedule s = gantt_for(g, 4);
  s.slots[0] = {{0, 1}, 0.0, 2.0};
  s.slots[1] = {{1, 2}, 1.0, 3.0};  // core 1 busy [0,2) and [1,3)
  s.slots[2] = {{3}, 0.0, 1.0};
  s.makespan = 3.0;
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "core 1 executes overlapping tasks"))
      << all_errors(r);
}

TEST(GanttValidation, TaskWithoutCoresIsReported) {
  const core::TaskGraph g = abc_graph();
  GanttSchedule s = gantt_for(g, 4);
  s.slots[0] = {{0}, 0.0, 1.0};
  s.slots[1] = {{}, 0.0, 1.0};
  s.slots[2] = {{1}, 0.0, 1.0};
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task 'b' (id 1) has no cores")) << all_errors(r);
}

TEST(GanttValidation, CoreOutOfRangeIsReported) {
  const core::TaskGraph g = abc_graph();
  GanttSchedule s = gantt_for(g, 2);
  s.slots[0] = {{0}, 0.0, 1.0};
  s.slots[1] = {{1}, 0.0, 1.0};
  s.slots[2] = {{2}, 0.0, 1.0};  // total_cores is 2
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task 'c' (id 2) uses core out of range"))
      << all_errors(r);
}

TEST(GanttValidation, StartBeforePredecessorFinishIsReported) {
  const core::TaskGraph g = abc_graph({{0, 1}});
  GanttSchedule s = gantt_for(g, 4);
  s.slots[0] = {{0}, 0.0, 2.0};
  s.slots[1] = {{1}, 1.0, 3.0};  // starts before a finishes
  s.slots[2] = {{2}, 0.0, 1.0};
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(
      r, "task 'b' (id 1) starts before predecessor 'a' (id 0) finishes"))
      << all_errors(r);
}

TEST(GanttValidation, NegativeDurationIsReported) {
  const core::TaskGraph g = abc_graph();
  GanttSchedule s = gantt_for(g, 4);
  s.slots[0] = {{0}, 2.0, 1.0};  // finish < start
  s.slots[1] = {{1}, 0.0, 1.0};
  s.slots[2] = {{2}, 0.0, 1.0};
  const ValidationReport r = validate(s, g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_error(r, "task 'a' (id 0) finishes early"))
      << all_errors(r);
}

// ---- fixed_groups clamping regressions ----

arch::Machine machine() {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 4;  // 16 cores
  return arch::Machine(spec);
}

core::TaskGraph independent_tasks(int n) {
  core::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), 1.0e9));
  }
  return g;
}

TEST(FixedGroupsClamping, MoreGroupsThanLayerTasksProducesValidSchedule) {
  const core::TaskGraph g = independent_tasks(3);
  const cost::CostModel cm(machine());
  LayerSchedulerOptions opts;
  opts.fixed_groups = 64;  // layer only has 3 tasks
  const LayeredSchedule s = Pipeline::algorithm1(cm, opts).run(g, 8).layered;
  const ValidationReport r = validate(s, g);
  EXPECT_TRUE(r.ok()) << all_errors(r);
  ASSERT_EQ(s.layers.size(), 1u);
  // Clamped to the layer's task count: no empty/degenerate groups.
  EXPECT_EQ(s.layers[0].num_groups(), 3);
  for (int size : s.layers[0].group_sizes) EXPECT_GE(size, 1);
}

TEST(FixedGroupsClamping, MoreGroupsThanCoresProducesValidSchedule) {
  const core::TaskGraph g = independent_tasks(12);
  const cost::CostModel cm(machine());
  LayerSchedulerOptions opts;
  opts.fixed_groups = 16;  // only 4 cores available
  const LayeredSchedule s = Pipeline::algorithm1(cm, opts).run(g, 4).layered;
  const ValidationReport r = validate(s, g);
  EXPECT_TRUE(r.ok()) << all_errors(r);
  ASSERT_EQ(s.layers.size(), 1u);
  // Clamped to the core count: every group keeps >= 1 core.
  EXPECT_EQ(s.layers[0].num_groups(), 4);
  for (int size : s.layers[0].group_sizes) EXPECT_GE(size, 1);
}

TEST(FixedGroupsClamping, SingleTaskLayerDegradesToOneGroup) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  g.add_edge(a, b);  // two one-task layers (contracted into one chain)
  const cost::CostModel cm(machine());
  LayerSchedulerOptions opts;
  opts.fixed_groups = 8;
  opts.contract_chains = false;
  const LayeredSchedule s = Pipeline::algorithm1(cm, opts).run(g, 8).layered;
  const ValidationReport r = validate(s, g);
  EXPECT_TRUE(r.ok()) << all_errors(r);
  for (const ScheduledLayer& l : s.layers) {
    EXPECT_EQ(l.num_groups(), 1);
    EXPECT_EQ(l.group_sizes[0], 8);
  }
}

}  // namespace
}  // namespace ptask::sched
