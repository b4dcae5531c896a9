// Unit coverage for ptask::analysis: every PTA0xx diagnostic code has at
// least one test that triggers it on a minimal graph (positive) and one
// showing the well-formed variant stays silent (negative), plus rendering
// and report-plumbing checks.  The minimal triggers mirror the examples in
// docs/ANALYSIS.md.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ptask/analysis/analyzer.hpp"
#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::analysis {
namespace {

core::Param input(std::string name, std::size_t bytes) {
  return core::Param{std::move(name), bytes,
                     dist::Distribution::replicated(), true, false};
}

core::Param output(std::string name, std::size_t bytes) {
  return core::Param{std::move(name), bytes,
                     dist::Distribution::replicated(), false, true};
}

core::MTask task_with(const std::string& name,
                      std::vector<core::Param> params,
                      double work = 1.0e9) {
  core::MTask t(name, work);
  for (core::Param& p : params) t.add_param(std::move(p));
  return t;
}

Report analyze(const core::TaskGraph& g) { return Analyzer().analyze(g); }

// ---- PTA001: WAW race ----

TEST(RacePass, IndependentWritersOfOneVarAreAWawRace) {
  core::TaskGraph g;
  g.add_task(task_with("w1", {output("x", 64)}));
  g.add_task(task_with("w2", {output("x", 64)}));
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kRaceWaw), 1);
  EXPECT_FALSE(r.clean());
  const Diagnostic& d = r.diagnostics.front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.tasks, (std::vector<core::TaskId>{0, 1}));
  EXPECT_EQ(d.task_names, (std::vector<std::string>{"w1", "w2"}));
  EXPECT_EQ(d.vars, (std::vector<std::string>{"x"}));
}

TEST(RacePass, OrderedWritersAreNotAWawRace) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(task_with("w1", {output("x", 64)}));
  const core::TaskId b = g.add_task(task_with("w2", {output("x", 64)}));
  g.add_edge(a, b);
  const Report r = analyze(g);
  EXPECT_EQ(r.count(kRaceWaw), 0);
  EXPECT_TRUE(r.clean());
}

// ---- PTA002: RAW/WAR race ----

TEST(RacePass, UnorderedReaderWriterPairIsARawRace) {
  core::TaskGraph g;
  g.add_task(task_with("w", {output("x", 64)}));
  g.add_task(task_with("r", {input("x", 64)}));
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kRaceRaw), 1);
  EXPECT_EQ(r.diagnostics.front().vars,
            (std::vector<std::string>{"x"}));
}

TEST(RacePass, OrderedReaderWriterPairIsNotARace) {
  core::TaskGraph g;
  const core::TaskId w = g.add_task(task_with("w", {output("x", 64)}));
  const core::TaskId r_ = g.add_task(task_with("r", {input("x", 64)}));
  g.add_edge(w, r_);
  const Report r = analyze(g);
  EXPECT_EQ(r.count(kRaceRaw), 0);
  EXPECT_TRUE(r.clean());
}

TEST(RacePass, ReaderThatAlsoWritesIsReportedOnceAsWaw) {
  core::TaskGraph g;
  g.add_task(task_with("w", {output("x", 64)}));
  g.add_task(task_with("rw", {input("x", 64), output("x", 64)}));
  const Report r = analyze(g);
  EXPECT_EQ(r.count(kRaceWaw), 1);
  EXPECT_EQ(r.count(kRaceRaw), 0);
}

// ---- PTA010: producer/consumer size mismatch ----

TEST(SizePass, MismatchedByteSizesOnAnEdgeAreReported) {
  core::TaskGraph g;
  const core::TaskId u = g.add_task(task_with("p", {output("x", 64)}));
  const core::TaskId v = g.add_task(task_with("c", {input("x", 128)}));
  g.add_edge(u, v);
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kSizeMismatch), 1);
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.diagnostics.front().message.find("64"), std::string::npos);
  EXPECT_NE(r.diagnostics.front().message.find("128"), std::string::npos);
}

TEST(SizePass, MatchingByteSizesAreClean) {
  core::TaskGraph g;
  const core::TaskId u = g.add_task(task_with("p", {output("x", 128)}));
  const core::TaskId v = g.add_task(task_with("c", {input("x", 128)}));
  g.add_edge(u, v);
  const Report r = analyze(g);
  EXPECT_EQ(r.count(kSizeMismatch), 0);
  EXPECT_TRUE(r.clean());
}

// ---- PTA011: ill-defined re-distribution payload ----

TEST(SizePass, PayloadNotAMultipleOfTheElementSizeIsReported) {
  core::TaskGraph g;
  const core::TaskId u = g.add_task(task_with("p", {output("x", 12)}));
  const core::TaskId v = g.add_task(task_with("c", {input("x", 12)}));
  g.add_edge(u, v);
  const Report r = analyze(g);  // default element size: sizeof(double) == 8
  EXPECT_EQ(r.count(kSizeMismatch), 0);
  ASSERT_EQ(r.count(kBadRedistribution), 1);
  EXPECT_FALSE(r.clean());
}

TEST(SizePass, ElementAlignedPayloadIsClean) {
  core::TaskGraph g;
  const core::TaskId u = g.add_task(task_with("p", {output("x", 64)}));
  const core::TaskId v = g.add_task(task_with("c", {input("x", 64)}));
  g.add_edge(u, v);
  EXPECT_EQ(analyze(g).count(kBadRedistribution), 0);
}

// ---- PTA020: unreachable task ----

TEST(HygienePass, TaskOutsideTheMarkerEnvelopeIsReported) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  g.add_start_stop_markers();
  // Added after the markers: connected to neither start nor stop.
  g.add_task(core::MTask("stray", 1.0e9));
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kUnreachableTask), 1);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.diagnostics.front().task_names,
            (std::vector<std::string>{"stray"}));
}

TEST(HygienePass, FullyEnvelopedGraphHasNoUnreachableTasks) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  g.add_edge(a, b);
  g.add_start_stop_markers();
  EXPECT_EQ(analyze(g).count(kUnreachableTask), 0);
}

TEST(HygienePass, GraphWithoutMarkersSkipsReachabilityEntirely) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  g.add_task(core::MTask("b", 1.0e9));  // disconnected but no envelope
  EXPECT_EQ(analyze(g).count(kUnreachableTask), 0);
}

// ---- PTA021: dead write (warning) ----

TEST(HygienePass, OutputNoDownstreamTaskConsumesIsADeadWriteWarning) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(task_with("a", {output("x", 64)}));
  const core::TaskId b = g.add_task(task_with("b", {input("y", 64)}));
  g.add_edge(a, b);
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kDeadWrite), 1);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::Warning);
  EXPECT_TRUE(r.clean());  // warnings keep the report clean
}

TEST(HygienePass, ConsumedOutputIsNotADeadWrite) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(task_with("a", {output("x", 64)}));
  const core::TaskId b = g.add_task(task_with("b", {input("x", 64)}));
  g.add_edge(a, b);
  EXPECT_EQ(analyze(g).count(kDeadWrite), 0);
}

TEST(HygienePass, TerminalWritersProduceProgramOutputsNotDeadWrites) {
  core::TaskGraph g;
  g.add_task(task_with("last", {output("result", 64)}));
  EXPECT_EQ(analyze(g).count(kDeadWrite), 0);
}

// ---- PTA022: empty/missing composite body ----

TEST(HierAnalysis, CompositeWithAnEmptyBodyIsReported) {
  core::HierGraph program;
  const core::TaskId pre = program.graph.add_task(core::MTask("pre", 1.0e9));
  const core::TaskId loop = program.graph.add_task(core::MTask("loop", 1.0e9));
  program.graph.add_edge(pre, loop);
  program.sub[loop] = std::make_unique<core::HierGraph>();  // zero basic tasks
  const Report r = Analyzer().analyze(program);
  ASSERT_EQ(r.count(kEmptyComposite), 1);
  EXPECT_FALSE(r.clean());
}

TEST(HierAnalysis, CompositeWithANullBodyIsReported) {
  core::HierGraph program;
  const core::TaskId loop = program.graph.add_task(core::MTask("loop", 1.0e9));
  program.sub[loop] = nullptr;
  EXPECT_EQ(Analyzer().analyze(program).count(kEmptyComposite), 1);
}

TEST(HierAnalysis, CompositeWithABasicBodyTaskIsCleanAndRecursedInto) {
  core::HierGraph program;
  const core::TaskId loop = program.graph.add_task(core::MTask("loop", 1.0e9));
  auto body = std::make_unique<core::HierGraph>();
  // The body carries a WAW race so the recursion itself is observable.
  body->graph.add_task(task_with("i1", {output("k", 64)}));
  body->graph.add_task(task_with("i2", {output("k", 64)}));
  program.sub[loop] = std::move(body);
  const Report r = Analyzer().analyze(program);
  EXPECT_EQ(r.count(kEmptyComposite), 0);
  ASSERT_EQ(r.count(kRaceWaw), 1);
  // The nested finding is scoped to the composite's name.
  EXPECT_EQ(r.diagnostics.front().scope, "'loop'");
}

// ---- PTA023: degenerate chain (warning) ----

TEST(HygienePass, ChainMixingVeryDifferentMaxCoresIsWarned) {
  core::TaskGraph g;
  core::MTask narrow("narrow", 1.0e9);
  narrow.set_max_cores(1);
  core::MTask wide("wide", 1.0e9);
  wide.set_max_cores(8);  // >= chain_clamp_factor (4) * 1
  const core::TaskId a = g.add_task(std::move(narrow));
  const core::TaskId b = g.add_task(std::move(wide));
  g.add_edge(a, b);
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kDegenerateChain), 1);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::Warning);
  EXPECT_EQ(r.diagnostics.front().tasks,
            (std::vector<core::TaskId>{a, b}));
}

TEST(HygienePass, ChainWithSimilarMaxCoresIsNotWarned) {
  core::TaskGraph g;
  core::MTask a_task("a", 1.0e9);
  a_task.set_max_cores(2);
  core::MTask b_task("b", 1.0e9);
  b_task.set_max_cores(4);  // < 4 * 2
  const core::TaskId a = g.add_task(std::move(a_task));
  const core::TaskId b = g.add_task(std::move(b_task));
  g.add_edge(a, b);
  EXPECT_EQ(analyze(g).count(kDegenerateChain), 0);
}

// ---- PTA030: broken task profile ----

TEST(ProfilePass, NegativeWorkIsReported) {
  core::TaskGraph g;
  g.add_task(core::MTask("bad", -1.0));
  const Report r = analyze(g);
  ASSERT_GE(r.count(kBadTaskProfile), 1);
  EXPECT_FALSE(r.clean());
}

TEST(ProfilePass, NonPositiveMaxCoresIsReported) {
  core::TaskGraph g;
  core::MTask t("bad", 1.0e9);
  t.set_max_cores(0);
  g.add_task(std::move(t));
  EXPECT_GE(analyze(g).count(kBadTaskProfile), 1);
}

TEST(ProfilePass, NegativeCollectiveRepeatIsReported) {
  core::TaskGraph g;
  core::MTask t("bad", 1.0e9);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 1024, -1});
  g.add_task(std::move(t));
  EXPECT_GE(analyze(g).count(kBadTaskProfile), 1);
}

TEST(ProfilePass, WellFormedProfileIsClean) {
  core::TaskGraph g;
  core::MTask t("ok", 1.0e9);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 1024, 2});
  g.add_task(std::move(t));
  const Report r = analyze(g);
  EXPECT_EQ(r.count(kBadTaskProfile), 0);
  EXPECT_TRUE(r.clean());
}

// ---- PTA031: broken cost model ----

TEST(CostPass, NegativeTaskTimeIsReported) {
  core::TaskGraph g;
  g.add_task(core::MTask("t", 1.0e9));
  arch::MachineSpec spec = arch::chic();
  spec.core_efficiency = -1.0;  // sustained flop rate < 0 => T(M, q) < 0
  const Report r =
      Analyzer().analyze(g, arch::Machine(spec), spec.total_cores());
  ASSERT_GE(r.count(kBadCostModel), 1);
  EXPECT_FALSE(r.clean());
}

TEST(CostPass, RealMachinePresetIsClean) {
  core::TaskGraph g;
  core::MTask t("t", 1.0e9);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allreduce,
                                core::CommScope::Group, 4096, 1});
  g.add_task(std::move(t));
  const arch::Machine machine{arch::chic()};
  const Report r = Analyzer().analyze(g, machine, machine.total_cores());
  EXPECT_EQ(r.count(kBadCostModel), 0);
  EXPECT_TRUE(r.clean());
}

// ---- PTA032: zero-cost task (warning) ----

TEST(ProfilePass, ZeroWorkZeroCommTaskIsWarned) {
  core::TaskGraph g;
  g.add_task(core::MTask("noop", 0.0));
  const Report r = analyze(g);
  ASSERT_EQ(r.count(kZeroCostTask), 1);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::Warning);
  EXPECT_TRUE(r.clean());
}

TEST(ProfilePass, MarkersAndWorkingTasksAreNotZeroCostWarnings) {
  core::TaskGraph g;
  g.add_task(core::MTask("real", 1.0e9));
  g.add_start_stop_markers();  // markers have zero work by design
  EXPECT_EQ(analyze(g).count(kZeroCostTask), 0);
}

// ---- PTA040: idle cores (warning) ----

sched::LayeredSchedule identity_schedule(const core::TaskGraph& g,
                                         int total_cores) {
  sched::LayeredSchedule s;
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

TEST(ScheduleLint, LayerGroupWithoutTasksIsAnIdleCoreWarning) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  g.add_task(core::MTask("b", 1.0e9));
  sched::LayeredSchedule s = identity_schedule(g, 4);
  sched::ScheduledLayer layer;
  layer.tasks = {0, 1};
  layer.group_sizes = {2, 2};
  layer.task_group = {0, 0};  // group 1 never runs anything
  s.layers.push_back(std::move(layer));
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(s, cm);
  ASSERT_EQ(r.count(kIdleCores), 1);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::Warning);
}

TEST(ScheduleLint, FullyUsedLayerGroupsAreClean) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  g.add_task(core::MTask("b", 1.0e9));
  sched::LayeredSchedule s = identity_schedule(g, 4);
  sched::ScheduledLayer layer;
  layer.tasks = {0, 1};
  layer.group_sizes = {2, 2};
  layer.task_group = {0, 1};
  s.layers.push_back(std::move(layer));
  const cost::CostModel cm{arch::Machine(arch::chic())};
  EXPECT_EQ(Analyzer().lint(s, cm).count(kIdleCores), 0);
}

TEST(ScheduleLint, GanttCoresNoSlotUsesAreAnIdleCoreWarning) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  sched::GanttSchedule s;
  s.total_cores = 4;
  s.slots.resize(1);
  s.slots[0] = {{0, 1}, 0.0, 1.0};  // cores 2 and 3 never used
  s.makespan = 1.0;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(g, s, cm);
  ASSERT_EQ(r.count(kIdleCores), 1);
  EXPECT_NE(r.diagnostics.front().message.find("2 of 4"), std::string::npos);
}

TEST(ScheduleLint, GanttUsingEveryCoreIsClean) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  sched::GanttSchedule s;
  s.total_cores = 2;
  s.slots.resize(1);
  s.slots[0] = {{0, 1}, 0.0, 1.0};
  s.makespan = 1.0;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  EXPECT_EQ(Analyzer().lint(g, s, cm).count(kIdleCores), 0);
}

// ---- PTA041: re-distribution dominated (warning) ----

/// a -> b moving a 1 MiB parameter between disjoint core sets.
core::TaskGraph redistribution_graph() {
  core::TaskGraph g;
  const core::TaskId a =
      g.add_task(task_with("a", {output("x", std::size_t{1} << 20)}));
  const core::TaskId b =
      g.add_task(task_with("b", {input("x", std::size_t{1} << 20)}));
  g.add_edge(a, b);
  return g;
}

TEST(ScheduleLint, RedistributionDwarfingTheMakespanIsWarned) {
  const core::TaskGraph g = redistribution_graph();
  sched::GanttSchedule s;
  s.total_cores = 2;
  s.slots.resize(2);
  s.slots[0] = {{0}, 0.0, 1e-9};
  s.slots[1] = {{1}, 1e-9, 2e-9};
  s.makespan = 2e-9;  // moving 1 MiB takes far longer than this
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(g, s, cm);
  ASSERT_EQ(r.count(kRedistributionDominated), 1);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::Warning);
}

TEST(ScheduleLint, RedistributionSmallAgainstTheMakespanIsClean) {
  const core::TaskGraph g = redistribution_graph();
  sched::GanttSchedule s;
  s.total_cores = 2;
  s.slots.resize(2);
  s.slots[0] = {{0}, 0.0, 10.0};
  s.slots[1] = {{1}, 10.0, 20.0};
  s.makespan = 20.0;  // seconds; the 1 MiB move is negligible
  const cost::CostModel cm{arch::Machine(arch::chic())};
  EXPECT_EQ(Analyzer().lint(g, s, cm).count(kRedistributionDominated), 0);
}

// ---- PTA050/051/060/061: ordering and allocation-sanity tiers ----

/// Canonical Schedule over `g` with an identity contraction; the caller
/// fills in slots, allocation, and (optionally) layers.
sched::Schedule canonical_schedule(const core::TaskGraph& g, int total_cores) {
  sched::Schedule s;
  s.strategy = "test";
  s.layered = identity_schedule(g, total_cores);
  s.gantt.total_cores = total_cores;
  s.gantt.slots.resize(static_cast<std::size_t>(g.num_tasks()));
  s.allocation.assign(static_cast<std::size_t>(g.num_tasks()), 1);
  return s;
}

TEST(OrderingPass, CoreOrderContradictingPrecedenceIsADeadlock) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  g.add_edge(a, b);
  sched::Schedule s = canonical_schedule(g, 1);
  // Core 0 runs b before a, but the graph orders a before b: the combined
  // precedence order has the cycle a -> b -> a.
  s.gantt.slots[0] = {{0}, 1.0, 2.0};
  s.gantt.slots[1] = {{0}, 0.0, 1.0};
  s.gantt.makespan = 2.0;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(s, cm);
  ASSERT_GE(r.count(kOrderingDeadlock), 1);
  EXPECT_FALSE(r.clean());
}

TEST(OrderingPass, CoreOrderAgreeingWithPrecedenceIsClean) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  g.add_edge(a, b);
  sched::Schedule s = canonical_schedule(g, 1);
  s.gantt.slots[0] = {{0}, 0.0, 1.0};
  s.gantt.slots[1] = {{0}, 1.0, 2.0};
  s.gantt.makespan = 2.0;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  EXPECT_EQ(Analyzer().lint(s, cm).count(kOrderingDeadlock), 0);
}

TEST(OrderingPass, RedistributionAgainstTheLayerOrderIsReported) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(task_with("a", {output("x", 64)}));
  const core::TaskId b = g.add_task(task_with("b", {input("x", 64)}));
  g.add_edge(a, b);
  sched::Schedule s = canonical_schedule(g, 1);
  // Slots respect precedence, but the layer list is reversed: 'x' would be
  // re-distributed from layer 1 back into layer 0.
  s.gantt.slots[static_cast<std::size_t>(a)] = {{0}, 0.0, 1.0};
  s.gantt.slots[static_cast<std::size_t>(b)] = {{0}, 1.0, 2.0};
  s.gantt.makespan = 2.0;
  sched::ScheduledLayer first;
  first.tasks = {b};
  first.group_sizes = {1};
  first.task_group = {0};
  sched::ScheduledLayer second;
  second.tasks = {a};
  second.group_sizes = {1};
  second.task_group = {0};
  s.layered.layers = {first, second};
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(s, cm);
  ASSERT_GE(r.count(kLayerOrderReversal), 1);
  EXPECT_EQ(r.count(kOrderingDeadlock), 0);  // the Gantt order itself is fine
}

TEST(OrderingPass, RedistributionAlongTheLayerOrderIsClean) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(task_with("a", {output("x", 64)}));
  const core::TaskId b = g.add_task(task_with("b", {input("x", 64)}));
  g.add_edge(a, b);
  sched::Schedule s = canonical_schedule(g, 1);
  s.gantt.slots[static_cast<std::size_t>(a)] = {{0}, 0.0, 1.0};
  s.gantt.slots[static_cast<std::size_t>(b)] = {{0}, 1.0, 2.0};
  s.gantt.makespan = 2.0;
  sched::ScheduledLayer first;
  first.tasks = {a};
  first.group_sizes = {1};
  first.task_group = {0};
  sched::ScheduledLayer second;
  second.tasks = {b};
  second.group_sizes = {1};
  second.task_group = {0};
  s.layered.layers = {first, second};
  const cost::CostModel cm{arch::Machine(arch::chic())};
  EXPECT_EQ(Analyzer().lint(s, cm).count(kLayerOrderReversal), 0);
}

TEST(AllocationSanity, MakespanFarPastTheLowerBoundIsWarned) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  sched::Schedule s = canonical_schedule(g, 2);
  // 1e9 seconds for a task a single CHiC core finishes in well under a
  // second: orders of magnitude past alpha x the symbolic lower bound.
  s.gantt.slots[0] = {{0}, 0.0, 1.0e9};
  s.gantt.makespan = 1.0e9;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(s, cm);
  ASSERT_GE(r.count(kMakespanBlowup), 1);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == kMakespanBlowup) {
      EXPECT_EQ(d.severity, Severity::Warning);
    }
  }
}

TEST(AllocationSanity, GroupPastTheMonotonicSpeedupRegionIsWarned) {
  core::TaskGraph g;
  core::MTask t("chatty", 1.0);  // one flop of work...
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group,
                                std::size_t{1} << 20, 8});  // ...8 MiB moved
  g.add_task(std::move(t));
  sched::Schedule s = canonical_schedule(g, 2);
  // Two cores spend longer on the collective than one core would on the
  // whole task: the second core slows the task down.
  s.gantt.slots[0] = {{0, 1}, 0.0, 1.0};
  s.gantt.makespan = 1.0;
  s.allocation = {2};
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer().lint(s, cm);
  ASSERT_GE(r.count(kNonMonotonicAllocation), 1);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == kNonMonotonicAllocation) {
      EXPECT_EQ(d.severity, Severity::Warning);
    }
  }
}

TEST(AllocationSanity, RealLayerScheduleHasNoOrderingOrAllocationFindings) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 2.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  const core::TaskId c = g.add_task(core::MTask("c", 1.5e9));
  const core::TaskId d = g.add_task(core::MTask("d", 2.5e9));
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.add_start_stop_markers();
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const sched::Schedule s =
      sched::SchedulerRegistry::instance().make("layer", cm)->run(g, 4);
  const Report r = Analyzer().lint(s, cm);
  EXPECT_EQ(r.count(kOrderingDeadlock), 0);
  EXPECT_EQ(r.count(kLayerOrderReversal), 0);
  EXPECT_EQ(r.count(kMakespanBlowup), 0);
  EXPECT_EQ(r.count(kNonMonotonicAllocation), 0);
}

TEST(AllocationSanity, DisabledTiersEmitNothing) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0e9));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0e9));
  g.add_edge(a, b);
  sched::Schedule s = canonical_schedule(g, 1);
  s.gantt.slots[0] = {{0}, 1.0, 2.0};   // deadlock shape...
  s.gantt.slots[1] = {{0}, 0.0, 1.0};
  s.gantt.makespan = 1.0e9;             // ...and a makespan blowup
  AnalyzerOptions options;
  options.ordering_checks = false;
  options.allocation_sanity = false;
  const cost::CostModel cm{arch::Machine(arch::chic())};
  const Report r = Analyzer(options).lint(s, cm);
  EXPECT_EQ(r.count(kOrderingDeadlock), 0);
  EXPECT_EQ(r.count(kMakespanBlowup), 0);
  EXPECT_EQ(r.count(kNonMonotonicAllocation), 0);
}

// ---- report plumbing and rendering ----

TEST(Diagnostics, EveryCodeHasADescription) {
  for (const std::string_view code : all_codes()) {
    EXPECT_FALSE(describe(code).empty()) << code;
  }
  EXPECT_TRUE(describe("PTA999").empty());
}

TEST(Diagnostics, RenderTextShowsSeverityCodeAndCounts) {
  core::TaskGraph g;
  g.add_task(task_with("w", {output("x", 64)}));
  g.add_task(task_with("r", {input("x", 64)}));
  const Report r = analyze(g);
  const std::string text = render_text(r);
  EXPECT_NE(text.find("error[PTA002]"), std::string::npos) << text;
  EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
}

TEST(Diagnostics, RenderJsonCarriesCountsTasksAndVars) {
  core::TaskGraph g;
  g.add_task(task_with("w", {output("x", 64)}));
  g.add_task(task_with("r", {input("x", 64)}));
  const std::string json = render_json(analyze(g));
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"PTA002\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"w\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"x\""), std::string::npos) << json;
}

TEST(Diagnostics, MergePrefixesNestedScopes) {
  Report inner;
  Diagnostic d;
  d.code = std::string(kRaceWaw);
  d.scope = "'body'";
  inner.diagnostics.push_back(d);
  Report outer;
  outer.merge(std::move(inner), "'loop'");
  ASSERT_EQ(outer.diagnostics.size(), 1u);
  EXPECT_EQ(outer.diagnostics.front().scope, "'loop'/'body'");
}

TEST(AnalyzerOptionsTest, DisabledPassesEmitNothing) {
  core::TaskGraph g;
  g.add_task(task_with("w1", {output("x", 64)}));
  g.add_task(task_with("w2", {output("x", 64)}));
  AnalyzerOptions options;
  options.race_detection = false;
  options.size_consistency = false;
  options.graph_hygiene = false;
  options.cost_sanity = false;
  EXPECT_TRUE(Analyzer(options).analyze(g).diagnostics.empty());
}

}  // namespace
}  // namespace ptask::analysis
