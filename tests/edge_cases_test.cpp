// Edge-case and option-coverage tests that cut across modules: timeline
// evaluation options, hybrid execution on DSM machines, extreme machine
// shapes, and cost-model corner cases.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ptask/core/spec_builder.hpp"
#include "ptask/cost/hybrid_model.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"
#include "ptask/viz/gantt.hpp"

namespace ptask {
namespace {

arch::Machine machine(int nodes = 8) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

struct Mapped {
  sched::LayeredSchedule schedule;
  std::vector<cost::LayerLayout> layouts;
};

Mapped mapped_irk(const arch::Machine& m, int cores) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 13;
  spec.stages = 4;
  spec.iterations = 2;
  const cost::CostModel cm(m);
  Mapped out;
  out.schedule =
      sched::Pipeline::algorithm1(cm).run(spec.step_graph(), cores).layered;
  out.layouts =
      map::map_schedule(out.schedule, m, map::Strategy::Consecutive);
  return out;
}

TEST(TimelineOptions, DisablingRedistributionLowersTheEstimate) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 15;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  sched::LayerSchedulerOptions so;
  so.fixed_groups = 2;
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm, so).run(spec.step_graph(), 16).layered;
  const auto layouts = map::map_schedule(s, m, map::Strategy::Consecutive);
  const sched::TimelineEvaluator eval(cm);
  sched::TimelineOptions with, without;
  without.include_redistribution = false;
  const double a = eval.evaluate(s, layouts, with).makespan;
  const double b = eval.evaluate(s, layouts, without).makespan;
  EXPECT_GT(a, b);
  EXPECT_DOUBLE_EQ(eval.evaluate(s, layouts, without).redistribution_time,
                   0.0);
}

TEST(TimelineOptions, BarriersBetweenLayersAddTime) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = mapped_irk(m, 16);
  const sched::TimelineEvaluator eval(cm);
  sched::TimelineOptions with, without;
  without.barrier_between_layers = false;
  const double a = eval.simulate(mapped.schedule, mapped.layouts, with).makespan;
  const double b =
      eval.simulate(mapped.schedule, mapped.layouts, without).makespan;
  EXPECT_GE(a, b);
}

TEST(TimelineOptions, MoreExplicitRepeatsRefineTheSimulation) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::DIIRK;
  spec.n = 1 << 10;
  spec.stages = 4;
  spec.iterations = 2;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(spec.step_graph(), 16).layered;
  const auto layouts = map::map_schedule(s, m, map::Strategy::Consecutive);
  const sched::TimelineEvaluator eval(cm);
  sched::TimelineOptions few, many;
  few.max_explicit_repeats = 1;
  many.max_explicit_repeats = 16;
  const sim::SimResult rf = eval.simulate(s, layouts, few);
  const sim::SimResult rm = eval.simulate(s, layouts, many);
  EXPECT_GT(rm.transfers, rf.transfers);  // more lowered messages
  // Both estimates stay in the same ballpark (residual charged as time).
  EXPECT_LT(std::abs(rm.makespan - rf.makespan),
            0.5 * std::max(rm.makespan, rf.makespan));
}

TEST(Hybrid, AltixTeamsMaySpanNodes) {
  // 8 threads per rank on the Altix (4 cores/node): teams span two nodes;
  // the model must classify the span as inter-node and still price it.
  arch::MachineSpec spec = arch::altix();
  spec.num_nodes = 8;
  const arch::Machine m(spec);
  cost::HybridConfig config;
  config.threads_per_rank = 8;
  const cost::HybridCostModel hm(m, config);
  cost::LayerLayout layout;
  cost::GroupLayout g;
  for (int i = 0; i < 16; ++i) g.cores.push_back(i);
  layout.groups.push_back(g);
  EXPECT_EQ(hm.team_span(layout.groups[0], 0), arch::CommLevel::InterNode);
  core::MTask t("t", 1.0e9);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 1 << 20, 2});
  const double hybrid = hm.mapped_task_time(t, layout, 0);
  EXPECT_GT(hybrid, 0.0);
  // DSM-wide teams pay the reduced inter-node efficiency on compute.
  const cost::CostModel pure(m);
  EXPECT_GT(hybrid, pure.symbolic_compute_time(t, 16));
}

TEST(Hybrid, ThreadsPerRankMustDivideEveryGroup) {
  const arch::Machine m = machine();
  cost::HybridConfig config;
  config.threads_per_rank = 4;
  const cost::HybridCostModel hm(m, config);
  cost::LayerLayout layout;
  layout.groups.push_back(cost::GroupLayout{{0, 1, 2, 3, 4, 5}});  // 6 cores
  EXPECT_THROW(hm.rank_layout(layout), std::invalid_argument);
}

TEST(Timeline, HybridEvaluationRequiresDivisibleGroups) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = mapped_irk(m, 24);  // groups of 6 with K=4
  const sched::TimelineEvaluator eval(cm);
  sched::TimelineOptions hybrid;
  hybrid.threads_per_rank = 4;
  if (mapped.schedule.layers.front().group_sizes.front() % 4 != 0) {
    EXPECT_THROW(eval.evaluate(mapped.schedule, mapped.layouts, hybrid),
                 std::invalid_argument);
  }
}

TEST(CostModel, BarrierAndAllreduceOpsArePriceable) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  core::MTask t("sync", 1.0e8);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Barrier,
                                core::CommScope::Group, 0, 3});
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allreduce,
                                core::CommScope::Group, 4096, 2});
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Exchange,
                                core::CommScope::Group, 8192, 1});
  EXPECT_GT(cm.symbolic_comm_time(t, 8, 1, 8), 0.0);
  cost::LayerLayout layout;
  layout.groups.push_back(cost::GroupLayout{{0, 1, 2, 3, 4, 5, 6, 7}});
  EXPECT_GT(cm.mapped_task_time(t, layout, 0),
            cm.symbolic_compute_time(t, 8));
}

TEST(CostModel, SingleCoreGroupHasNoCommunication) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  core::MTask t("t", 1.0e8);
  t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 1 << 20, 5});
  EXPECT_DOUBLE_EQ(cm.symbolic_comm_time(t, 1, 1, 1), 0.0);
  cost::LayerLayout layout;
  layout.groups.push_back(cost::GroupLayout{{0}});
  EXPECT_DOUBLE_EQ(cm.mapped_task_time(t, layout, 0),
                   cm.symbolic_compute_time(t, 1));
}

TEST(Machine, SingleCoreMachineWorksEndToEnd) {
  arch::MachineSpec spec;
  spec.name = "uni";
  spec.num_nodes = 1;
  spec.procs_per_node = 1;
  spec.cores_per_proc = 1;
  spec.core_flops = 1e9;
  spec.intra_processor = {1e-7, 1e10};
  spec.intra_node = {1e-7, 1e10};
  spec.inter_node = {1e-6, 1e9};
  const arch::Machine m(spec);
  const cost::CostModel cm(m);
  core::TaskGraph g;
  g.add_task(core::MTask("only", 1e9));
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 1).layered;
  const auto layouts = map::map_schedule(s, m, map::Strategy::Consecutive);
  const sched::TimelineEvaluator eval(cm);
  EXPECT_NEAR(eval.evaluate(s, layouts).makespan, 1.0, 1e-9);
  EXPECT_NEAR(eval.simulate(s, layouts).makespan, 1.0, 1e-9);
}

TEST(Viz, HandlesEmptyAndTinySchedules) {
  core::TaskGraph g;
  g.add_task(core::MTask("lonely", 1e6));
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 4).layered;
  const sched::GanttSchedule gantt =
      sched::to_gantt(s, [&](core::TaskId id, int q, int groups) {
        return cm.symbolic_task_time(s.contraction.contracted.task(id), q,
                                     groups, 4);
      });
  EXPECT_FALSE(
      viz::ascii_gantt(s.contraction.contracted, gantt).empty());
  EXPECT_FALSE(viz::svg_gantt(s.contraction.contracted, gantt).empty());
  const sim::SimResult empty_result;
  EXPECT_FALSE(viz::ascii_trace(empty_result, 2).empty());
  EXPECT_EQ(viz::trace_csv(empty_result), "kind,rank,peer,start,end,bytes\n");
}

TEST(DataParallel, MatchesLayerSchedulerWithForcedSingleGroup) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PAB;
  spec.n = 1 << 13;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = spec.step_graph();
  const double dp =
      sched::DataParallelScheduler(cm).schedule(g, 16).predicted_makespan;
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = 1;
  const double forced =
      sched::Pipeline::algorithm1(cm, opts).run(g, 16).layered
          .predicted_makespan;
  EXPECT_DOUBLE_EQ(dp, forced);
}

// ---- TaskGraph::add_edge edge cases (chosen behavior, regression-locked):
// self edges and cycle-closing edges throw, duplicates are ignored, ids are
// range-checked.

TEST(TaskGraphEdgeCases, AddEdgeRejectsSelfEdges) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  EXPECT_THROW(g.add_edge(a, a), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(TaskGraphEdgeCases, AddEdgeRejectsCycles) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0));
  const core::TaskId c = g.add_task(core::MTask("c", 1.0));
  g.add_edge(a, b);
  g.add_edge(b, c);
  EXPECT_THROW(g.add_edge(c, a), std::invalid_argument);
  EXPECT_THROW(g.add_edge(b, a), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(TaskGraphEdgeCases, AddEdgeIgnoresDuplicatesAndChecksRange) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0));
  g.add_edge(a, b);
  g.add_edge(a, b);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_THROW(g.add_edge(a, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, b), std::out_of_range);
}

// ---- flatten() edge cases ----

TEST(FlattenEdgeCases, RejectsNonPositiveIterations) {
  core::SpecBuilder spec("p");
  const core::Var x = spec.var("x", 64);
  spec.call(core::MTask("a", 1.0), {}, {x});
  const core::HierGraph program = spec.build();
  EXPECT_THROW(core::flatten(program, 0), std::invalid_argument);
  EXPECT_THROW(core::flatten(program, -3), std::invalid_argument);
}

TEST(FlattenEdgeCases, EmptyCompositeBodyKeepsConnectivity) {
  // A while node whose body contains no basic tasks used to vanish from the
  // flat graph, silently disconnecting its predecessors from its successors.
  // It must now survive as a basic task carrying the composite's identity.
  core::SpecBuilder spec("p");
  const core::Var x = spec.var("x", 64);
  spec.call(core::MTask("pre", 1.0), {}, {x});
  spec.while_loop("empty_loop", {x}, [](core::SpecBuilder&) {}, 5.0);
  spec.call(core::MTask("post", 1.0), {x}, {});
  const core::HierGraph program = spec.build();

  const core::TaskGraph flat = core::flatten(program, 3);
  core::TaskId pre = core::kInvalidTask;
  core::TaskId loop = core::kInvalidTask;
  core::TaskId post = core::kInvalidTask;
  for (core::TaskId id = 0; id < flat.num_tasks(); ++id) {
    if (flat.task(id).name() == "pre") pre = id;
    if (flat.task(id).name() == "empty_loop") loop = id;
    if (flat.task(id).name() == "post") post = id;
  }
  ASSERT_NE(pre, core::kInvalidTask);
  ASSERT_NE(loop, core::kInvalidTask) << "empty composite vanished";
  ASSERT_NE(post, core::kInvalidTask);
  EXPECT_TRUE(flat.reaches(pre, post));
  EXPECT_TRUE(flat.has_edge(pre, loop));
  EXPECT_TRUE(flat.has_edge(loop, post));
}

TEST(FlattenEdgeCases, CompositeWithPredecessorsOnlyBecomesFlatSink) {
  // A composite node that has predecessors but no successors: its body's
  // sinks must end the flat graph, and the composite's incoming edges must
  // attach to the body's sources.
  core::SpecBuilder spec("p");
  const core::Var x = spec.var("x", 64);
  spec.call(core::MTask("pre", 1.0), {}, {x});
  spec.while_loop("tail_loop", {x},
                  [&](core::SpecBuilder& body) {
                    const core::Var y = body.var("x", 64);
                    const core::TaskId s1 =
                        body.call(core::MTask("s1", 1.0), {y}, {y});
                    const core::TaskId s2 =
                        body.call(core::MTask("s2", 1.0), {y}, {y});
                    EXPECT_NE(s1, s2);
                  },
                  2.0);
  const core::HierGraph program = spec.build();

  const core::TaskGraph flat = core::flatten(program, 2);
  core::TaskId pre = core::kInvalidTask;
  int body_copies = 0;
  for (core::TaskId id = 0; id < flat.num_tasks(); ++id) {
    const std::string& name = flat.task(id).name();
    if (name == "pre") pre = id;
    if (name.rfind("s1", 0) == 0 || name.rfind("s2", 0) == 0) ++body_copies;
  }
  ASSERT_NE(pre, core::kInvalidTask);
  EXPECT_EQ(body_copies, 4);  // two body tasks x two iterations
  // pre feeds the first copy's source and every body task is downstream.
  for (core::TaskId id = 0; id < flat.num_tasks(); ++id) {
    if (id == pre) continue;
    EXPECT_TRUE(flat.reaches(pre, id))
        << flat.task(id).name() << " is disconnected from pre";
  }
}

}  // namespace
}  // namespace ptask
