// Tests for the timeline evaluator: analytic and simulated makespans of
// mapped schedules, re-distribution handling, and hybrid execution.

#include <gtest/gtest.h>

#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 16) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

struct Mapped {
  LayeredSchedule schedule;
  std::vector<cost::LayerLayout> layouts;
};

Mapped schedule_and_map(const core::TaskGraph& g, const arch::Machine& m,
                        const cost::CostModel& cm, int cores,
                        map::Strategy strategy) {
  Mapped mapped;
  mapped.schedule = Pipeline::algorithm1(cm).run(g, cores).layered;
  mapped.layouts = map::map_schedule(mapped.schedule, m, strategy);
  return mapped;
}

TEST(Timeline, AnalyticMakespanSumsLayers) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 14;
  spec.stages = 4;
  spec.iterations = 2;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 32,
                                         map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  TimelineOptions opts;
  opts.include_redistribution = false;
  const TimelineResult result =
      eval.evaluate(mapped.schedule, mapped.layouts, opts);
  double sum = 0.0;
  for (double t : result.layer_times) sum += t;
  EXPECT_DOUBLE_EQ(result.makespan, sum);
  EXPECT_EQ(result.layer_times.size(), mapped.schedule.layers.size());
}

TEST(Timeline, RedistributionEdgesFoundForEpol) {
  // EPOL: the combine consumes V1..VR produced by the chains.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 14;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 16,
                                         map::Strategy::Consecutive);
  const std::vector<RedistributionEdge> edges =
      redistribution_edges(mapped.schedule);
  // One edge per approximation chain (V_i) into the combine.
  int v_edges = 0;
  for (const RedistributionEdge& e : edges) {
    if (e.param_name.rfind("V", 0) == 0) ++v_edges;
  }
  EXPECT_EQ(v_edges, 4);
}

TEST(Timeline, RedistributionCostsAppearOnlyAcrossGroups) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 16;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const TimelineEvaluator eval(cm);

  // Task-parallel schedule: V_i live on group i, combine on all cores ->
  // re-distribution time > 0.
  const Mapped tp = schedule_and_map(spec.step_graph(), m, cm, 16,
                                     map::Strategy::Consecutive);
  const TimelineResult tp_result = eval.evaluate(tp.schedule, tp.layouts);

  // Data-parallel schedule: everything on all cores, replicated -> free.
  const LayeredSchedule dp =
      DataParallelScheduler(cm).schedule(spec.step_graph(), 16);
  const std::vector<cost::LayerLayout> dp_layouts =
      map::map_schedule(dp, m, map::Strategy::Consecutive);
  const TimelineResult dp_result = eval.evaluate(dp, dp_layouts);

  if (tp.schedule.layers.front().num_groups() > 1) {
    EXPECT_GT(tp_result.redistribution_time, 0.0);
  }
  EXPECT_DOUBLE_EQ(dp_result.redistribution_time, 0.0);
}

TEST(Timeline, SimulationAndAnalyticAgreeOnOrderOfMagnitude) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 15;
  spec.stages = 4;
  spec.iterations = 2;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 32,
                                         map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  const TimelineResult analytic = eval.evaluate(mapped.schedule, mapped.layouts);
  const sim::SimResult simulated =
      eval.simulate(mapped.schedule, mapped.layouts);
  EXPECT_GT(simulated.makespan, 0.0);
  EXPECT_LT(simulated.makespan, analytic.makespan * 5.0);
  EXPECT_GT(simulated.makespan, analytic.makespan / 5.0);
}

TEST(Timeline, SimulationIsDeterministic) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PAB;
  spec.n = 1 << 14;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 16,
                                         map::Strategy::Scattered);
  const TimelineEvaluator eval(cm);
  const double a = eval.simulate(mapped.schedule, mapped.layouts).makespan;
  const double b = eval.simulate(mapped.schedule, mapped.layouts).makespan;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Timeline, ConsecutiveMappingBeatsScatteredForGroupHeavySolver) {
  // DIIRK is dominated by group-internal broadcasts: consecutive must win
  // in both the analytic and the simulated evaluation (Fig. 15).
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::DIIRK;
  spec.n = 1 << 12;
  spec.stages = 4;
  spec.iterations = 2;
  spec.inner_iterations = 2;
  const arch::Machine m = machine(32);
  const cost::CostModel cm(m);
  const core::TaskGraph g = spec.step_graph();
  const TimelineEvaluator eval(cm);

  const Mapped cons =
      schedule_and_map(g, m, cm, 64, map::Strategy::Consecutive);
  const Mapped scat = schedule_and_map(g, m, cm, 64, map::Strategy::Scattered);
  EXPECT_LT(eval.evaluate(cons.schedule, cons.layouts).makespan,
            eval.evaluate(scat.schedule, scat.layouts).makespan);
  EXPECT_LT(eval.simulate(cons.schedule, cons.layouts).makespan,
            eval.simulate(scat.schedule, scat.layouts).makespan);
}

TEST(Timeline, HybridReducesGlobalTrafficForDataParallelIrk) {
  // Fig. 18 (left): the hybrid data-parallel IRK beats pure MPI because the
  // global allgathers involve one rank per node instead of four.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 16;
  spec.stages = 4;
  spec.iterations = 2;
  const arch::Machine m = machine(32);
  const cost::CostModel cm(m);
  const LayeredSchedule dp =
      DataParallelScheduler(cm).schedule(spec.step_graph(), 128);
  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(dp, m, map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  TimelineOptions pure;
  TimelineOptions hybrid;
  hybrid.threads_per_rank = 4;
  EXPECT_LT(eval.evaluate(dp, layouts, hybrid).makespan,
            eval.evaluate(dp, layouts, pure).makespan);
}

TEST(Timeline, HybridSimulationReducesNicTrafficForDataParallelIrk) {
  // The hybrid effect must also show up in the discrete-event path: fewer
  // ranks in the global allgathers -> less per-node NIC traffic -> shorter
  // simulated makespan.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 16;
  spec.stages = 4;
  spec.iterations = 2;
  const arch::Machine m = machine(32);
  const cost::CostModel cm(m);
  const LayeredSchedule dp =
      DataParallelScheduler(cm).schedule(spec.step_graph(), 128);
  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(dp, m, map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  TimelineOptions pure;
  TimelineOptions hybrid;
  hybrid.threads_per_rank = 4;
  const sim::SimResult sp = eval.simulate(dp, layouts, pure);
  const sim::SimResult sh = eval.simulate(dp, layouts, hybrid);
  EXPECT_LT(sh.makespan, sp.makespan);
  EXPECT_LT(sh.traffic.bytes_inter_node, sp.traffic.bytes_inter_node);
}

TEST(Timeline, HybridHurtsBroadcastHeavyDataParallelDiirk) {
  // Fig. 18 (right): data-parallel DIIRK slows down under hybrid execution
  // because each of its many broadcasts pays a team fork/join.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::DIIRK;
  spec.n = 1 << 12;
  spec.stages = 4;
  spec.iterations = 2;
  spec.inner_iterations = 3;
  const arch::Machine m = machine(32);
  const cost::CostModel cm(m);
  const LayeredSchedule dp =
      DataParallelScheduler(cm).schedule(spec.step_graph(), 128);
  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(dp, m, map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  TimelineOptions pure;
  TimelineOptions hybrid;
  hybrid.threads_per_rank = 4;
  EXPECT_GT(eval.evaluate(dp, layouts, hybrid).makespan,
            eval.evaluate(dp, layouts, pure).makespan);
}

TEST(Timeline, MaxExplicitRepeatsKeepsSimulationTractable) {
  // DIIRK with thousands of broadcasts must still simulate quickly; the
  // residual repetitions are charged as busy time, so the makespan remains
  // close to the fully analytic value.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::DIIRK;
  spec.n = 1 << 12;
  spec.stages = 4;
  spec.iterations = 2;
  spec.inner_iterations = 2;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 32,
                                         map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  TimelineOptions opts;
  opts.max_explicit_repeats = 2;
  const sim::SimResult result =
      eval.simulate(mapped.schedule, mapped.layouts, opts);
  EXPECT_GT(result.makespan, 0.0);
  // The explicit message count stays far below (n-1)*I lowered messages.
  EXPECT_LT(result.transfers, 100000u);
}

TEST(Timeline, LayoutCountMustMatch) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PAB;
  spec.n = 1 << 12;
  spec.stages = 4;
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const Mapped mapped = schedule_and_map(spec.step_graph(), m, cm, 16,
                                         map::Strategy::Consecutive);
  const TimelineEvaluator eval(cm);
  std::vector<cost::LayerLayout> wrong;
  EXPECT_THROW(eval.evaluate(mapped.schedule, wrong), std::invalid_argument);
  EXPECT_THROW(eval.simulate(mapped.schedule, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace ptask::sched
