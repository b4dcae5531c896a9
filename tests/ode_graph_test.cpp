// Tests for the ODE solver task-graph generators and the Table 1
// communication-operation counts.

#include <gtest/gtest.h>

#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::ode {
namespace {

arch::Machine machine(int nodes = 16) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

SolverGraphSpec spec_for(Method method, int stages, int m = 2, int inner = 2) {
  SolverGraphSpec spec;
  spec.method = method;
  spec.n = 1 << 14;
  spec.eval_flop_per_component = 14.0;
  spec.stages = stages;
  spec.iterations = m;
  spec.inner_iterations = inner;
  return spec;
}

/// Schedules the step graph with K (stages) fixed groups -- the paper's
/// task-parallel program version.
sched::LayeredSchedule tp_schedule(const SolverGraphSpec& spec, int cores) {
  const cost::CostModel cm(machine());
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = spec.method == Method::EPOL ? spec.stages / 2
                                                  : spec.stages;
  const sched::Pipeline sched = sched::Pipeline::algorithm1(cm, opts);
  return sched.run(spec.step_graph(), cores).layered;
}

sched::LayeredSchedule dp_schedule(const SolverGraphSpec& spec, int cores) {
  const cost::CostModel cm(machine());
  return sched::DataParallelScheduler(cm).schedule(spec.step_graph(), cores);
}

TEST(StepGraph, EpolShape) {
  const SolverGraphSpec spec = spec_for(Method::EPOL, 4);
  const core::TaskGraph g = spec.step_graph();
  EXPECT_EQ(g.num_tasks(), 11);  // 1+2+3+4 micro steps + combine
  // Every micro-step chain ends in the combine.
  const core::TaskId combine = g.num_tasks() - 1;
  EXPECT_EQ(g.task(combine).name(), "combine");
  EXPECT_EQ(g.in_degree(combine), 4);
}

TEST(StepGraph, StageSolversShape) {
  for (Method method : {Method::IRK, Method::DIIRK, Method::PAB,
                        Method::PABM}) {
    const SolverGraphSpec spec = spec_for(method, 4);
    const core::TaskGraph g = spec.step_graph();
    EXPECT_EQ(g.num_tasks(), 5) << to_string(method);  // 4 stages + update
    EXPECT_EQ(g.in_degree(4), 4) << to_string(method);
  }
}

TEST(StepGraph, WorkScalesWithSystemSize) {
  SolverGraphSpec small = spec_for(Method::IRK, 4);
  SolverGraphSpec big = small;
  big.n = small.n * 2;
  EXPECT_NEAR(big.step_graph().total_work_flop(),
              2.0 * small.step_graph().total_work_flop(), 1.0);
}

TEST(StepGraph, MakeSpecPullsSystemProperties) {
  const Bruss2D sys(32);
  const SolverGraphSpec spec = make_spec(Method::PAB, sys, 8);
  EXPECT_EQ(spec.n, sys.size());
  EXPECT_DOUBLE_EQ(spec.eval_flop_per_component,
                   sys.eval_flop_per_component());
  EXPECT_EQ(spec.stages, 8);
}

TEST(StepGraph, Validation) {
  SolverGraphSpec bad = spec_for(Method::IRK, 4);
  bad.n = 0;
  EXPECT_THROW(bad.step_graph(), std::invalid_argument);
  bad = spec_for(Method::IRK, 0);
  EXPECT_THROW(bad.step_graph(), std::invalid_argument);
}

// --- Table 1: communication operation counts per time step ---

TEST(Table1, EpolDataParallel) {
  // dp row: R(R+1)/2 global allgathers, nothing else.
  const int R = 4;
  const CommCounts counts =
      count_comms(dp_schedule(spec_for(Method::EPOL, R), 64));
  EXPECT_EQ(counts.global_allgather, R * (R + 1) / 2);
  EXPECT_EQ(counts.global_bcast, 0);
  EXPECT_EQ(counts.group_allgather, 0);
  EXPECT_EQ(counts.orth_allgather, 0);
}

TEST(Table1, EpolTaskParallel) {
  // tp row: (R+1) group allgathers per group + 1 global bcast.
  const int R = 4;
  const CommCounts counts =
      count_comms(tp_schedule(spec_for(Method::EPOL, R), 64));
  EXPECT_EQ(counts.group_allgather, R + 1);
  EXPECT_EQ(counts.global_bcast, 1);
  EXPECT_EQ(counts.orth_allgather, 0);
  // The combine's own allgather-free execution: only its layer-global ops.
  EXPECT_EQ(counts.global_allgather, 0);
}

TEST(Table1, IrkDataParallel) {
  // dp row: (K*m + 1) global allgathers.
  const int K = 4, m = 3;
  const CommCounts counts =
      count_comms(dp_schedule(spec_for(Method::IRK, K, m), 64));
  EXPECT_EQ(counts.global_allgather, K * m + 1);
  EXPECT_EQ(counts.group_allgather, 0);
  EXPECT_EQ(counts.orth_allgather, 0);
}

TEST(Table1, IrkTaskParallel) {
  // tp row: 1 global + m group + m orthogonal allgathers.
  const int K = 4, m = 3;
  const CommCounts counts =
      count_comms(tp_schedule(spec_for(Method::IRK, K, m), 64));
  EXPECT_EQ(counts.global_allgather, 1);
  EXPECT_EQ(counts.group_allgather, m);
  EXPECT_EQ(counts.orth_allgather, m);
}

TEST(Table1, DiirkDataParallel) {
  // dp row: 1 global allgather + K*(n-1)*I global bcasts.
  const int K = 4, m = 2, I = 2;
  const SolverGraphSpec spec = spec_for(Method::DIIRK, K, m, I);
  const CommCounts counts = count_comms(dp_schedule(spec, 64));
  EXPECT_EQ(counts.global_allgather, 1);
  EXPECT_EQ(counts.global_bcast,
            K * static_cast<int>(spec.n - 1) * I);
  EXPECT_EQ(counts.orth_allgather, 0);
}

TEST(Table1, DiirkTaskParallel) {
  // tp row: 1 global allgather + (n-1)*I group bcasts + m orthogonal.
  const int K = 4, m = 2, I = 2;
  const SolverGraphSpec spec = spec_for(Method::DIIRK, K, m, I);
  const CommCounts counts = count_comms(tp_schedule(spec, 64));
  EXPECT_EQ(counts.global_allgather, 1);
  EXPECT_EQ(counts.group_bcast, static_cast<int>(spec.n - 1) * I);
  EXPECT_EQ(counts.orth_allgather, m);
}

TEST(Table1, PabDataParallel) {
  // dp row: K global allgathers.
  const int K = 8;
  const CommCounts counts =
      count_comms(dp_schedule(spec_for(Method::PAB, K), 64));
  EXPECT_EQ(counts.global_allgather, K);
  EXPECT_EQ(counts.orth_allgather, 0);
}

TEST(Table1, PabTaskParallel) {
  // tp row: 1 group + 1 orthogonal allgather, no global ops.
  const int K = 8;
  const CommCounts counts =
      count_comms(tp_schedule(spec_for(Method::PAB, K), 64));
  EXPECT_EQ(counts.global_allgather, 0);
  EXPECT_EQ(counts.group_allgather, 1);
  EXPECT_EQ(counts.orth_allgather, 1);
}

TEST(Table1, PabmDataParallel) {
  // dp row: K(1+m) global allgathers.
  const int K = 8, m = 2;
  const CommCounts counts =
      count_comms(dp_schedule(spec_for(Method::PABM, K, m), 64));
  EXPECT_EQ(counts.global_allgather, K * (1 + m));
}

TEST(Table1, PabmTaskParallel) {
  // tp row: (1+m) group + 1 orthogonal allgathers.
  const int K = 8, m = 2;
  const CommCounts counts =
      count_comms(tp_schedule(spec_for(Method::PABM, K, m), 64));
  EXPECT_EQ(counts.global_allgather, 0);
  EXPECT_EQ(counts.group_allgather, 1 + m);
  EXPECT_EQ(counts.orth_allgather, 1);
}

// --- hierarchical EPOL specification (Figs. 3/4) ---

TEST(EpolProgramSpec, TwoLevelStructure) {
  const core::HierGraph spec = epol_program_spec(1 << 12, 4, 14.0, 50.0);
  ASSERT_EQ(spec.sub.size(), 1u);
  const core::HierGraph& body = *spec.sub.begin()->second;
  // Body: 10 step tasks + combine + start/stop markers.
  EXPECT_EQ(body.graph.num_tasks(), 11 + 2);
  // Body layering after contraction: steps then combine.
  const core::ChainContraction cc =
      core::contract_linear_chains(body.graph);
  const auto layers = core::greedy_layers(cc.contracted);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].size(), 4u);
}

TEST(EpolProgramSpec, BodyIsSchedulable) {
  const core::HierGraph spec = epol_program_spec(1 << 14, 8, 14.0, 1.0);
  const core::HierGraph& body = *spec.sub.begin()->second;
  const cost::CostModel cm(machine());
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = 4;  // the paper's R/2 scheme (Fig. 6 middle)
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm, opts).run(body.graph, 64).layered;
  ASSERT_GE(s.layers.size(), 2u);
  EXPECT_EQ(s.layers.front().num_groups(), 4);
  EXPECT_TRUE(sched::validate(s, body.graph).ok());
}

}  // namespace
}  // namespace ptask::ode
