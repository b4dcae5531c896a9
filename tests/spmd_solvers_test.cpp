// Tests for the executable SPMD solver steps: scheduled parallel execution
// on the runtime must reproduce the sequential solvers bit-for-bit, using
// the real group and orthogonal communication structure of the paper's
// task-parallel program versions.

#include <gtest/gtest.h>

#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/epol.hpp"
#include "ptask/ode/irk.hpp"
#include "ptask/ode/schroed.hpp"
#include "ptask/ode/spmd_solvers.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::ode {
namespace {

arch::Machine machine(int nodes = 4) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

sched::LayeredSchedule make_schedule(const core::TaskGraph& g, int cores,
                                     int fixed_groups) {
  const cost::CostModel cm(machine());
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = fixed_groups;
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm, opts).run(g, cores).layered;
  EXPECT_TRUE(sched::validate(s, g).ok());
  return s;
}

// --- EPOL: valid under any schedule ---

class SpmdEpolTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmdEpolTest, MatchesSequentialUnderEveryGroupCount) {
  const Bruss2D system(8);
  const int r = 4;
  const double t0 = 0.1, h = 0.002;
  const std::vector<double> y0 = system.initial_state();

  Epol reference(r);
  std::vector<double> expected = y0;
  reference.step(system, t0, h, expected);

  SpmdEpolStep program(system, r, t0, h, y0);
  const core::TaskGraph g = program.build_graph();
  const sched::LayeredSchedule schedule = make_schedule(g, 8, GetParam());
  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(8);
  exec.run(schedule, fns);
  EXPECT_EQ(program.result().size(), expected.size());
  EXPECT_LT(max_norm_diff(program.result(), expected), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, SpmdEpolTest,
                         ::testing::Values(1, 2, 4));

// --- IRK: the task-parallel schedule with real orthogonal communication ---

TEST(SpmdIrkTest, MatchesSequentialSolver) {
  const Bruss2D system(6);  // n = 72
  const int stages = 2, m = 4;
  const double t0 = 0.0, h = 0.005;
  const std::vector<double> y0 = system.initial_state();

  Irk reference(stages, m);
  std::vector<double> expected = y0;
  reference.step(system, t0, h, expected);

  SpmdIrkStep program(system, stages, m, t0, h, y0);
  const core::TaskGraph g = program.build_graph();
  const sched::LayeredSchedule schedule = make_schedule(g, 8, stages);
  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(8);
  exec.run(schedule, fns);
  ASSERT_EQ(program.result().size(), expected.size());
  EXPECT_LT(max_norm_diff(program.result(), expected), 1e-13);
}

TEST(SpmdIrkTest, FourStagesOnUnevenGroups) {
  // 4 stages on 10 cores: groups of 3,3,2,2 -- orthogonal communicators
  // exist only for the first two positions; the sync protocol must still
  // be correct.
  const Bruss2D system(5);  // n = 50
  const int stages = 4, m = 3;
  const double t0 = 0.0, h = 0.004;
  const std::vector<double> y0 = system.initial_state();

  Irk reference(stages, m);
  std::vector<double> expected = y0;
  reference.step(system, t0, h, expected);

  SpmdIrkStep program(system, stages, m, t0, h, y0);
  const core::TaskGraph g = program.build_graph();
  const cost::CostModel cm(machine());
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = stages;
  opts.adjust_group_sizes = false;
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cm, opts).run(g, 10).layered;
  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(10);
  exec.run(schedule, fns);
  EXPECT_LT(max_norm_diff(program.result(), expected), 1e-13);
}

TEST(SpmdIrkTest, RejectsNonLockstepSchedules) {
  const Bruss2D system(4);
  SpmdIrkStep program(system, 4, 2, 0.0, 0.001, system.initial_state());
  const core::TaskGraph g = program.build_graph();
  // Data-parallel (one group) execution would read uninitialized stage
  // vectors of the not-yet-run stages; the body must refuse.
  const sched::LayeredSchedule schedule = make_schedule(g, 4, 1);
  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(4);
  EXPECT_THROW(exec.run(schedule, fns), std::logic_error);
}

TEST(SpmdIrkTest, WorksOnDenseSystem) {
  const Schroed system(48);
  const int stages = 2, m = 3;
  const std::vector<double> y0 = system.initial_state();
  Irk reference(stages, m);
  std::vector<double> expected = y0;
  reference.step(system, 0.0, 0.01, expected);

  SpmdIrkStep program(system, stages, m, 0.0, 0.01, y0);
  const core::TaskGraph g = program.build_graph();
  const sched::LayeredSchedule schedule = make_schedule(g, 6, stages);
  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(6);
  exec.run(schedule, fns);
  EXPECT_LT(max_norm_diff(program.result(), expected), 1e-13);
}

TEST(SpmdEpolStep, ValidatesInput) {
  const Bruss2D system(4);
  EXPECT_THROW(SpmdEpolStep(system, 2, 0.0, 0.01, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(SpmdIrkStep(system, 2, 0, 0.0, 0.01, system.initial_state()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ptask::ode
