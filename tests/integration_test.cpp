// End-to-end integration tests: specification -> scheduling -> mapping ->
// simulation, and real execution of scheduled M-task programs on the
// shared-memory runtime with schedule-independent results.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ptask/npb/multizone.hpp"
#include "ptask/npb/stencil.hpp"
#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/epol.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask {
namespace {

arch::Machine machine(int nodes = 16) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

// ---------------------------------------------------------------------------
// Full pipeline: every solver graph goes through scheduling, all three
// mapping strategies, validation, analytic evaluation, and simulation.
// ---------------------------------------------------------------------------

struct PipelineCase {
  ode::Method method;
  int cores;
  map::Strategy strategy;
  int d;
};

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, SpecToSimulation) {
  const PipelineCase& c = GetParam();
  ode::SolverGraphSpec spec;
  spec.method = c.method;
  spec.n = 1 << 13;
  spec.stages = 4;
  spec.iterations = 2;
  spec.inner_iterations = 2;
  const core::TaskGraph g = spec.step_graph();

  const arch::Machine m = machine(c.cores / 4);
  const cost::CostModel cm(m);
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cm).run(g, c.cores).layered;
  ASSERT_TRUE(sched::validate(schedule, g).ok());

  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(schedule, m, c.strategy, c.d);
  const sched::TimelineEvaluator eval(cm);
  const sched::TimelineResult analytic = eval.evaluate(schedule, layouts);
  const sim::SimResult simulated = eval.simulate(schedule, layouts);
  EXPECT_GT(analytic.makespan, 0.0);
  EXPECT_GT(simulated.makespan, 0.0);
  EXPECT_TRUE(std::isfinite(simulated.makespan));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsStrategies, PipelineTest,
    ::testing::Values(
        PipelineCase{ode::Method::EPOL, 32, map::Strategy::Consecutive, 1},
        PipelineCase{ode::Method::EPOL, 32, map::Strategy::Scattered, 1},
        PipelineCase{ode::Method::IRK, 32, map::Strategy::Mixed, 2},
        PipelineCase{ode::Method::DIIRK, 16, map::Strategy::Consecutive, 1},
        PipelineCase{ode::Method::PAB, 64, map::Strategy::Scattered, 1},
        PipelineCase{ode::Method::PABM, 64, map::Strategy::Mixed, 2}));

// ---------------------------------------------------------------------------
// Real execution: one EPOL time step as a scheduled M-task program on the
// shared-memory runtime.  The numerical result must be identical to the
// sequential solver, for every schedule and group structure.
// ---------------------------------------------------------------------------

class EpolRuntimeProgram {
 public:
  EpolRuntimeProgram(const ode::OdeSystem& system, int r, double t, double h,
                     std::vector<double> y)
      : system_(&system),
        r_(r),
        t_(t),
        h_(h),
        y_(std::move(y)),
        approx_(static_cast<std::size_t>(r)) {}

  /// Builds the step graph (same shape as ode::SolverGraphSpec) and the
  /// matching task functions over this program's shared state.
  core::TaskGraph build_graph() {
    ode::SolverGraphSpec spec = ode::make_spec(ode::Method::EPOL, *system_, r_);
    return spec.step_graph();
  }

  std::vector<rt::TaskFn> build_functions(const core::TaskGraph& graph) {
    std::vector<rt::TaskFn> fns(static_cast<std::size_t>(graph.num_tasks()));
    for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
      const std::string& name = graph.task(id).name();
      if (name.rfind("step(", 0) == 0) {
        const int i = std::stoi(name.substr(5));
        const std::size_t comma = name.find(',');
        const int j = std::stoi(name.substr(comma + 1));
        fns[static_cast<std::size_t>(id)] = [this, i, j](rt::ExecContext& ctx) {
          micro_step(ctx, i, j);
        };
      } else if (name == "combine") {
        fns[static_cast<std::size_t>(id)] = [this](rt::ExecContext& ctx) {
          if (ctx.group_rank == 0) {
            result_ = ode::Epol::combine(std::move(approx_));
          }
          ctx.comm->barrier(ctx.group_rank);
        };
      }
    }
    return fns;
  }

  const std::vector<double>& result() const { return result_; }

 private:
  /// SPMD micro step: block-distributed Euler update with a group allgather
  /// standing in for the multi-broadcast of the distributed implementation.
  void micro_step(rt::ExecContext& ctx, int i, int j) {
    const std::size_t n = system_->size();
    std::vector<double>& v = approx_[static_cast<std::size_t>(i - 1)];
    if (j == 1 && ctx.group_rank == 0) v = y_;  // read eta
    ctx.comm->barrier(ctx.group_rank);

    // Block partition of the components over the group.
    const std::size_t q = static_cast<std::size_t>(ctx.group_size);
    const std::size_t rank = static_cast<std::size_t>(ctx.group_rank);
    const std::size_t chunk = (n + q - 1) / q;
    const std::size_t begin = std::min(rank * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);

    const double micro_h = h_ / static_cast<double>(i);
    const double tau = t_ + static_cast<double>(j - 1) * micro_h;
    std::vector<double> f(n);
    system_->eval(tau, v, f, begin, end);
    // Local update into this rank's disjoint block; the closing barrier
    // publishes the blocks to the group (the shared-memory realization of
    // the multi-broadcast the distributed version would perform here).
    ctx.comm->barrier(ctx.group_rank);
    for (std::size_t k = begin; k < end; ++k) {
      v[k] += micro_h * f[k];
    }
    ctx.comm->barrier(ctx.group_rank);
  }

  const ode::OdeSystem* system_;
  int r_;
  double t_, h_;
  std::vector<double> y_;
  std::vector<std::vector<double>> approx_;
  std::vector<double> result_;
};

class EpolRuntimeTest : public ::testing::TestWithParam<int> {};

TEST_P(EpolRuntimeTest, ScheduledExecutionMatchesSequentialSolver) {
  const int fixed_groups = GetParam();
  const ode::Bruss2D sys(8);  // n = 128
  const int r = 4;
  const double t0 = 0.0, h = 0.001;
  const std::vector<double> y0 = sys.initial_state();

  // Sequential reference step.
  ode::Epol reference(r);
  std::vector<double> expected = y0;
  reference.step(sys, t0, h, expected);

  // Scheduled parallel step on 8 virtual cores.
  EpolRuntimeProgram program(sys, r, t0, h, y0);
  const core::TaskGraph g = program.build_graph();
  const cost::CostModel cm(machine(4));
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = fixed_groups;
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cm, opts).run(g, 8).layered;
  ASSERT_TRUE(sched::validate(schedule, g).ok());

  std::vector<rt::TaskFn> fns = program.build_functions(g);
  rt::Executor exec(8);
  exec.run(schedule, fns);

  ASSERT_EQ(program.result().size(), expected.size());
  EXPECT_LT(ode::max_norm_diff(program.result(), expected), 1e-12)
      << "schedule with fixed_groups=" << fixed_groups
      << " changed the numerical result";
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, EpolRuntimeTest,
                         ::testing::Values(0, 1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return param_info.param == 0
                                      ? std::string("search")
                                      : "g" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Real multi-zone execution: zones as M-tasks on the runtime; the result is
// independent of the number of groups.
// ---------------------------------------------------------------------------

double run_multizone(int fixed_groups, int steps) {
  const npb::MultiZoneProblem problem = npb::make_problem(npb::MzSolver::SP, 'S');
  const core::TaskGraph g = npb::step_graph(problem);

  std::vector<npb::ZoneField> fields;
  int x0 = 0;
  for (int iy = 0; iy < problem.y_zones; ++iy) {
    x0 = 0;
    for (int ix = 0; ix < problem.x_zones; ++ix) {
      const npb::ZoneGrid& zone =
          problem.zones[static_cast<std::size_t>(iy * problem.x_zones + ix)];
      fields.emplace_back(zone);
      fields.back().initialize(x0, iy * zone.ny, 24, 24);
      x0 += zone.nx;
    }
  }

  const cost::CostModel cm(machine(4));
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = fixed_groups;
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cm, opts).run(g, 8).layered;

  std::vector<rt::TaskFn> fns(static_cast<std::size_t>(g.num_tasks()));
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.task(id).is_marker()) continue;
    const std::size_t z = static_cast<std::size_t>(
        std::stoi(g.task(id).name().substr(4)));
    fns[static_cast<std::size_t>(id)] = [&fields, z](rt::ExecContext& ctx) {
      npb::ZoneField& field = fields[z];
      const int ny = field.grid().ny;
      const int rows = (ny + ctx.group_size - 1) / ctx.group_size;
      field.jacobi_sweep(ctx.group_rank * rows,
                         std::min(ny, (ctx.group_rank + 1) * rows));
      ctx.comm->barrier(ctx.group_rank);
      if (ctx.group_rank == 0) field.commit();
      ctx.comm->barrier(ctx.group_rank);
    };
  }

  rt::Executor exec(8);
  for (int s = 0; s < steps; ++s) exec.run(schedule, fns);

  double checksum = 0.0;
  for (const npb::ZoneField& f : fields) checksum += f.interior_max();
  return checksum;
}

TEST(MultizoneRuntime, ResultIndependentOfGroupCount) {
  const double g1 = run_multizone(1, 3);
  const double g2 = run_multizone(2, 3);
  const double g4 = run_multizone(4, 3);
  EXPECT_DOUBLE_EQ(g1, g2);
  EXPECT_DOUBLE_EQ(g1, g4);
  EXPECT_GT(g1, 0.0);
}

}  // namespace
}  // namespace ptask
