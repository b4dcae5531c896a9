// End-to-end extrapolation (EPOL) demo -- the paper's running example
// (Sections 2.2.3, 3.2, 4.2).
//
//  1. Solve the 2-D Brusselator with the real EPOL solver and verify its
//     convergence order.
//  2. Build the hierarchical specification of Fig. 3 / the task graph of
//     Fig. 4, contract the micro-step chains (Fig. 5), and schedule the time
//     step with R/2 groups (Fig. 6, middle).
//  3. Execute the scheduled step *for real* on the shared-memory M-task
//     runtime and check that the result matches the sequential solver.
//  4. Project per-step times onto the CHiC cluster for the three mapping
//     strategies.
//
// Build & run:  ./build/examples/ode_extrapolation

#include <cmath>
#include <cstdio>

#include "ptask/map/mapping.hpp"
#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/epol.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"

using namespace ptask;

int main() {
  const int R = 4;
  const ode::Bruss2D system(16);  // n = 512
  std::printf("system: %s, n = %zu\n", system.name().c_str(), system.size());

  // --- 1. real numerics ---
  ode::Epol solver(R);
  const double order = ode::estimate_order(solver, system, 0.0, 0.2, 0.02);
  std::printf("EPOL with R=%d approximations: theoretical order %d, "
              "observed order %.2f\n\n", R, solver.order(), order);

  // --- 2. specification -> graph -> schedule ---
  const core::HierGraph program =
      ode::epol_program_spec(system.size(), R,
                             system.eval_flop_per_component(), 100.0);
  std::printf("Fig. 3 specification: %d basic tasks across two levels\n",
              program.total_basic_tasks());

  const ode::SolverGraphSpec spec = ode::make_spec(ode::Method::EPOL, system, R);
  const core::TaskGraph step = spec.step_graph();
  const core::ChainContraction cc = core::contract_linear_chains(step);
  std::printf("step graph: %d tasks; after chain contraction: %d tasks\n",
              step.num_tasks(), cc.contracted.num_tasks());

  arch::MachineSpec machine_spec = arch::chic();
  machine_spec.num_nodes = 2;
  const arch::Machine machine(machine_spec);
  const cost::CostModel cost(machine);
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = R / 2;  // the paper's tp scheme (Fig. 6 middle)
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost, opts).run(step, 8).layered;
  std::printf("\n%s\n", sched::describe(schedule).c_str());

  // --- 3. real execution on the shared-memory runtime ---
  const double t0 = 0.0, h = 0.001;
  const std::vector<double> y0 = system.initial_state();
  std::vector<double> expected = y0;
  solver.step(system, t0, h, expected);

  std::vector<std::vector<double>> approx(static_cast<std::size_t>(R));
  std::vector<double> parallel_result;
  std::vector<rt::TaskFn> fns(static_cast<std::size_t>(step.num_tasks()));
  for (core::TaskId id = 0; id < step.num_tasks(); ++id) {
    const std::string& name = step.task(id).name();
    if (name.rfind("step(", 0) == 0) {
      const int i = std::stoi(name.substr(5));
      const int j = std::stoi(name.substr(name.find(',') + 1));
      fns[static_cast<std::size_t>(id)] = [&, i, j](rt::ExecContext& ctx) {
        std::vector<double>& v = approx[static_cast<std::size_t>(i - 1)];
        if (j == 1 && ctx.group_rank == 0) v = y0;
        ctx.comm->barrier(ctx.group_rank);
        const std::size_t n = system.size();
        const std::size_t q = static_cast<std::size_t>(ctx.group_size);
        const std::size_t chunk = (n + q - 1) / q;
        const std::size_t begin =
            std::min(static_cast<std::size_t>(ctx.group_rank) * chunk, n);
        const std::size_t end = std::min(begin + chunk, n);
        const double micro_h = h / i;
        std::vector<double> f(n);
        system.eval(t0 + (j - 1) * micro_h, v, f, begin, end);
        ctx.comm->barrier(ctx.group_rank);
        for (std::size_t k = begin; k < end; ++k) v[k] += micro_h * f[k];
        ctx.comm->barrier(ctx.group_rank);
      };
    } else if (name == "combine") {
      fns[static_cast<std::size_t>(id)] = [&](rt::ExecContext& ctx) {
        if (ctx.group_rank == 0) {
          parallel_result = ode::Epol::combine(std::move(approx));
        }
        ctx.comm->barrier(ctx.group_rank);
      };
    }
  }
  rt::Executor executor(8);
  executor.run(schedule, fns);
  const double diff = ode::max_norm_diff(parallel_result, expected);
  std::printf("scheduled parallel step vs sequential solver: max diff %.2e "
              "(%s)\n\n", diff, diff < 1e-12 ? "identical" : "MISMATCH");

  // --- 4. cluster projection ---
  ode::SolverGraphSpec big = spec;
  big.n = 2 * 256 * 256;
  const arch::Machine cluster = arch::Machine(arch::chic()).partition(256);
  const cost::CostModel cluster_cost(cluster);
  sched::LayerSchedulerOptions big_opts;
  big_opts.fixed_groups = R / 2;
  const sched::LayeredSchedule big_schedule =
      sched::Pipeline::algorithm1(cluster_cost, big_opts)
          .run(big.step_graph(), 256)
          .layered;
  const sched::TimelineEvaluator eval(cluster_cost);
  std::printf("projected per-step times on 256 CHiC cores (n = %zu):\n",
              big.n);
  for (auto [label, strategy, d] :
       {std::tuple{"consecutive", map::Strategy::Consecutive, 1},
        std::tuple{"mixed(d=2)", map::Strategy::Mixed, 2},
        std::tuple{"scattered", map::Strategy::Scattered, 1}}) {
    const std::vector<cost::LayerLayout> layouts =
        map::map_schedule(big_schedule, cluster, strategy, d);
    std::printf("  %-12s %8.3f ms\n", label,
                eval.evaluate(big_schedule, layouts).makespan * 1e3);
  }
  return 0;
}
