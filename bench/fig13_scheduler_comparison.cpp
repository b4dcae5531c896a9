// Reproduces Fig. 13: comparison of the layer-based scheduling algorithm
// (Section 3.2) with CPA, CPR, and pure data parallelism on the CHiC
// cluster.
//
//  * Left: speedups of the PABM method with K = 8 stage vectors (sparse
//    BRUSS2D system) -- CPA must fall far behind because its allocation
//    phase over-allocates the 8 independent stage tasks; CPR must coincide
//    with the task-parallel layer schedule.
//  * Right: per-step execution times of the EPOL method with R = 8
//    approximations -- CPR inflates the longest chain towards a data
//    parallel execution and ends up slower than pure data parallelism.
//
// All schedulers are evaluated under the same symbolic cost model (the
// quantity they optimize); the layered schemes are additionally priced with
// the mapped analytic model under a consecutive mapping, as in the paper.

#include <cstdio>

#include "bench_common.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"

namespace {

using namespace ptask;

struct SchedulerTimes {
  double layered;  // task-parallel layer-based schedule (Algorithm 1)
  double cpa;
  double cpr;
  double dp;
};

/// Evaluates a layered schedule's full cost: predicted layer times plus the
/// re-distribution operations between layers.
double layered_cost(const sched::LayeredSchedule& schedule,
                    const cost::CostModel& cost) {
  const sched::GanttSchedule gantt = sched::to_gantt(
      schedule, [&](core::TaskId id, int q, int groups) {
        return cost.symbolic_task_time(
            schedule.contraction.contracted.task(id), q, groups,
            schedule.total_cores);
      });
  return schedule.predicted_makespan +
         sched::gantt_redistribution_time(schedule.contraction.contracted,
                                          gantt, cost);
}

/// Evaluates a moldable allocation's full cost: the list schedule re-timed
/// with the communication-aware task times plus re-distribution penalties.
double moldable_cost(const core::TaskGraph& g,
                     const std::vector<int>& allocation,
                     const cost::CostModel& cost, int cores) {
  const sched::TaskTimeTable true_table(g, cost, cores,
                                        sched::MoldableCostMode::CommAware);
  const sched::GanttSchedule gantt =
      sched::list_schedule(g, allocation, true_table);
  return gantt.makespan + sched::gantt_redistribution_time(g, gantt, cost);
}

SchedulerTimes compare(const ode::SolverGraphSpec& spec, int cores) {
  arch::MachineSpec machine = arch::chic();
  const arch::Machine part = arch::Machine(machine).partition(cores);
  const cost::CostModel cost(part);
  // All schedulers receive the raw step graph; chain contraction is part of
  // the layer-based algorithm only (Section 3.2, step 1).
  const core::TaskGraph g = spec.step_graph();

  SchedulerTimes times{};
  times.layered = layered_cost(
      sched::Pipeline::algorithm1(cost).run(g, cores).layered, cost);
  times.dp = layered_cost(
      sched::DataParallelScheduler(cost).schedule(g, cores), cost);
  times.cpa = moldable_cost(
      g, sched::CpaScheduler(cost).schedule(g, cores).allocation, cost, cores);
  times.cpr = moldable_cost(
      g, sched::CprScheduler(cost).schedule(g, cores).allocation, cost, cores);
  return times;
}

}  // namespace

int main() {
  // ---- Fig. 13 left: PABM, K = 8, speedups over the sequential step ----
  {
    ode::SolverGraphSpec spec;
    spec.method = ode::Method::PABM;
    spec.n = 2 * 448 * 448;  // BRUSS2D N=448
    spec.eval_flop_per_component = 14.0;
    spec.stages = 8;
    spec.iterations = 2;
    const double seq = bench::sequential_step_time(spec, arch::chic());

    std::printf("Fig. 13 (left): PABM with K=8 stage vectors, BRUSS2D,\n"
                "CHiC cluster -- speedup of one time step\n");
    bench::print_header("speedups",
                        {"cores", "layer-based", "CPA", "CPR", "data-par"});
    for (int cores : {32, 64, 128, 256, 512}) {
      const SchedulerTimes t = compare(spec, cores);
      bench::print_cell(cores);
      bench::print_cell(seq / t.layered);
      bench::print_cell(seq / t.cpa);
      bench::print_cell(seq / t.cpr);
      bench::print_cell(seq / t.dp);
      bench::end_row();
    }
    std::printf("expected shape: CPA clearly lowest (over-allocation of the\n"
                "8 stage tasks); CPR ~ layer-based; data-parallel between.\n");
  }

  // ---- Fig. 13 right: EPOL, R = 8, per-step execution times ----
  {
    ode::SolverGraphSpec spec;
    spec.method = ode::Method::EPOL;
    spec.n = 2 * 448 * 448;
    spec.eval_flop_per_component = 14.0;
    spec.stages = 8;

    std::printf("\nFig. 13 (right): EPOL with R=8 approximations, BRUSS2D,\n"
                "CHiC cluster -- execution time of one time step [ms]\n");
    bench::print_header("per-step times [ms]",
                        {"cores", "layer-based", "CPA", "CPR", "data-par"});
    for (int cores : {32, 64, 128, 256, 512}) {
      const SchedulerTimes t = compare(spec, cores);
      bench::print_cell(cores);
      bench::print_cell(bench::ms(t.layered));
      bench::print_cell(bench::ms(t.cpa));
      bench::print_cell(bench::ms(t.cpr));
      bench::print_cell(bench::ms(t.dp));
      bench::end_row();
    }
    std::printf("expected shape: CPR slower than pure data parallelism\n"
                "(it widens the longest chain); layer-based fastest.\n");
  }
  return 0;
}
