// Reproduces Fig. 17: the NAS multi-zone benchmarks SP-MZ and BT-MZ on the
// CHiC cluster and the SGI Altix, for different numbers of disjoint core
// subsets (groups) and mapping strategies.
//
// Expected shapes (paper Section 4.6):
//  * the best performance is obtained at a *medium* group count (e.g. 64
//    groups of 16 zones for class D on CHiC, 128 on the Altix for SP-MZ);
//  * few groups lose because every zone runs on many cores (group-internal
//    communication and synchronization overhead);
//  * the maximum group count loses for BT-MZ because the skewed zone sizes
//    cannot be balanced when only one zone lands on each group;
//  * the scattered mapping outperforms the other strategies (the border
//    exchanges between same-position cores of different groups stay inside
//    nodes).

#include <cstdio>

#include "bench_common.hpp"
#include "ptask/npb/multizone.hpp"

namespace {

using namespace ptask;

double step_time(const npb::MultiZoneProblem& problem,
                 const arch::MachineSpec& machine_spec, int cores, int groups,
                 map::Strategy strategy, int d) {
  const arch::Machine machine =
      arch::Machine(machine_spec).partition(cores);
  const cost::CostModel cost(machine);
  const core::TaskGraph g = npb::step_graph(problem);
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = groups;
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost, opts).run(g, cores).layered;
  const std::vector<cost::LayerLayout> layouts =
      map::map_schedule(schedule, machine, strategy, d);
  return sched::TimelineEvaluator(cost).evaluate(schedule, layouts).makespan;
}

void sweep(const char* title, const npb::MultiZoneProblem& problem,
           const arch::MachineSpec& machine, int cores,
           const std::vector<int>& group_counts) {
  std::printf("\n%s (%d zones, imbalance %.1fx, %d cores)\n", title,
              problem.num_zones(), problem.imbalance_ratio(), cores);
  bench::print_header("per-step time [ms]",
                      {"groups", "consecutive", "mixed(d=2)", "scattered"});
  double best = 1e30;
  int best_groups = 0;
  std::string best_mapping;
  for (int groups : group_counts) {
    bench::print_cell(groups);
    for (auto [name, strategy, d] :
         {std::tuple{"consecutive", map::Strategy::Consecutive, 1},
          std::tuple{"mixed", map::Strategy::Mixed, 2},
          std::tuple{"scattered", map::Strategy::Scattered, 1}}) {
      const double t = step_time(problem, machine, cores, groups, strategy, d);
      bench::print_cell(bench::ms(t));
      if (t < best) {
        best = t;
        best_groups = groups;
        best_mapping = name;
      }
    }
    bench::end_row();
  }
  std::printf("best: %d groups with %s mapping (%.3f ms)\n", best_groups,
              best_mapping.c_str(), best * 1e3);
}

}  // namespace

int main() {
  std::printf("Fig. 17: NPB multi-zone benchmarks, per-step times by group\n"
              "count and mapping strategy\n");

  const std::vector<int> groups_c{4, 8, 16, 32, 64, 128, 256};
  const std::vector<int> groups_d{8, 16, 32, 64, 128, 256, 512};

  sweep("SP-MZ class C on CHiC", npb::make_problem(npb::MzSolver::SP, 'C'),
        arch::chic(), 512, groups_c);
  sweep("SP-MZ class D on CHiC", npb::make_problem(npb::MzSolver::SP, 'D'),
        arch::chic(), 512, groups_d);
  sweep("SP-MZ class C on Altix", npb::make_problem(npb::MzSolver::SP, 'C'),
        arch::altix(), 512, groups_c);
  sweep("SP-MZ class D on Altix", npb::make_problem(npb::MzSolver::SP, 'D'),
        arch::altix(), 512, groups_d);

  sweep("BT-MZ class C on CHiC", npb::make_problem(npb::MzSolver::BT, 'C'),
        arch::chic(), 512, groups_c);
  sweep("BT-MZ class D on Altix", npb::make_problem(npb::MzSolver::BT, 'D'),
        arch::altix(), 512, groups_d);

  std::printf(
      "\nexpected shape: optimum at a medium group count; extremes lose\n"
      "(few groups -> group-internal synchronization overhead; one zone per\n"
      "group -> BT-MZ load imbalance).  Deviation from the paper: our model\n"
      "selects the consecutive over the scattered mapping -- with groups\n"
      "smaller than the node count, no mapping can co-locate the border\n"
      "exchange partners, so the group-internal traffic decides and favours\n"
      "consecutive (see EXPERIMENTS.md).\n");
  return 0;
}
