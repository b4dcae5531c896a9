// Mapping explorer: a small command-line tool that sweeps program versions,
// group counts, and mapping strategies for one of the ODE solvers on one of
// the modelled clusters, and prints the resulting per-step times -- the tool
// you would use to pick an execution scheme before a production run.
//
// Usage:
//   mapping_explorer [machine] [cores] [method] [n] [stages]
//     machine: chic | juropa | altix        (default chic)
//     cores:   positive multiple of the node size (default 256)
//     method:  epol | irk | diirk | pab | pabm (default irk)
//     n:       ODE system size              (default 131072)
//     stages:  R / K                        (default 4)
//
// Example:
//   ./build/examples/mapping_explorer juropa 512 pabm 131072 8

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ptask/map/mapping.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"

using namespace ptask;

namespace {

ode::Method parse_method(const std::string& name) {
  if (name == "epol") return ode::Method::EPOL;
  if (name == "irk") return ode::Method::IRK;
  if (name == "diirk") return ode::Method::DIIRK;
  if (name == "pab") return ode::Method::PAB;
  if (name == "pabm") return ode::Method::PABM;
  std::fprintf(stderr, "unknown method '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string machine_name = argc > 1 ? argv[1] : "chic";
  const int cores = argc > 2 ? std::atoi(argv[2]) : 256;
  const ode::Method method = parse_method(argc > 3 ? argv[3] : "irk");
  const std::size_t n =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 131072;
  const int stages = argc > 5 ? std::atoi(argv[5]) : 4;

  ode::SolverGraphSpec spec;
  spec.method = method;
  spec.n = n;
  spec.stages = stages;
  spec.iterations = 2;
  spec.inner_iterations = 2;

  const arch::Machine machine =
      arch::Machine(arch::machine_by_name(machine_name)).partition(cores);
  const cost::CostModel cost(machine);
  const sched::TimelineEvaluator eval(cost);
  const core::TaskGraph graph = spec.step_graph();

  std::printf("%s with %s=%d, n=%zu on %d cores of %s (%d cores/node)\n\n",
              ode::to_string(method), method == ode::Method::EPOL ? "R" : "K",
              stages, n, cores, machine.name().c_str(),
              machine.cores_per_node());

  std::printf("%-24s %14s %14s\n", "execution scheme", "analytic [ms]",
              "groups");

  auto report = [&](const std::string& label,
                    const sched::LayeredSchedule& schedule,
                    map::Strategy strategy, int d) {
    const std::vector<cost::LayerLayout> layouts =
        map::map_schedule(schedule, machine, strategy, d);
    std::printf("%-24s %14.3f %14d\n", label.c_str(),
                eval.evaluate(schedule, layouts).makespan * 1e3,
                schedule.layers.front().num_groups());
  };

  const sched::LayeredSchedule dp =
      sched::DataParallelScheduler(cost).schedule(graph, cores);
  report("data-parallel (cons)", dp, map::Strategy::Consecutive, 1);

  for (int groups : {0, stages / 2, stages}) {
    if (groups == 1) continue;
    sched::LayerSchedulerOptions opts;
    opts.fixed_groups = groups;
    const sched::LayeredSchedule schedule =
        sched::Pipeline::algorithm1(cost, opts).run(graph, cores).layered;
    const std::string base =
        groups == 0 ? "tp (searched g)" : "tp (g=" + std::to_string(groups) + ")";
    report(base + " cons", schedule, map::Strategy::Consecutive, 1);
    for (int d = 2; d < machine.cores_per_node(); d *= 2) {
      report(base + " mixed d=" + std::to_string(d), schedule,
             map::Strategy::Mixed, d);
    }
    report(base + " scat", schedule, map::Strategy::Scattered, 1);
  }
  return 0;
}
