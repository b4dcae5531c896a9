// Quickstart: the complete ptask pipeline on a small example.
//
//  1. Describe a parallel program as cooperating M-tasks with a
//     CM-task-style specification (variables, seq/parfor composition).
//  2. Schedule it with the combined layer-based algorithm (Algorithm 1).
//  3. Map the symbolic cores to the physical cores of a cluster with the
//     consecutive / scattered / mixed strategies.
//  4. Evaluate the mapped schedule analytically and with the discrete-event
//     cluster simulator.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "ptask/arch/topology.hpp"
#include "ptask/core/spec_builder.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"
#include "ptask/sched/validation.hpp"
#include "ptask/viz/gantt.hpp"

using namespace ptask;

int main() {
  // --- the machine: 8 nodes of the CHiC cluster (2x dual-core per node) ---
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 8;
  const arch::Machine machine(spec);
  std::printf("machine: %s partition, %d nodes x %d cores = %d cores\n",
              machine.name().c_str(), machine.num_nodes(),
              machine.cores_per_node(), machine.total_cores());
  const arch::ArchitectureTree tree(spec);
  std::printf("architecture tree: %zu vertices, %d leaves (Fig. 7 style)\n\n",
              tree.size(), tree.num_leaves());

  // --- an M-task specification: prepare, 4 independent solvers, reduce ---
  core::SpecBuilder builder("quickstart");
  const std::size_t vec_bytes = (1u << 16) * sizeof(double);
  const core::Var input = builder.var("input", vec_bytes);
  std::vector<core::Var> partials;

  core::MTask prepare("prepare", 2.0e8);
  builder.call(std::move(prepare), {}, {input});

  builder.parfor(4, [&](int i) {
    core::Var part = builder.var("part" + std::to_string(i), vec_bytes);
    core::MTask solve("solve" + std::to_string(i), 2.0e9);
    // Each solver does group-internal multi-broadcasts of its vector.
    solve.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                      core::CommScope::Group, vec_bytes, 8});
    builder.call(std::move(solve), {input}, {part});
    partials.push_back(part);
  });

  core::MTask reduce("reduce", 4.0e8);
  reduce.add_comm(core::CollectiveOp{core::CollectiveKind::Allreduce,
                                     core::CommScope::Group, vec_bytes, 1});
  builder.call(std::move(reduce), partials, {});

  const core::HierGraph program = builder.build();
  std::printf("specification: %d tasks, %d input-output relations\n",
              program.graph.num_tasks(), program.graph.num_edges());

  // --- scheduling (Algorithm 1) ---
  const cost::CostModel cost(machine);
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost)
          .run(program.graph, machine.total_cores())
          .layered;
  const sched::ValidationReport report = sched::validate(schedule, program.graph);
  std::printf("\n%s", sched::describe(schedule).c_str());
  std::printf("schedule valid: %s\n\n", report.ok() ? "yes" : "NO");

  // --- mapping + evaluation ---
  const sched::TimelineEvaluator eval(cost);
  std::printf("%-14s %16s %16s\n", "mapping", "analytic [ms]", "simulated [ms]");
  for (auto [label, strategy, d] :
       {std::tuple{"consecutive", map::Strategy::Consecutive, 1},
        std::tuple{"mixed(d=2)", map::Strategy::Mixed, 2},
        std::tuple{"scattered", map::Strategy::Scattered, 1}}) {
    const std::vector<cost::LayerLayout> layouts =
        map::map_schedule(schedule, machine, strategy, d);
    const double analytic = eval.evaluate(schedule, layouts).makespan;
    const double simulated = eval.simulate(schedule, layouts).makespan;
    std::printf("%-14s %16.3f %16.3f\n", label, analytic * 1e3,
                simulated * 1e3);
  }
  std::printf("\nThe consecutive mapping keeps each solver group inside\n"
              "cluster nodes, which is why its group-internal multi-\n"
              "broadcasts are cheapest.\n");

  // --- visualization: the schedule as an ASCII Gantt chart ---
  const core::TaskGraph& contracted = schedule.contraction.contracted;
  const sched::GanttSchedule gantt =
      sched::to_gantt(schedule, [&](core::TaskId id, int q, int g) {
        return cost.symbolic_task_time(contracted.task(id), q, g,
                                       machine.total_cores());
      });
  std::printf("\n%s", viz::ascii_gantt(contracted, gantt).c_str());
  return 0;
}
