// Tests for the baseline schedulers: CPA, CPR, the data-parallel scheme,
// and the shared moldable list-scheduling machinery.

#include <gtest/gtest.h>

#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/moldable.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 32) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

core::TaskGraph fork_join(int width, double work = 1.0e10) {
  core::TaskGraph g;
  const core::TaskId source = g.add_task(core::MTask("src", work));
  const core::TaskId sink = g.add_task(core::MTask("sink", work));
  for (int i = 0; i < width; ++i) {
    core::MTask t("mid" + std::to_string(i), work);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 1u << 20, 2});
    const core::TaskId id = g.add_task(std::move(t));
    g.add_edge(source, id);
    g.add_edge(id, sink);
  }
  return g;
}

TEST(TaskTimeTable, MatchesCostModel) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = fork_join(4);
  const TaskTimeTable table(g, cm, 16);
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    for (int p : {1, 4, 16}) {
      EXPECT_DOUBLE_EQ(table.time(id, p),
                       cm.symbolic_task_time(g.task(id), p,
                                             std::max(1, 16 / p), 16));
    }
  }
  EXPECT_THROW(table.time(0, 0), std::out_of_range);
  EXPECT_THROW(table.time(0, 17), std::out_of_range);
}

TEST(ListSchedule, RespectsAllocationAndPrecedence) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = fork_join(4);
  const TaskTimeTable table(g, cm, 8);
  const std::vector<int> allocation(static_cast<std::size_t>(g.num_tasks()), 2);
  const GanttSchedule gantt = list_schedule(g, allocation, table);
  const ValidationReport report = validate(gantt, g);
  EXPECT_TRUE(report.ok()) << report.errors.front();
  for (const TaskSlot& slot : gantt.slots) {
    EXPECT_EQ(slot.num_cores(), 2);
  }
  // Four 2-core middle tasks fit concurrently on 8 cores: the middle phase
  // takes one task's time, not four.
  const double mid_time = table.time(2, 2);
  const TaskSlot& src = gantt.slots[0];
  const TaskSlot& sink = gantt.slots[1];
  EXPECT_NEAR(sink.start - src.finish, mid_time, mid_time * 0.01);
}

TEST(ListSchedule, SerializesWhenAllocationsExceedMachine) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = fork_join(4);
  const TaskTimeTable table(g, cm, 8);
  // Width-4 middle layer with 8-core allocations: must serialize 4x.
  std::vector<int> allocation(static_cast<std::size_t>(g.num_tasks()), 8);
  const GanttSchedule gantt = list_schedule(g, allocation, table);
  EXPECT_TRUE(validate(gantt, g).ok());
  const double mid_time = table.time(2, 8);
  const TaskSlot& src = gantt.slots[0];
  const TaskSlot& sink = gantt.slots[1];
  EXPECT_NEAR(sink.start - src.finish, 4.0 * mid_time, mid_time * 0.05);
}

TEST(Cpa, ProducesValidSchedules) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const CpaScheduler cpa(cm);
  for (int cores : {4, 16, 64}) {
    const MoldableResult result = cpa.schedule(fork_join(6), cores);
    EXPECT_TRUE(validate(result.schedule, fork_join(6)).ok()) << cores;
    for (int a : result.allocation) {
      EXPECT_GE(a, 1);
      EXPECT_LE(a, cores);
    }
  }
}

TEST(Cpa, OverAllocatesIndependentStageTasks) {
  // The paper's PABM observation (Fig. 13 left): CPA's allocation phase
  // assigns the K independent stage tasks more cores in total than exist,
  // so they cannot all run concurrently.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PABM;
  spec.n = 1 << 16;
  spec.stages = 8;
  spec.iterations = 2;
  const core::TaskGraph g = spec.step_graph();
  const arch::Machine m = machine(16);
  const cost::CostModel cm(m);
  const MoldableResult result = CpaScheduler(cm).schedule(g, 64);
  int stage_total = 0;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.task(id).name().find("stage") != std::string::npos) {
      stage_total += result.allocation[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_GT(stage_total, 64);
}

TEST(Mcpa, LevelBoundPreventsOverAllocation) {
  // Same setting as Cpa.OverAllocatesIndependentStageTasks: MCPA's
  // level-width bound must keep the 8 stage allocations within the machine.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PABM;
  spec.n = 1 << 16;
  spec.stages = 8;
  spec.iterations = 2;
  const core::TaskGraph g = spec.step_graph();
  const arch::Machine m = machine(16);
  const cost::CostModel cm(m);
  const MoldableResult result = McpaScheduler(cm).schedule(g, 64);
  int stage_total = 0;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.task(id).name().find("stage") != std::string::npos) {
      stage_total += result.allocation[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_LE(stage_total, 64);
  EXPECT_TRUE(validate(result.schedule, g).ok());
}

TEST(Mcpa, BeatsCpaOnWideStageLayers) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PABM;
  spec.n = 1 << 16;
  spec.stages = 8;
  spec.iterations = 2;
  const core::TaskGraph g = spec.step_graph();
  const arch::Machine m = machine(16);
  const cost::CostModel cm(m);
  const double cpa = CpaScheduler(cm).schedule(g, 64).schedule.makespan;
  const double mcpa = McpaScheduler(cm).schedule(g, 64).schedule.makespan;
  EXPECT_LT(mcpa, cpa);
}

TEST(Mcpa, ValidAcrossCoreCounts) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = fork_join(6);
  for (int cores : {4, 16, 64}) {
    const MoldableResult result = McpaScheduler(cm).schedule(g, cores);
    EXPECT_TRUE(validate(result.schedule, g).ok()) << cores;
  }
}

TEST(Cpr, ProducesValidSchedules) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const CprScheduler cpr(cm);
  const core::TaskGraph g = fork_join(6);
  for (int cores : {4, 16}) {
    const MoldableResult result = cpr.schedule(g, cores);
    EXPECT_TRUE(validate(result.schedule, g).ok()) << cores;
  }
}

TEST(Cpr, NeverWorseThanAllOnesAllocation) {
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const core::TaskGraph g = fork_join(6);
  const int cores = 16;
  const TaskTimeTable table(g, cm, cores);
  const std::vector<int> ones(static_cast<std::size_t>(g.num_tasks()), 1);
  const double baseline = list_schedule(g, ones, table).makespan;
  const MoldableResult result = CprScheduler(cm).schedule(g, cores);
  EXPECT_LE(result.schedule.makespan, baseline + 1e-12);
}

TEST(Cpr, InflatesLongChains) {
  // The paper's EPOL observation (Fig. 13 right): CPR keeps feeding cores to
  // the tasks of the longest chain, pushing them towards full width.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 16;
  spec.stages = 8;
  // Use the contracted graph (chains as single nodes) as CPR input, like the
  // comparison in the paper.
  const core::ChainContraction cc =
      core::contract_linear_chains(spec.step_graph());
  const arch::Machine m = machine(16);
  const cost::CostModel cm(m);
  const MoldableResult result = CprScheduler(cm).schedule(cc.contracted, 64);
  // Find the longest chain (8 micro steps) and check it got a large share.
  int max_alloc = 0;
  for (core::TaskId id = 0; id < cc.contracted.num_tasks(); ++id) {
    max_alloc = std::max(max_alloc,
                         result.allocation[static_cast<std::size_t>(id)]);
  }
  EXPECT_GE(max_alloc, 16);
}

TEST(DataParallel, OneGroupPerLayer) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::IRK;
  spec.n = 1 << 14;
  spec.stages = 4;
  spec.iterations = 2;
  const core::TaskGraph g = spec.step_graph();
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const LayeredSchedule s = DataParallelScheduler(cm).schedule(g, 32);
  for (const ScheduledLayer& layer : s.layers) {
    EXPECT_EQ(layer.num_groups(), 1);
    EXPECT_EQ(layer.group_sizes[0], 32);
  }
  EXPECT_TRUE(validate(s, g).ok());
}

TEST(DataParallel, MakespanIsSumOfFullWidthTasks) {
  core::TaskGraph g;
  g.add_task(core::MTask("a", 1.0e9));
  g.add_task(core::MTask("b", 3.0e9));
  const arch::Machine m = machine();
  const cost::CostModel cm(m);
  const LayeredSchedule s = DataParallelScheduler(cm).schedule(g, 16);
  const double expected = cm.symbolic_task_time(g.task(0), 16, 1, 16) +
                          cm.symbolic_task_time(g.task(1), 16, 1, 16);
  EXPECT_DOUBLE_EQ(s.predicted_makespan, expected);
}

TEST(Baselines, LayerSchedulerBeatsCpaOnStageGraphs) {
  // End-to-end comparison under identical symbolic costs: for PABM-style
  // wide layers of communication-heavy tasks the layer scheduler's disjoint
  // groups beat CPA's over-allocation.
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PABM;
  spec.n = 1 << 16;
  spec.stages = 8;
  spec.iterations = 2;
  const core::TaskGraph g = spec.step_graph();
  const arch::Machine m = machine(16);
  const cost::CostModel cm(m);

  const LayeredSchedule layered = Pipeline::algorithm1(cm).run(g, 64).layered;
  const MoldableResult cpa = CpaScheduler(cm).schedule(g, 64);
  EXPECT_LT(layered.predicted_makespan, cpa.schedule.makespan);
}

}  // namespace
}  // namespace ptask::sched
