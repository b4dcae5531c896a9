// Tests for schedule/trace visualization and simulator trace recording.

#include <gtest/gtest.h>

#include <numeric>

#include "ptask/net/collectives.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/viz/gantt.hpp"

namespace ptask::viz {
namespace {

arch::Machine machine(int nodes = 4) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

struct GanttFixture {
  core::TaskGraph graph;
  sched::GanttSchedule gantt;

  GanttFixture() {
    ode::SolverGraphSpec spec;
    spec.method = ode::Method::EPOL;
    spec.n = 1 << 12;
    spec.stages = 4;
    graph = spec.step_graph();
    const cost::CostModel cm(machine());
    const sched::LayeredSchedule s =
        sched::Pipeline::algorithm1(cm).run(graph, 8).layered;
    graph = s.contraction.contracted;  // render the contracted view
    gantt = sched::to_gantt(s, [&](core::TaskId id, int q, int g) {
      return cm.symbolic_task_time(graph.task(id), q, g, 8);
    });
  }
};

TEST(AsciiGantt, ContainsEveryCoreBandAndLegend) {
  const GanttFixture fx;
  const std::string art = ascii_gantt(fx.graph, fx.gantt);
  EXPECT_NE(art.find("gantt: 8 cores"), std::string::npos);
  EXPECT_NE(art.find("legend:"), std::string::npos);
  EXPECT_NE(art.find("combine"), std::string::npos);
  // Every non-marker task letter appears somewhere in the chart body.
  for (core::TaskId id = 0; id < fx.graph.num_tasks(); ++id) {
    if (fx.graph.task(id).is_marker()) continue;
    const char letter = static_cast<char>('a' + id);
    EXPECT_NE(art.find(letter), std::string::npos) << "task " << id;
  }
}

TEST(AsciiGantt, CollapsesIdenticalRows) {
  const GanttFixture fx;
  RenderOptions collapsed;
  RenderOptions expanded;
  expanded.collapse_identical_rows = false;
  const std::string a = ascii_gantt(fx.graph, fx.gantt, collapsed);
  const std::string b = ascii_gantt(fx.graph, fx.gantt, expanded);
  EXPECT_LT(std::count(a.begin(), a.end(), '\n'),
            std::count(b.begin(), b.end(), '\n'));
  EXPECT_NE(b.find("core 7"), std::string::npos);
}

TEST(SvgGantt, WellFormedAndContainsRects) {
  const GanttFixture fx;
  const std::string svg = svg_gantt(fx.graph, fx.gantt);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One <rect> per (task, band) pairing at least equal to task count.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, 5u);
  EXPECT_NE(svg.find("<title>combine"), std::string::npos);
}

TEST(Trace, RecordingOffByDefault) {
  const arch::Machine m = machine();
  sim::ProgramSet programs(2);
  programs.rank(0).add_compute(1.0);
  programs.add_transfer(0, 1, 4096);
  const sim::NetworkSim sim(m, {0, 1});
  EXPECT_TRUE(sim.run(programs).trace.empty());
  EXPECT_FALSE(sim.run(programs, true).trace.empty());
}

TEST(Trace, EventsAreConsistentWithResult) {
  const arch::Machine m = machine(8);
  const int ranks = 8;
  sim::ProgramSet programs(ranks);
  std::vector<int> ids(static_cast<std::size_t>(ranks));
  std::iota(ids.begin(), ids.end(), 0);
  programs.add_compute(ids, 0.001);
  programs.add_collective(net::ring_allgather(ranks, 64 * 1024), ids);
  const sim::NetworkSim sim(m, ids);
  const sim::SimResult result = sim.run(programs, true);

  std::size_t transfers = 0;
  double compute = 0.0;
  double latest = 0.0;
  for (const sim::TraceEvent& e : result.trace) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GE(e.start, 0.0);
    latest = std::max(latest, e.end);
    if (e.kind == sim::TraceEvent::Kind::Transfer) {
      ++transfers;
      EXPECT_NE(e.peer, e.rank);
      EXPECT_GT(e.bytes, 0u);
    } else {
      compute += e.end - e.start;
      EXPECT_EQ(e.peer, -1);
    }
  }
  EXPECT_EQ(transfers, result.transfers);
  EXPECT_NEAR(compute, result.total_compute_seconds, 1e-12);
  EXPECT_NEAR(latest, result.makespan, 1e-12);
}

TEST(Trace, AsciiTimelineMarksComputeAndTransfers) {
  const arch::Machine m = machine();
  sim::ProgramSet programs(2);
  programs.rank(0).add_compute(0.01);
  programs.add_transfer(0, 1, 10 << 20);
  const sim::NetworkSim sim(m, {0, 4});
  const sim::SimResult result = sim.run(programs, true);
  const std::string art = ascii_trace(result, 2);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('~'), std::string::npos);
  EXPECT_NE(art.find("rank 0"), std::string::npos);
  EXPECT_NE(art.find("rank 1"), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndOneLinePerEvent) {
  const arch::Machine m = machine();
  sim::ProgramSet programs(2);
  programs.rank(0).add_compute(0.5);
  programs.add_transfer(0, 1, 1024);
  const sim::SimResult result =
      sim::NetworkSim(m, {0, 1}).run(programs, true);
  const std::string csv = trace_csv(result);
  EXPECT_EQ(csv.rfind("kind,rank,peer,start,end,bytes", 0), 0u);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            result.trace.size() + 1);
  EXPECT_NE(csv.find("compute,0,-1"), std::string::npos);
  EXPECT_NE(csv.find("transfer,1,0"), std::string::npos);
}

}  // namespace
}  // namespace ptask::viz
