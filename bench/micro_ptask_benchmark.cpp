// Google-benchmark micro benchmarks of the library machinery itself:
// scheduler throughput, collective schedule generation, discrete-event
// simulation rate, chain contraction, re-distribution planning, and
// executor dispatch (the hot path the obs instrumentation must not slow
// down when tracing is disabled).
//
// Besides the usual console output, results can be written as a
// machine-readable JSON file (median/p90 wall time per benchmark) for the
// perf-trajectory artifact CI uploads:
//   micro_ptask_benchmark --json BENCH_micro.json [--benchmark_repetitions=3]
// or, equivalently, PTASK_BENCH_JSON=BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "ptask/core/graph_algorithms.hpp"
#include "ptask/dist/redistribution.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/net/collectives.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/moldable.hpp"
#include "ptask/sched/portfolio.hpp"
#include "ptask/sim/network_sim.hpp"

namespace {

using namespace ptask;

arch::Machine machine(int nodes) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

ode::SolverGraphSpec pabm_spec(int stages) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::PABM;
  spec.n = 1 << 14;
  spec.stages = stages;
  spec.iterations = 2;
  return spec;
}

void BM_LayerScheduler(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 4);
  const cost::CostModel cost(m);
  const core::TaskGraph g = pabm_spec(8).step_graph();
  const sched::Pipeline scheduler = sched::Pipeline::algorithm1(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(g, cores));
  }
}
BENCHMARK(BM_LayerScheduler)->Arg(64)->Arg(256)->Arg(1024);

// Large fuzz-family instances for the scheduler hot-path benchmarks (time
// rows, heap LPT, pruned group search, parallel layers).
// Seeds were probed so the graphs land in the 5k-50k task range with wide
// layers; edge density is kept low so graph construction stays cheap
// relative to scheduling.

/// ~50k tasks, layers up to 1024 wide (fuzz Layered family, fixed seed).
const core::TaskGraph& large_layered_graph() {
  static const core::TaskGraph graph = [] {
    fuzz::GeneratorParams params;
    params.max_width = 1024;
    params.max_depth = 150;
    params.edge_density = 0.01;
    fuzz::Rng rng(fuzz::substream(0xB16B00ull, 2));
    return fuzz::layered_graph(rng, params);
  }();
  return graph;
}

/// ~6k tasks, layers up to 256 wide (portfolio-sized sibling).
const core::TaskGraph& medium_layered_graph() {
  static const core::TaskGraph graph = [] {
    fuzz::GeneratorParams params;
    params.max_width = 256;
    params.max_depth = 40;
    params.edge_density = 0.02;
    fuzz::Rng rng(fuzz::substream(0x5CA1Eull, 1));
    return fuzz::layered_graph(rng, params);
  }();
  return graph;
}

void BM_LayerSchedulerLarge(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 64);
  const cost::CostModel cost(m);
  const core::TaskGraph& g = large_layered_graph();
  const sched::Pipeline scheduler = sched::Pipeline::algorithm1(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(g, cores));
  }
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_LayerSchedulerLarge)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_LayerSchedulerLargeParallel(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 64);
  const cost::CostModel cost(m);
  const core::TaskGraph& g = large_layered_graph();
  sched::LayerSchedulerOptions options;
  options.parallel_layers = 8;
  const sched::Pipeline scheduler = sched::Pipeline::algorithm1(cost, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(g, cores));
  }
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_LayerSchedulerLargeParallel)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// The large layered instance plus a stream of 1% arrival batches appended
/// at the tail: the settled base is the whole graph; each GraphDelta slab
/// carries n/100 new tasks forming five fresh trailing layers (each new
/// task depends on two tasks of the previous frontier) -- the shape of an
/// iterative application appending its next timestep.  This is the
/// online-arrival pattern the incremental core targets: work arrives at the
/// end of the DAG, the settled layers stay untouched, and the repair
/// re-schedules only the new layers.  Every new task has in-degree 2, so
/// an arrival also cannot extend any existing linear chain (contraction of
/// the settled graph is stable).
struct IncrementalSplit {
  core::TaskGraph base;
  std::vector<sched::GraphDelta> slabs;
};

const IncrementalSplit& large_incremental_split() {
  static const IncrementalSplit split = [] {
    constexpr int kSlabs = 16;
    const core::TaskGraph& g = large_layered_graph();
    const core::TaskId n = g.num_tasks();
    const core::TaskId batch = n / 100;
    const core::TaskId width = batch / 5;  // five new layers per slab

    // The attachment frontier of the first slab: original tasks whose
    // contracted node sits in the final layer of the settled schedule (for
    // chains, the chain tail).  Later slabs attach to the last layer of the
    // slab before them.
    const core::ChainContraction contraction = core::contract_linear_chains(g);
    const std::vector<std::vector<core::TaskId>> layers =
        core::greedy_layers(contraction.contracted);
    std::vector<core::TaskId> frontier;
    for (const core::TaskId node : layers.back()) {
      frontier.push_back(
          contraction.members[static_cast<std::size_t>(node)].back());
    }

    IncrementalSplit out;
    out.base = g;
    std::vector<core::TaskId> previous = std::move(frontier);
    std::vector<core::TaskId> current;
    for (int s = 0; s < kSlabs; ++s) {
      sched::GraphDelta delta;
      delta.release_time = 1.0 + s;
      for (core::TaskId i = 0; i < batch; ++i) {
        if (i > 0 && i % width == 0) {  // next new layer
          previous = std::move(current);
          current.clear();
        }
        core::TaskId sample = (i * 37) % n;  // realistic task mix
        while (g.task(sample).is_marker()) sample = (sample + 1) % n;
        sched::ArrivingTask arriving;
        arriving.task = g.task(sample);
        arriving.release_time = delta.release_time;
        delta.tasks.push_back(std::move(arriving));
        const core::TaskId id = n + s * batch + i;
        const std::size_t f = static_cast<std::size_t>(i);
        delta.edges.emplace_back(previous[f % previous.size()], id);
        delta.edges.emplace_back(previous[(f + 1) % previous.size()], id);
        current.push_back(id);
      }
      previous = std::move(current);
      current.clear();
      out.slabs.push_back(std::move(delta));
    }
    return out;
  }();
  return split;
}

// Online repair throughput: extend a settled ~50k-task schedule by a 1%
// arrival batch.  One untimed reset settles the base schedule, then every
// iteration times one extend with the next slab of the arrival stream --
// the steady state of a long-lived scheduling session.  The headline ratio
// against BM_LayerSchedulerLarge/4096 (a full re-schedule of the same
// instance) is the incremental core's speedup and is gated at >=10x by
// tools/check_bench_ceiling.py's committed baseline.  Iterations are pinned
// to the slab count so the stream never wraps.
void BM_IncrementalExtend(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 64);
  const cost::CostModel cost(m);
  const IncrementalSplit& split = large_incremental_split();
  sched::IncrementalScheduler scheduler(cost);
  scheduler.reset(split.base, cores);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == split.slabs.size()) {
      state.PauseTiming();
      scheduler.reset(split.base, cores);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(scheduler.extend(split.slabs[next++]));
  }
  state.counters["tasks"] = static_cast<double>(split.base.num_tasks());
  state.counters["delta_tasks"] =
      static_cast<double>(split.slabs.front().tasks.size());
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(split.slabs.front().tasks.size()));
}
BENCHMARK(BM_IncrementalExtend)->Arg(4096)->Iterations(16)->Repetitions(1)
    ->Unit(benchmark::kMillisecond);

void BM_PortfolioScheduleLarge(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 64);
  const cost::CostModel cost(m);
  const core::TaskGraph& g = medium_layered_graph();
  // Restricted to the strategies that stay tractable at this size: cpa is
  // ~18 s and cpr runs into minutes on 6k tasks x 1024 cores, which would
  // drown the hot-path + shared-cache signal this benchmark tracks.
  sched::PortfolioOptions options;
  options.strategies = {"layer", "dp", "mcpa"};
  const sched::PortfolioScheduler scheduler(cost, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(g, cores));
  }
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_PortfolioScheduleLarge)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_CpaScheduler(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 4);
  const cost::CostModel cost(m);
  const core::TaskGraph g = pabm_spec(8).step_graph();
  const sched::CpaScheduler scheduler(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(g, cores));
  }
}
BENCHMARK(BM_CpaScheduler)->Arg(64)->Arg(256);

void BM_CprScheduler(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 4);
  const cost::CostModel cost(m);
  const core::TaskGraph g = pabm_spec(8).step_graph();
  const sched::CprScheduler scheduler(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(g, cores));
  }
}
BENCHMARK(BM_CprScheduler)->Arg(64)->Arg(256);

/// One all-ones list schedule of a ~1.9k-task layered graph: single-core
/// tasks finish at many distinct times, so hundreds of free-time blocks
/// are alive at once.  The T(t, p) table is built outside the timed loop.
void BM_ListScheduleLarge(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 4);
  const cost::CostModel cost(m);
  fuzz::GeneratorParams params;
  params.max_width = 128;
  params.max_depth = 30;
  params.edge_density = 0.02;
  fuzz::Rng rng(fuzz::substream(0x115Dull, 0));
  const core::TaskGraph g = fuzz::layered_graph(rng, params);
  const sched::TaskTimeTable table(g, cost, cores);
  const std::vector<int> ones(static_cast<std::size_t>(g.num_tasks()), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::list_schedule(g, ones, table));
  }
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
}
BENCHMARK(BM_ListScheduleLarge)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_PortfolioSchedule(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(cores / 4);
  const cost::CostModel cost(m);
  const core::TaskGraph g = pabm_spec(8).step_graph();
  const sched::PortfolioScheduler scheduler(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(g, cores));
  }
}
BENCHMARK(BM_PortfolioSchedule)->Arg(64)->Arg(256);

void BM_ChainContraction(benchmark::State& state) {
  ode::SolverGraphSpec spec;
  spec.method = ode::Method::EPOL;
  spec.n = 1 << 12;
  spec.stages = static_cast<int>(state.range(0));
  const core::TaskGraph g = spec.step_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::contract_linear_chains(g));
  }
}
BENCHMARK(BM_ChainContraction)->Arg(8)->Arg(16)->Arg(32);

void BM_RingAllgatherSimulation(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const arch::Machine m = machine(ranks / 4);
  std::vector<int> placement(static_cast<std::size_t>(ranks));
  std::iota(placement.begin(), placement.end(), 0);
  sim::ProgramSet programs(ranks);
  programs.add_collective(net::ring_allgather(ranks, 64 * 1024), placement);
  const sim::NetworkSim sim(m, placement);
  std::size_t messages = 0;
  for (auto _ : state) {
    const sim::SimResult result = sim.run(programs);
    messages += result.transfers;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
}
BENCHMARK(BM_RingAllgatherSimulation)->Arg(64)->Arg(256);

void BM_RedistributionPlan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::RedistributionPlan::compute(
        n, 8, dist::Distribution::block(), 16, dist::Distribution::cyclic(),
        32, false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RedistributionPlan)->Arg(1 << 12)->Arg(1 << 16);

/// Block -> block: the plan walks runs that end at block edges, so its cost
/// follows the number of runs (at most q1 + q2), not the element count.
void BM_RedistributionPlanBlock(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::RedistributionPlan::compute(
        n, 8, dist::Distribution::block(), 16, dist::Distribution::block(),
        32, false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RedistributionPlanBlock)->Arg(1 << 12)->Arg(1 << 16);

void BM_CollectiveScheduleGeneration(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ring_allgather(ranks, 4096));
    benchmark::DoNotOptimize(net::binomial_bcast(ranks, 0, 4096));
    benchmark::DoNotOptimize(net::allreduce(ranks, 4096));
  }
}
BENCHMARK(BM_CollectiveScheduleGeneration)->Arg(64)->Arg(512);

// Executor dispatch of a whole scheduled time step with near-empty task
// bodies -- this is the path every obs instrumentation site sits on, so
// comparing this benchmark between -DPTASK_OBS=ON (tracing disabled at
// runtime) and -DPTASK_OBS=OFF bounds the disabled-tracing overhead.
void BM_ExecutorRun(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const arch::Machine m = machine(1);
  const cost::CostModel cost(m);
  const core::TaskGraph g = pabm_spec(4).step_graph();
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost).run(g, cores).layered;
  rt::Executor exec(cores);
  std::vector<rt::TaskFn> fns(static_cast<std::size_t>(g.num_tasks()));
  for (auto& fn : fns) {
    fn = [](rt::ExecContext& ctx) {
      benchmark::DoNotOptimize(ctx.comm->allreduce_sum(ctx.group_rank, 1.0));
    };
  }
  for (auto _ : state) {
    exec.run(schedule, fns);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ExecutorRun)->Arg(4)->Arg(8)->UseRealTime();

// Console reporter that additionally captures every per-iteration run for
// the machine-readable JSON file.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      ptask::bench::BenchSample sample;
      sample.name = run.benchmark_name();
      sample.iterations = static_cast<std::int64_t>(run.iterations);
      sample.seconds_per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      samples.push_back(std::move(sample));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<ptask::bench::BenchSample> samples;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (const char* env = std::getenv("PTASK_BENCH_JSON")) json_path = env;

  // Strip --json PATH / --json=PATH before google-benchmark sees the args.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    if (!ptask::bench::write_bench_json(json_path, reporter.samples)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu samples)\n", json_path.c_str(),
                 reporter.samples.size());
  }
  return 0;
}
