#pragma once
/// \file bench_common.hpp
/// Shared machinery of the figure/table reproduction benches: configuring a
/// solver + machine + program version + mapping, evaluating the per-step
/// time (analytically or through the discrete-event simulator), printing
/// aligned result tables, and writing machine-readable BENCH_*.json result
/// files (the perf-trajectory artifact CI uploads).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <utility>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/timeline.hpp"

namespace ptask::bench {

/// Program version of Section 4.2: data-parallel or task-parallel.
enum class Version { DataParallel, TaskParallel };

inline const char* to_string(Version v) {
  return v == Version::DataParallel ? "dp" : "tp";
}

struct RunConfig {
  arch::MachineSpec machine = arch::chic();
  int cores = 64;
  Version version = Version::TaskParallel;
  map::Strategy strategy = map::Strategy::Consecutive;
  int mixed_d = 1;
  int threads_per_rank = 1;  ///< >1: hybrid MPI+OpenMP execution
  bool simulate = false;     ///< discrete-event simulation vs analytic model
  /// Group count for the task-parallel version; 0 derives it from the spec
  /// (R/2 for EPOL, K otherwise -- the paper's tp schemes).
  int fixed_groups = 0;
};

/// Task-parallel group count of the paper's program versions.
inline int default_tp_groups(const ode::SolverGraphSpec& spec) {
  return spec.method == ode::Method::EPOL ? std::max(1, spec.stages / 2)
                                          : spec.stages;
}

struct RunResult {
  double step_time = 0.0;       ///< seconds per time step
  double redistribution = 0.0;  ///< analytic re-distribution share
  int groups = 1;               ///< groups of the first layer
};

/// Schedules, maps, and evaluates one time step of `spec` under `config`.
inline RunResult run_step(const ode::SolverGraphSpec& spec,
                          const RunConfig& config) {
  const arch::Machine full(config.machine);
  const arch::Machine machine = full.partition(config.cores);
  const cost::CostModel cost(machine);

  sched::LayeredSchedule schedule;
  if (config.version == Version::DataParallel) {
    schedule = sched::DataParallelScheduler(cost).schedule(spec.step_graph(),
                                                           config.cores);
  } else {
    sched::LayerSchedulerOptions opts;
    opts.fixed_groups = config.fixed_groups > 0 ? config.fixed_groups
                                                : default_tp_groups(spec);
    schedule =
        sched::Pipeline::algorithm1(cost, opts)
            .run(spec.step_graph(), config.cores)
            .layered;
  }

  const std::vector<cost::LayerLayout> layouts = map::map_schedule(
      schedule, machine, config.strategy, config.mixed_d);

  sched::TimelineOptions opts;
  opts.threads_per_rank = config.threads_per_rank;
  const sched::TimelineEvaluator eval(cost);

  RunResult result;
  result.groups = schedule.layers.front().num_groups();
  if (config.simulate) {
    result.step_time = eval.simulate(schedule, layouts, opts).makespan;
  } else {
    const sched::TimelineResult r = eval.evaluate(schedule, layouts, opts);
    result.step_time = r.makespan;
    result.redistribution = r.redistribution_time;
  }
  return result;
}

/// Sequential time of one step (for speedup figures).
inline double sequential_step_time(const ode::SolverGraphSpec& spec,
                                   const arch::MachineSpec& machine) {
  return spec.step_graph().total_work_flop() /
         (machine.core_flops * machine.core_efficiency);
}

// ---- table printing ----

inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
}

inline void print_cell(const std::string& value) {
  std::printf("%16s", value.c_str());
}

inline void print_cell(double value) { std::printf("%16.4g", value); }
inline void print_cell(int value) { std::printf("%16d", value); }
inline void end_row() { std::printf("\n"); }

inline std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return std::string(buf);
}

// ---- machine-readable benchmark results (BENCH_*.json) ----

/// One timed run of one benchmark configuration.
struct BenchSample {
  std::string name;               ///< e.g. "BM_LayerScheduler/64"
  std::int64_t iterations = 0;    ///< iterations of this run
  double seconds_per_iter = 0.0;  ///< real wall time per iteration
};

/// Aggregated row written to the JSON file: median/p90 over the repetitions
/// of one benchmark name.  With a single sample both quantiles degrade to
/// that sample.
struct BenchStat {
  std::string name;
  std::size_t samples = 0;
  std::int64_t iterations = 0;  ///< summed over samples
  double median_s = 0.0;
  double p90_s = 0.0;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample vector.
/// Thin alias over the shared obs reference implementation so bench JSON
/// and the metrics layer agree on percentile semantics.
inline double percentile(std::vector<double> values, double q) {
  return ptask::obs::percentile_nearest_rank(std::move(values), q);
}

/// Groups samples by benchmark name (preserving first-seen order) and
/// reduces each group to a BenchStat.
inline std::vector<BenchStat> summarize_bench(
    const std::vector<BenchSample>& samples) {
  std::vector<BenchStat> stats;
  std::vector<std::vector<double>> times;
  for (const BenchSample& s : samples) {
    std::size_t i = 0;
    while (i < stats.size() && stats[i].name != s.name) ++i;
    if (i == stats.size()) {
      stats.push_back(BenchStat{s.name, 0, 0, 0.0, 0.0});
      times.emplace_back();
    }
    ++stats[i].samples;
    stats[i].iterations += s.iterations;
    times[i].push_back(s.seconds_per_iter);
  }
  for (std::size_t i = 0; i < stats.size(); ++i) {
    stats[i].median_s = percentile(times[i], 0.5);
    stats[i].p90_s = percentile(times[i], 0.9);
  }
  return stats;
}

inline void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Renders the aggregated results as a self-contained JSON document:
/// {"benchmarks": [{"name", "samples", "iterations", "median_s", "p90_s"}]}.
inline std::string render_bench_json(const std::vector<BenchStat>& stats) {
  std::string out = "{\"benchmarks\":[";
  char buf[128];
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  {\"name\":\"";
    append_json_escaped(out, stats[i].name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"samples\":%zu,\"iterations\":%lld,"
                  "\"median_s\":%.9g,\"p90_s\":%.9g}",
                  stats[i].samples,
                  static_cast<long long>(stats[i].iterations),
                  stats[i].median_s, stats[i].p90_s);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

/// Writes the JSON document to `path`; returns false on I/O failure.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchSample>& samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = render_bench_json(summarize_bench(samples));
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ptask::bench
