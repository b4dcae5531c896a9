// Tests for the observability subsystem (ptask::obs): metrics registry,
// span tracer, exporters, the JSON reader, and the cost-model calibration
// report -- including the end-to-end executor trace and the differential
// oracle tying calibration to the scheduler's own symbolic timeline.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/obs/calibration.hpp"
#include "ptask/obs/export.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/prometheus.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/rt/dynamic_scheduler.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::obs {
namespace {

// ---- metrics ----

TEST(Metrics, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo) {
  Histogram h;
  h.observe(0);    // bucket 0
  h.observe(1);    // bucket 1
  h.observe(2);    // bucket 2
  h.observe(3);    // bucket 2
  h.observe(900);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 906u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  // Median of {0,1,2,3,900} lies in bucket 2 -> upper bound 3.
  EXPECT_EQ(h.quantile_upper_bound(0.5), 3u);
  EXPECT_EQ(h.quantile_upper_bound(1.0), 1023u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0u);
}

TEST(Metrics, PercentileMatchesExactReferencesWithinLogBucketError) {
  // Exact references via the shared nearest-rank helper; the histogram's
  // interpolated estimate must stay within the documented factor-of-two
  // bound (same power-of-two bucket as the true quantile).
  const auto check = [](const std::vector<std::uint64_t>& values) {
    Histogram h;
    std::vector<double> exact;
    exact.reserve(values.size());
    for (const std::uint64_t v : values) {
      h.observe(v);
      exact.push_back(static_cast<double>(v));
    }
    for (const double q : {0.5, 0.9, 0.99}) {
      const double reference = percentile_nearest_rank(exact, q);
      const double estimate = h.percentile(q);
      if (reference == 0.0) {
        EXPECT_EQ(estimate, 0.0) << "q=" << q;
      } else {
        EXPECT_GT(estimate, reference / 2.0) << "q=" << q;
        EXPECT_LT(estimate, reference * 2.0) << "q=" << q;
      }
    }
  };

  // Constant distribution: every quantile sits in value's bucket.
  check(std::vector<std::uint64_t>(100, 750));
  // Uniform 1..1024 (spans eleven buckets).
  std::vector<std::uint64_t> uniform;
  for (std::uint64_t v = 1; v <= 1024; ++v) uniform.push_back(v);
  check(uniform);
  // Two-point distribution with a heavy tail.
  std::vector<std::uint64_t> two_point(95, 10);
  two_point.insert(two_point.end(), 5, 10'000);
  check(two_point);
  // All zeros: percentiles are exactly 0.
  check(std::vector<std::uint64_t>(10, 0));
}

TEST(Metrics, PercentileEdgeCasesAndMonotonicity) {
  Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  Histogram h;
  h.observe(0);
  h.observe(6);
  h.observe(100);
  h.observe(5'000);
  // Monotone non-decreasing in q across the whole range.
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double estimate = h.percentile(q);
    EXPECT_GE(estimate, previous) << "q=" << q;
    previous = estimate;
  }
  // q clamps: below 0 and above 1 behave like the endpoints.
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
  // A single zero observation keeps every quantile exactly zero.
  Histogram zeros;
  zeros.observe(0);
  EXPECT_EQ(zeros.percentile(0.99), 0.0);
}

TEST(Metrics, PercentileNearestRankIsExact) {
  // The shared reference helper used by bench JSON and ptask_loadgen:
  // rank = min(n - 1, floor(q * n)) on the sorted sample.
  const std::vector<double> values{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile_nearest_rank(values, 0.0), 1.0);
  EXPECT_EQ(percentile_nearest_rank(values, 0.5), 3.0);
  EXPECT_EQ(percentile_nearest_rank(values, 0.9), 5.0);
  EXPECT_EQ(percentile_nearest_rank(values, 1.0), 5.0);
  EXPECT_EQ(percentile_nearest_rank({}, 0.5), 0.0);
  EXPECT_EQ(percentile_nearest_rank({42.0}, 0.99), 42.0);
}

// ---- Prometheus exposition ----

TEST(Prometheus, NamesAreSanitizedWithThePtaskPrefix) {
  EXPECT_EQ(prometheus_name("serve.latency_us"), "ptask_serve_latency_us");
  EXPECT_EQ(prometheus_name("serve.strategy.portfolio.requests"),
            "ptask_serve_strategy_portfolio_requests");
  EXPECT_EQ(prometheus_name("weird \"name\"\\x"), "ptask_weird__name__x");
}

TEST(Prometheus, RenderParsesBackAndPercentilesAgree) {
  MetricsRegistry reg;
  reg.counter("serve.requests").add(17);
  Histogram& h = reg.histogram("serve.latency_us");
  for (std::uint64_t v = 1; v <= 512; ++v) h.observe(v);
  h.observe(0);

  const std::string text = render_prometheus(reg);
  // Counters: TYPE line + _total sample.
  EXPECT_NE(text.find("# TYPE ptask_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ptask_serve_requests_total 17"), std::string::npos);
  // Histograms: TYPE line, cumulative buckets, +Inf, sum, count.
  EXPECT_NE(text.find("# TYPE ptask_serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ptask_serve_latency_us_bucket{le=\"+Inf\"} 513"),
            std::string::npos);

  const PromHistogram parsed =
      parse_prometheus_histogram(text, "ptask_serve_latency_us");
  ASSERT_TRUE(parsed.found);
  EXPECT_EQ(parsed.count, 513u);
  EXPECT_EQ(parsed.sum, static_cast<double>(h.sum()));
  ASSERT_FALSE(parsed.buckets.empty());
  for (std::size_t i = 1; i < parsed.buckets.size(); ++i) {
    EXPECT_GT(parsed.buckets[i].first, parsed.buckets[i - 1].first);
    EXPECT_GE(parsed.buckets[i].second, parsed.buckets[i - 1].second);
  }
  EXPECT_TRUE(std::isinf(parsed.buckets.back().first));
  EXPECT_EQ(parsed.buckets.back().second, parsed.count);

  // The exposition-side estimator reproduces Histogram::percentile up to
  // the inclusive-bound shift: exposition buckets interpolate across
  // (2^(i-1)-1, 2^i-1] while the histogram uses [2^(i-1), 2^i), so the two
  // estimates differ by exactly 1 -- far inside the shared factor-of-two
  // bucket error bound.
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_NEAR(prometheus_percentile(parsed, q), h.percentile(q), 1.0)
        << "q=" << q;
  }
}

TEST(Prometheus, EmptyHistogramAndMissingMetric) {
  MetricsRegistry reg;
  reg.histogram("serve.untouched_us");
  const std::string text = render_prometheus(reg);
  const PromHistogram parsed =
      parse_prometheus_histogram(text, "ptask_serve_untouched_us");
  ASSERT_TRUE(parsed.found);
  EXPECT_EQ(parsed.count, 0u);
  EXPECT_EQ(prometheus_percentile(parsed, 0.99), 0.0);
  const PromHistogram missing =
      parse_prometheus_histogram(text, "ptask_no_such_metric");
  EXPECT_FALSE(missing.found);
}

TEST(Metrics, RegistryHandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  reg.reset();  // zeroes, but the reference stays valid
  EXPECT_EQ(b.value(), 0u);
  a.add(3);
  const std::vector<CounterSample> samples = reg.counters();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "x");
  EXPECT_EQ(samples[0].value, 3u);
}

TEST(Metrics, RegistryIsThreadSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("shared").add();
        reg.histogram("h").observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(), 4000u);
  EXPECT_EQ(reg.histogram("h").count(), 4000u);
}

// ---- tracer ----

TEST(Tracer, CollectsSpansFromManyThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        Span s;
        s.kind = SpanKind::Task;
        s.name = "t" + std::to_string(t);
        s.worker = t;
        s.begin_s = i;
        s.end_s = i + 1;
        tracer.record(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<Span> spans = tracer.take();
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kSpans));
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.take().empty());  // take() removes what it returns
}

TEST(Tracer, DropsBeyondPerThreadCap) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_spans_per_thread(10);
  for (int i = 0; i < 25; ++i) {
    Span s;
    s.name = "s";
    tracer.record(std::move(s));
  }
  EXPECT_EQ(tracer.take().size(), 10u);
  EXPECT_EQ(tracer.dropped(), 15u);
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ScopedSpanIsInertWhenDisabled) {
  tracer().set_enabled(false);
  tracer().clear();
  {
    ScopedSpan span(SpanKind::Task, "ignored");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer().take().empty());
}

TEST(Tracer, ScopedSpanInheritsThreadContext) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  tracer().clear();
  tracer().set_enabled(true);
  {
    ThreadContext ctx;
    ctx.worker = 3;
    ctx.group = 1;
    ctx.group_size = 2;
    ctx.layer = 4;
    ctx.task = 7;
    ctx.contracted = 5;
    ContextScope scope(ctx);
    ScopedSpan span(SpanKind::Collective, "op");
    span.set_bytes(128);
  }
  tracer().set_enabled(false);
  const std::vector<Span> spans = tracer().take();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].worker, 3);
  EXPECT_EQ(spans[0].group, 1);
  EXPECT_EQ(spans[0].group_size, 2);
  EXPECT_EQ(spans[0].layer, 4);
  EXPECT_EQ(spans[0].task, 7);
  EXPECT_EQ(spans[0].contracted, 5);
  EXPECT_EQ(spans[0].bytes, 128u);
  EXPECT_GE(spans[0].duration_s(), 0.0);
  // The scope restored the ambient context.
  EXPECT_EQ(thread_context().worker, -1);
}

// ---- JSON reader ----

TEST(Json, ParsesDocumentWithEveryValueKind) {
  const json::Value doc = json::parse(
      R"({"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null,)"
      R"( "s": "x\n\"yA"})");
  ASSERT_TRUE(doc.is_object());
  const json::Value* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_TRUE(doc.find("b")->find("nested")->boolean);
  EXPECT_TRUE(doc.find("c")->is_null());
  EXPECT_EQ(doc.find("s")->string, "x\n\"yA");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, BoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).is_array());
  EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":" + nested(json::kMaxDepth) + "}"),
               std::runtime_error);
  EXPECT_THROW(json::parse(std::string(2u << 20, '[')), std::runtime_error);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::parse("01x"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
}

TEST(Json, NumbersMatchStrtodBitForBit) {
  // Out-of-range magnitudes (overflow, underflow below the denormals), the
  // smallest denormal and normal, signed zero, integers past 2^53, and a
  // 40-digit mantissa: the parsed double must carry exactly strtod's bits.
  const char* const kNumbers[] = {
      "1e400",
      "-1e400",
      "1e-400",
      "-1e-400",
      "4.9e-324",
      "2.4703282292062327e-324",
      "2.2250738585072011e-308",
      "2.2250738585072014e-308",
      "-0",
      "-0.0e5",
      "0",
      "9007199254740993",
      "0.1",
      "1.7976931348623157e308",
      "1.7976931348623159e308",
      "1234567890123456789012345678901234567890",
      "0.1234567890123456789012345678901234567890e-10",
      "123E+2",
      "-2.5",
  };
  for (const char* text : kNumbers) {
    const json::Value value = json::parse(text);
    ASSERT_TRUE(value.is_number()) << text;
    const double expected = std::strtod(text, nullptr);
    std::uint64_t got_bits = 0;
    std::uint64_t expected_bits = 0;
    std::memcpy(&got_bits, &value.number, sizeof(got_bits));
    std::memcpy(&expected_bits, &expected, sizeof(expected_bits));
    EXPECT_EQ(got_bits, expected_bits) << text;
    // Inside a document too, where the number does not end the input.
    const json::Value array = json::parse(std::string("[") + text + ",1]");
    std::memcpy(&got_bits, &array.array[0].number, sizeof(got_bits));
    EXPECT_EQ(got_bits, expected_bits) << text << " in an array";
  }
}

// ---- exporters ----

std::vector<Span> sample_spans() {
  std::vector<Span> spans;
  Span task;
  task.kind = SpanKind::Task;
  task.name = "compute \"a\"";  // exercises string escaping
  task.worker = 2;
  task.group = 0;
  task.group_size = 2;
  task.layer = 0;
  task.begin_s = 0.001;
  task.end_s = 0.002;
  spans.push_back(task);
  Span sim;
  sim.kind = SpanKind::Collective;
  sim.clock = ClockDomain::Simulated;
  sim.name = "transfer";
  sim.worker = 1;
  sim.bytes = 4096;
  sim.begin_s = 0.5;
  sim.end_s = 0.75;
  spans.push_back(sim);
  Span host;  // zero duration, no worker -> instant event on the host track
  host.kind = SpanKind::Scheduler;
  host.name = "sched";
  host.begin_s = 0.0;
  host.end_s = 0.0;
  spans.push_back(host);
  return spans;
}

TEST(ChromeExport, EmitsParsableEventsWithTracks) {
  const std::string text = render_chrome_trace(sample_spans());
  const json::Value doc = json::parse(text);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0, instant = 0, metadata = 0;
  bool saw_real_pid = false, saw_sim_pid = false, saw_host_tid = false;
  for (const json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const int pid = static_cast<int>(e.find("pid")->number);
    const int tid = static_cast<int>(e.find("tid")->number);
    saw_real_pid |= pid == 1;
    saw_sim_pid |= pid == 2;
    saw_host_tid |= tid == kHostTid;
    if (ph == "X") {
      ++complete;
      EXPECT_GT(e.find("dur")->number, 0.0);
    } else if (ph == "i") {
      ++instant;
    }
    ASSERT_NE(e.find("args"), nullptr);
    EXPECT_NE(e.find("args")->find("bytes"), nullptr);
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instant, 1);
  // 2 process_name + 3 thread_name metadata events.
  EXPECT_EQ(metadata, 5);
  EXPECT_TRUE(saw_real_pid);
  EXPECT_TRUE(saw_sim_pid);
  EXPECT_TRUE(saw_host_tid);

  // The task span's timestamps are microseconds.
  for (const json::Value& e : events->array) {
    if (e.find("name")->string == "compute \"a\"") {
      EXPECT_NEAR(e.find("ts")->number, 1000.0, 1e-6);
      EXPECT_NEAR(e.find("dur")->number, 1000.0, 1e-6);
    }
  }
}

TEST(SummaryExport, ListsSpanKindsAndMetrics) {
  MetricsRegistry reg;
  reg.counter("demo.count").add(3);
  reg.histogram("demo.hist").observe(100);
  const std::string text = render_summary(sample_spans(), reg);
  EXPECT_NE(text.find("task"), std::string::npos);
  EXPECT_NE(text.find("collective"), std::string::npos);
  EXPECT_NE(text.find("demo.count = 3"), std::string::npos);
  EXPECT_NE(text.find("demo.hist"), std::string::npos);
}

// ---- calibration ----

arch::Machine machine() { return arch::Machine(arch::chic()); }

/// Builds a two-step PABM program graph (stage layers + update layers).
core::TaskGraph pabm_program() {
  ode::SolverGraphSpec spec;
  spec.n = std::size_t{1} << 12;
  spec.stages = 4;
  spec.iterations = 2;
  spec.method = ode::Method::PABM;
  core::TaskGraph program = core::repeat_graph(spec.step_graph(), 2);
  program.add_start_stop_markers();
  return program;
}

TEST(Calibration, SymbolicTimelineIsTheZeroErrorOracle) {
  // Measured spans synthesized from the scheduler's own Gantt lowering with
  // the symbolic cost model must calibrate to ~0 relative error: obs and
  // sched agree exactly when "measured" time *is* the model.
  const cost::CostModel cost(machine());
  const core::TaskGraph graph = pabm_program();
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost).run(graph, 8).layered;
  const core::TaskGraph& contracted = schedule.contraction.contracted;
  const sched::GanttSchedule gantt =
      sched::to_gantt(schedule, [&](core::TaskId id, int q, int g) {
        return cost.symbolic_task_time(contracted.task(id), q, g, 8);
      });
  const std::vector<Span> spans = spans_from_gantt(schedule, gantt);
  ASSERT_FALSE(spans.empty());

  const CalibrationReport report = calibrate(spans, schedule, cost);
  ASSERT_FALSE(report.tasks.empty());
  for (const TaskCalibration& t : report.tasks) {
    EXPECT_LT(std::abs(t.rel_error), 1e-9) << t.name;
    EXPECT_GT(t.predicted_s, 0.0);
  }
  // Layer envelopes only match the per-layer prediction when the layer's
  // groups are balanced; the stage layers of PABM are, so every reported
  // layer row must be exact as well.
  ASSERT_FALSE(report.layers.empty());
  for (const LayerCalibration& l : report.layers) {
    EXPECT_LT(std::abs(l.rel_error), 1e-9) << "layer " << l.layer;
  }
  EXPECT_LT(std::abs(report.mean_abs_rel_error), 1e-9);
  EXPECT_NEAR(report.fitted_scale, 1.0, 1e-9);

  const std::string table = render_calibration(report);
  EXPECT_NE(table.find("cost-model calibration"), std::string::npos);
  EXPECT_NE(table.find("fitted scale"), std::string::npos);
}

TEST(Calibration, MeasuredSlowerThanModelGivesPositiveError) {
  const cost::CostModel cost(machine());
  const core::TaskGraph graph = pabm_program();
  const sched::LayeredSchedule schedule =
      sched::Pipeline::algorithm1(cost).run(graph, 8).layered;
  const core::TaskGraph& contracted = schedule.contraction.contracted;
  // "Measured" runs 2x slower than predicted everywhere.
  const sched::GanttSchedule gantt =
      sched::to_gantt(schedule, [&](core::TaskId id, int q, int g) {
        return 2.0 * cost.symbolic_task_time(contracted.task(id), q, g, 8);
      });
  const CalibrationReport report =
      calibrate(spans_from_gantt(schedule, gantt), schedule, cost);
  ASSERT_FALSE(report.tasks.empty());
  for (const TaskCalibration& t : report.tasks) {
    EXPECT_NEAR(t.rel_error, 1.0, 1e-9) << t.name;
  }
  EXPECT_NEAR(report.fitted_scale, 2.0, 1e-9);
}

TEST(Calibration, SimTraceConvertsToSimulatedSpans) {
  sim::SimResult result;
  result.trace.push_back(
      sim::TraceEvent{sim::TraceEvent::Kind::Transfer, 1, 0, 2.0, 3.0, 64});
  result.trace.push_back(
      sim::TraceEvent{sim::TraceEvent::Kind::Compute, 0, -1, 0.0, 1.5, 0});
  const std::vector<Span> spans = spans_from_sim(result);
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by begin time.
  EXPECT_EQ(spans[0].kind, SpanKind::Task);
  EXPECT_EQ(spans[0].worker, 0);
  EXPECT_EQ(spans[0].clock, ClockDomain::Simulated);
  EXPECT_DOUBLE_EQ(spans[0].duration_s(), 1.5);
  EXPECT_EQ(spans[1].kind, SpanKind::Collective);
  EXPECT_EQ(spans[1].worker, 1);
  EXPECT_EQ(spans[1].bytes, 64u);
}

// ---- end-to-end executor trace ----

/// Hand-built two-layer schedule over 4 cores:
///   layer 0: tasks 0 and 1 on two groups of 2;
///   layer 1: task 2 on one group of 4.
sched::LayeredSchedule two_layer_schedule(const core::TaskGraph& g) {
  sched::LayeredSchedule s;
  s.total_cores = 4;
  s.contraction.contracted = g;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    s.contraction.members.push_back({id});
    s.contraction.representative.push_back(id);
  }
  sched::ScheduledLayer l0;
  l0.tasks = {0, 1};
  l0.group_sizes = {2, 2};
  l0.task_group = {0, 1};
  sched::ScheduledLayer l1;
  l1.tasks = {2};
  l1.group_sizes = {4};
  l1.task_group = {0};
  s.layers.push_back(std::move(l0));
  s.layers.push_back(std::move(l1));
  return s;
}

TEST(ExecutorTrace, EndToEndSpansNestAndExportParses) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::TaskGraph g;
  g.add_task(core::MTask("alpha", 1.0));
  g.add_task(core::MTask("beta", 1.0));
  g.add_task(core::MTask("gamma", 1.0));
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const sched::LayeredSchedule schedule = two_layer_schedule(g);

  std::vector<rt::TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [](rt::ExecContext& ctx) {
      // A touch of real work plus a group collective, so task spans have
      // measurable duration and barrier-wait spans appear inside them.
      volatile double acc = 0.0;
      for (int k = 0; k < 20000; ++k) acc = acc + 1e-6 * k;
      ctx.comm->barrier(ctx.group_rank);
    };
  }

  tracer().clear();
  tracer().set_enabled(true);
  rt::Executor exec(4);
  exec.run(schedule, fns);
  tracer().set_enabled(false);
  const std::vector<Span> spans = tracer().take();

  std::vector<const Span*> runs, layers, tasks, barriers;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::Run) runs.push_back(&s);
    if (s.kind == SpanKind::Layer) layers.push_back(&s);
    if (s.kind == SpanKind::Task) tasks.push_back(&s);
    if (s.kind == SpanKind::BarrierWait) barriers.push_back(&s);
  }
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(layers.size(), 2u);
  // Layer 0: tasks alpha+beta on 2 workers each; layer 1: gamma on 4.
  ASSERT_EQ(tasks.size(), 8u);
  EXPECT_FALSE(barriers.empty());

  const Span& run = *runs[0];
  double task_sum_per_core[4] = {0.0, 0.0, 0.0, 0.0};
  for (const Span* t : tasks) {
    // Per-core track assignment: every task span executes on a real worker.
    ASSERT_GE(t->worker, 0);
    ASSERT_LT(t->worker, 4);
    EXPECT_GE(t->group, 0);
    EXPECT_GT(t->group_size, 0);
    // Nesting: task spans lie within the run span and their layer span.
    EXPECT_GE(t->begin_s, run.begin_s);
    EXPECT_LE(t->end_s, run.end_s);
    ASSERT_GE(t->layer, 0);
    ASSERT_LT(t->layer, 2);
    const Span* layer = nullptr;
    for (const Span* l : layers) {
      if (l->layer == t->layer) layer = l;
    }
    ASSERT_NE(layer, nullptr);
    EXPECT_GE(t->begin_s, layer->begin_s);
    EXPECT_LE(t->end_s, layer->end_s);
    task_sum_per_core[t->worker] += t->duration_s();
  }
  // A core executes tasks sequentially, so its task time fits in the run.
  for (double sum : task_sum_per_core) {
    EXPECT_LE(sum, run.duration_s() + 1e-9);
  }
  // Barrier waits inherit the executing task's attribution.
  for (const Span* b : barriers) {
    EXPECT_GE(b->worker, 0);
    EXPECT_GE(b->group, 0);
    EXPECT_GE(b->task, 0);
  }

  // The exported trace must round-trip through the JSON reader.
  const json::Value doc = json::parse(render_chrome_trace(spans));
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t timed = 0;
  for (const json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "X" || ph == "i") ++timed;
  }
  EXPECT_EQ(timed, spans.size());
}

TEST(ExecutorTrace, RealRunCalibratesAgainstTheCostModel) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::TaskGraph g;
  g.add_task(core::MTask("alpha", 1.0e6));
  g.add_task(core::MTask("beta", 1.0e6));
  g.add_task(core::MTask("gamma", 2.0e6));
  const sched::LayeredSchedule schedule = two_layer_schedule(g);
  std::vector<rt::TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [](rt::ExecContext&) {
      volatile double acc = 0.0;
      for (int k = 0; k < 10000; ++k) acc = acc + 1e-6 * k;
    };
  }
  tracer().clear();
  tracer().set_enabled(true);
  rt::Executor exec(4);
  exec.run(schedule, fns);
  tracer().set_enabled(false);

  const cost::CostModel cost(machine());
  const CalibrationReport report =
      calibrate(tracer().take(), schedule, cost);
  // All three tasks have positive predictions and measured wall time, so
  // the report has one row each with a finite error.
  ASSERT_EQ(report.tasks.size(), 3u);
  for (const TaskCalibration& t : report.tasks) {
    EXPECT_GT(t.predicted_s, 0.0);
    EXPECT_GT(t.measured_s, 0.0);
    EXPECT_EQ(t.invocations, 1u);
    EXPECT_TRUE(std::isfinite(t.rel_error));
  }
  EXPECT_EQ(report.layers.size(), 2u);
}

TEST(DynamicSchedulerTrace, RecordsTaskSpansAndMetrics) {
  const std::uint64_t submitted_before =
      metrics().counter("rt.dyn.submitted").value();
  const std::uint64_t completed_before =
      metrics().counter("rt.dyn.completed").value();

  if (kTracingCompiledIn) {
    tracer().clear();
    tracer().set_enabled(true);
  }
  {
    rt::DynamicScheduler dyn(4);
    std::atomic<int> executed{0};
    for (int i = 0; i < 3; ++i) {
      rt::DynamicTask task;
      task.name = "dyn" + std::to_string(i);
      task.min_cores = 1;
      task.max_cores = 2;
      task.body = [&executed](rt::ExecContext& ctx) {
        if (ctx.group_rank == 0) executed++;
      };
      dyn.submit(std::move(task));
    }
    dyn.wait();
    EXPECT_EQ(executed.load(), 3);
  }
  EXPECT_EQ(metrics().counter("rt.dyn.submitted").value() - submitted_before,
            3u);
  EXPECT_EQ(metrics().counter("rt.dyn.completed").value() - completed_before,
            3u);
  EXPECT_GE(metrics().histogram("rt.dyn.group_size").count(), 3u);

  if (kTracingCompiledIn) {
    tracer().set_enabled(false);
    const std::vector<Span> spans = tracer().take();
    int dyn_tasks = 0;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::Task && s.name.rfind("dyn", 0) == 0) {
        ++dyn_tasks;
        EXPECT_GE(s.worker, 0);
        EXPECT_LT(s.worker, 4);
      }
    }
    // One span per group member per task; every task has >= 1 member.
    EXPECT_GE(dyn_tasks, 3);
  }
}

}  // namespace
}  // namespace ptask::obs
