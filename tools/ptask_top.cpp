// ptask_top -- live RED-metrics view of a running ptask_served daemon.
//
// Polls the daemon's `stats` and `metrics` endpoints and renders Rate /
// Errors / Duration at a glance: request throughput, error share, latency
// percentiles (p50/p90/p99 estimated from the log-bucket Prometheus
// histogram -- factor-of-two error bound, see docs/OBSERVABILITY.md),
// cache hit rate, and the per-phase latency breakdown
// (recv/parse/cache/schedule/certify/serialize/send), plus per-strategy
// and per-family request counts.
//
// Modes:
//   (default)           refreshing text dashboard every --interval-s seconds
//   --once              render a single frame and exit
//   --json              render the frame as one JSON object (machine
//                       readable; implies no screen clearing)
//   --spawn             self-host a server, issue a small request burst, and
//                       self-check the rendered numbers against the raw
//                       exposition -- the CTest entry; exits non-zero on any
//                       inconsistency
//   --metrics-out FILE  also dump the raw Prometheus exposition of the last
//                       poll (what CI feeds to tools/promlint.py)
//   --trace-out FILE    also dump a live Chrome/Perfetto trace drained from
//                       the daemon's tracer (`trace` endpoint)
//
// Usage:
//   ptask_top (--spawn | --port N [--host H]) [--interval-s S] [--once]
//       [--json] [--metrics-out FILE] [--trace-out FILE]

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ptask/fuzz/generator.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/obs/prometheus.hpp"
#include "ptask/serve/client.hpp"
#include "ptask/serve/server.hpp"

namespace {

namespace obs = ptask::obs;
namespace serve = ptask::serve;

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  bool spawn = false;
  double interval_s = 2.0;
  bool once = false;
  bool json = false;
  std::string metrics_out;
  std::string trace_out;
};

/// One phase (or per-strategy/per-family) latency row of the dashboard.
struct PhaseRow {
  std::string label;
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Everything one poll of the daemon yields, already digested for display.
struct Frame {
  bool ok = false;
  double uptime_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t in_flight = 0;
  double hit_rate = -1.0;  ///< -1 = cache untouched
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t latency_count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_max = 0;
  std::uint64_t queue_enqueued = 0;
  std::uint64_t queue_rejected = 0;
  PhaseRow queue_wait;  ///< serve.queue.wait_us percentiles
  std::uint64_t batch_runs = 0;
  std::uint64_t batch_coalesced = 0;
  /// Per-bucket (non-cumulative) counts of serve.batch.size, non-empty
  /// buckets only: (inclusive upper bound, count in this bucket).
  std::vector<std::pair<double, std::uint64_t>> batch_sizes;
  std::vector<PhaseRow> phases;
  std::vector<std::pair<std::string, std::uint64_t>> strategies;
  std::vector<std::pair<std::string, std::uint64_t>> families;
  std::vector<std::pair<std::string, std::uint64_t>> error_codes;
  std::string exposition;  ///< raw Prometheus text of this poll
};

constexpr const char* kPhases[] = {"recv",    "parse",     "cache",
                                   "schedule", "certify",  "serialize",
                                   "send"};

/// Registry histogram name of a dashboard phase label.
std::string phase_metric(const std::string& label) {
  return "serve.phase." + label + "_us";
}

PhaseRow histogram_row(const std::string& label, std::string_view exposition,
                       const std::string& registry_name) {
  PhaseRow row;
  row.label = label;
  const obs::PromHistogram hist = obs::parse_prometheus_histogram(
      exposition, obs::prometheus_name(registry_name));
  if (hist.found && hist.count > 0) {
    row.count = hist.count;
    row.p50_us = obs::prometheus_percentile(hist, 0.5);
    row.p99_us = obs::prometheus_percentile(hist, 0.99);
  }
  return row;
}

/// One stats+metrics round trip, digested.  All percentiles come from the
/// Prometheus exposition (the same bytes --metrics-out dumps), so what the
/// dashboard shows is exactly what a scraper would compute.
Frame poll(serve::Client& client) {
  Frame frame;
  const std::string stats_payload = client.stats();
  frame.exposition = serve::response_metrics_text(client.metrics());

  const obs::json::Value document = obs::json::parse(stats_payload);
  const obs::json::Value* stats = document.find("stats");
  if (stats == nullptr) return frame;
  const auto number = [&](const char* key) -> double {
    const obs::json::Value* v = stats->find(key);
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  frame.uptime_s = number("uptime_s");
  frame.requests = static_cast<std::uint64_t>(number("requests"));
  frame.responses_ok = static_cast<std::uint64_t>(number("responses_ok"));
  frame.in_flight = static_cast<std::uint64_t>(number("in_flight"));
  if (const obs::json::Value* cache = stats->find("cache")) {
    const auto cache_number = [&](const char* key) -> std::uint64_t {
      const obs::json::Value* v = cache->find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::uint64_t>(v->number)
                 : 0;
    };
    frame.cache_hits = cache_number("hits");
    frame.cache_misses = cache_number("misses");
    frame.cache_entries = cache_number("entries");
    if (frame.cache_hits + frame.cache_misses > 0) {
      frame.hit_rate = static_cast<double>(frame.cache_hits) /
                       static_cast<double>(frame.cache_hits +
                                           frame.cache_misses);
    }
  }
  if (const obs::json::Value* queue = stats->find("queue")) {
    const auto queue_number = [&](const char* key) -> std::uint64_t {
      const obs::json::Value* v = queue->find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::uint64_t>(v->number)
                 : 0;
    };
    frame.queue_depth = queue_number("depth");
    frame.queue_max = queue_number("max");
    frame.queue_enqueued = queue_number("enqueued");
    frame.queue_rejected = queue_number("rejected");
  }
  if (const obs::json::Value* batch = stats->find("batch")) {
    const auto batch_number = [&](const char* key) -> std::uint64_t {
      const obs::json::Value* v = batch->find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::uint64_t>(v->number)
                 : 0;
    };
    frame.batch_runs = batch_number("runs");
    frame.batch_coalesced = batch_number("coalesced");
  }
  if (const obs::json::Value* errors = stats->find("errors")) {
    for (const auto& [code, value] : errors->object) {
      if (!value.is_number()) continue;
      const auto count = static_cast<std::uint64_t>(value.number);
      frame.errors += count;
      frame.error_codes.emplace_back(code, count);
    }
  }
  // Per-strategy / per-family request counters from the full registry dump.
  if (const obs::json::Value* counters = stats->find("counters")) {
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) continue;
      constexpr std::string_view kStrategy = "serve.strategy.";
      constexpr std::string_view kFamily = "serve.family.";
      constexpr std::string_view kRequests = ".requests";
      if (name.size() > kStrategy.size() + kRequests.size() &&
          name.compare(0, kStrategy.size(), kStrategy) == 0 &&
          name.compare(name.size() - kRequests.size(), kRequests.size(),
                       kRequests) == 0) {
        frame.strategies.emplace_back(
            name.substr(kStrategy.size(),
                        name.size() - kStrategy.size() - kRequests.size()),
            static_cast<std::uint64_t>(value.number));
      }
      if (name.size() > kFamily.size() + kRequests.size() &&
          name.compare(0, kFamily.size(), kFamily) == 0 &&
          name.compare(name.size() - kRequests.size(), kRequests.size(),
                       kRequests) == 0) {
        frame.families.emplace_back(
            name.substr(kFamily.size(),
                        name.size() - kFamily.size() - kRequests.size()),
            static_cast<std::uint64_t>(value.number));
      }
    }
  }

  const obs::PromHistogram latency = obs::parse_prometheus_histogram(
      frame.exposition, obs::prometheus_name("serve.latency_us"));
  if (latency.found && latency.count > 0) {
    frame.latency_count = latency.count;
    frame.p50_us = obs::prometheus_percentile(latency, 0.5);
    frame.p90_us = obs::prometheus_percentile(latency, 0.9);
    frame.p99_us = obs::prometheus_percentile(latency, 0.99);
  }
  for (const char* phase : kPhases) {
    frame.phases.push_back(
        histogram_row(phase, frame.exposition, phase_metric(phase)));
  }
  frame.queue_wait =
      histogram_row("queue-wait", frame.exposition, "serve.queue.wait_us");
  // Batch-size distribution: de-cumulate the exposition buckets and keep
  // the non-empty ones (sizes are small integers, so the log buckets read
  // naturally as "<=1", "<=2", "<=4", ...).
  const obs::PromHistogram batch_hist = obs::parse_prometheus_histogram(
      frame.exposition, obs::prometheus_name("serve.batch.size"));
  if (batch_hist.found) {
    std::uint64_t previous = 0;
    for (const auto& [bound, cumulative] : batch_hist.buckets) {
      if (cumulative > previous) {
        // The +Inf overflow bucket is stored as -1 so the JSON frame stays
        // numeric; batch sizes are tiny, so it is empty in practice.
        frame.batch_sizes.emplace_back(std::isfinite(bound) ? bound : -1.0,
                                       cumulative - previous);
      }
      previous = cumulative;
    }
  }
  frame.ok = true;
  return frame;
}

std::string format_us(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fus", us);
  }
  return buf;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// The --json frame: everything the text dashboard shows, machine readable.
std::string render_json(const Frame& frame, double rate_qps) {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"uptime_s\":%.3f,\"requests\":%llu,\"responses_ok\":%llu,"
                "\"errors\":%llu,\"in_flight\":%llu,\"rate_qps\":%.3f",
                frame.uptime_s,
                static_cast<unsigned long long>(frame.requests),
                static_cast<unsigned long long>(frame.responses_ok),
                static_cast<unsigned long long>(frame.errors),
                static_cast<unsigned long long>(frame.in_flight), rate_qps);
  out += buf;
  if (frame.hit_rate >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"cache_hit_rate\":%.6f",
                  frame.hit_rate);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                ",\"latency_us\":{\"count\":%llu,\"p50\":%.3f,\"p90\":%.3f,"
                "\"p99\":%.3f}",
                static_cast<unsigned long long>(frame.latency_count),
                frame.p50_us, frame.p90_us, frame.p99_us);
  out += buf;
  const double rejected_pct =
      frame.queue_enqueued + frame.queue_rejected > 0
          ? 100.0 * static_cast<double>(frame.queue_rejected) /
                static_cast<double>(frame.queue_enqueued +
                                    frame.queue_rejected)
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                ",\"queue\":{\"depth\":%llu,\"max\":%llu,\"enqueued\":%llu,"
                "\"rejected\":%llu,\"rejected_pct\":%.3f,"
                "\"wait_us\":{\"count\":%llu,\"p50\":%.3f,\"p99\":%.3f}}",
                static_cast<unsigned long long>(frame.queue_depth),
                static_cast<unsigned long long>(frame.queue_max),
                static_cast<unsigned long long>(frame.queue_enqueued),
                static_cast<unsigned long long>(frame.queue_rejected),
                rejected_pct,
                static_cast<unsigned long long>(frame.queue_wait.count),
                frame.queue_wait.p50_us, frame.queue_wait.p99_us);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"batch\":{\"runs\":%llu,\"coalesced\":%llu,\"sizes\":[",
                static_cast<unsigned long long>(frame.batch_runs),
                static_cast<unsigned long long>(frame.batch_coalesced));
  out += buf;
  for (std::size_t i = 0; i < frame.batch_sizes.size(); ++i) {
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof(buf), "{\"le\":%.0f,\"count\":%llu}",
                  frame.batch_sizes[i].first,
                  static_cast<unsigned long long>(frame.batch_sizes[i].second));
    out += buf;
  }
  out += "]}";
  out += ",\"phases\":{";
  bool first = true;
  for (const PhaseRow& row : frame.phases) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, row.label);
    std::snprintf(buf, sizeof(buf),
                  "\":{\"count\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f}",
                  static_cast<unsigned long long>(row.count), row.p50_us,
                  row.p99_us);
    out += buf;
  }
  out += '}';
  const auto map = [&](const char* key,
                       const std::vector<std::pair<std::string,
                                                   std::uint64_t>>& rows) {
    out += ",\"";
    out += key;
    out += "\":{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      append_json_escaped(out, rows[i].first);
      out += "\":" + std::to_string(rows[i].second);
    }
    out += '}';
  };
  map("strategies", frame.strategies);
  map("families", frame.families);
  map("error_codes", frame.error_codes);
  out += "}\n";
  return out;
}

void render_text(const Frame& frame, double rate_qps, const Options& options,
                 bool clear) {
  std::string out;
  char buf[256];
  if (clear) out += "\033[2J\033[H";  // refresh in place between polls
  std::snprintf(buf, sizeof(buf), "ptask_top -- %s:%d   uptime %.1fs\n",
                options.host.c_str(), options.port, frame.uptime_s);
  out += buf;
  const double error_pct =
      frame.requests > 0 ? 100.0 * static_cast<double>(frame.errors) /
                               static_cast<double>(frame.requests)
                         : 0.0;
  std::snprintf(buf, sizeof(buf),
                "requests %llu (%.1f qps)   errors %llu (%.1f%%)   "
                "in-flight %llu\n",
                static_cast<unsigned long long>(frame.requests), rate_qps,
                static_cast<unsigned long long>(frame.errors), error_pct,
                static_cast<unsigned long long>(frame.in_flight));
  out += buf;
  if (frame.hit_rate >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "cache    hit rate %.1f%% (hits %llu, misses %llu, "
                  "entries %llu)\n",
                  100.0 * frame.hit_rate,
                  static_cast<unsigned long long>(frame.cache_hits),
                  static_cast<unsigned long long>(frame.cache_misses),
                  static_cast<unsigned long long>(frame.cache_entries));
    out += buf;
  }
  const double rejected_pct =
      frame.queue_enqueued + frame.queue_rejected > 0
          ? 100.0 * static_cast<double>(frame.queue_rejected) /
                static_cast<double>(frame.queue_enqueued +
                                    frame.queue_rejected)
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "queue    depth %llu/%llu   enqueued %llu   rejected %llu "
                "(%.1f%%)   wait p50~%s p99~%s\n",
                static_cast<unsigned long long>(frame.queue_depth),
                static_cast<unsigned long long>(frame.queue_max),
                static_cast<unsigned long long>(frame.queue_enqueued),
                static_cast<unsigned long long>(frame.queue_rejected),
                rejected_pct, format_us(frame.queue_wait.p50_us).c_str(),
                format_us(frame.queue_wait.p99_us).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "batch    runs %llu   coalesced %llu\n",
                static_cast<unsigned long long>(frame.batch_runs),
                static_cast<unsigned long long>(frame.batch_coalesced));
  out += buf;
  if (!frame.batch_sizes.empty()) {
    out += "  size       invocations\n";
    for (const auto& [bound, count] : frame.batch_sizes) {
      if (bound < 0) {
        std::snprintf(buf, sizeof(buf), "  >max      %12llu\n",
                      static_cast<unsigned long long>(count));
      } else {
        std::snprintf(buf, sizeof(buf), "  <=%-7.0f %12llu\n", bound,
                      static_cast<unsigned long long>(count));
      }
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "latency  p50~%s  p90~%s  p99~%s  (count %llu)\n",
                format_us(frame.p50_us).c_str(),
                format_us(frame.p90_us).c_str(),
                format_us(frame.p99_us).c_str(),
                static_cast<unsigned long long>(frame.latency_count));
  out += buf;
  out += "phase          count      p50       p99\n";
  for (const PhaseRow& row : frame.phases) {
    std::snprintf(buf, sizeof(buf), "  %-10s %8llu %9s %9s\n",
                  row.label.c_str(),
                  static_cast<unsigned long long>(row.count),
                  format_us(row.p50_us).c_str(),
                  format_us(row.p99_us).c_str());
    out += buf;
  }
  const auto section = [&](const char* title,
                           const std::vector<std::pair<std::string,
                                                       std::uint64_t>>&
                               rows) {
    if (rows.empty()) return;
    out += title;
    out += '\n';
    for (const auto& [name, count] : rows) {
      std::snprintf(buf, sizeof(buf), "  %-18s %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  };
  section("strategy       requests", frame.strategies);
  section("family         requests", frame.families);
  section("errors         count", frame.error_codes);
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

/// --spawn self-check: the daemon, the exposition, and the dashboard must
/// agree with each other.  Returns the number of inconsistencies.
int self_check(const Frame& frame, std::uint64_t issued,
               std::uint64_t expected_errors) {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "ptask_top: SELF-CHECK FAILED: " << what << "\n";
      ++failures;
    }
  };
  check(frame.ok, "stats payload did not parse");
  check(frame.requests >= issued,
        "requests " + std::to_string(frame.requests) + " < issued " +
            std::to_string(issued));
  check(frame.errors == expected_errors,
        "errors " + std::to_string(frame.errors) + " != expected " +
            std::to_string(expected_errors));
  check(frame.latency_count > 0, "empty latency histogram");
  check(frame.p50_us <= frame.p90_us && frame.p90_us <= frame.p99_us,
        "percentiles not monotone");
  check(frame.hit_rate > 0, "repeated requests produced no cache hits");
  // Phase counts: every handled payload is parsed, and the cache phase also
  // runs on error paths, so both count at least the latency observations.
  for (const PhaseRow& row : frame.phases) {
    if (row.label == "parse" || row.label == "cache") {
      check(row.count >= frame.latency_count,
            "phase " + row.label + " count " + std::to_string(row.count) +
                " < latency count " + std::to_string(frame.latency_count));
    }
  }
  // Queue panel: every frame the burst issued was either admitted through
  // the queue or answered on the reactor as a ready cache hit, which skips
  // the queue (the burst is far below the default bound, so none
  // rejected), and every admitted job observed its wait time when a worker
  // took it.
  check(frame.queue_max > 0, "queue max not reported");
  check(frame.queue_enqueued + frame.cache_hits >= issued,
        "queue enqueued " + std::to_string(frame.queue_enqueued) +
            " + cache hits " + std::to_string(frame.cache_hits) +
            " < issued " + std::to_string(issued));
  check(frame.queue_rejected == 0,
        "burst below the queue bound still saw rejections");
  check(frame.queue_wait.count + frame.cache_hits >= issued,
        "queue wait histogram count " +
            std::to_string(frame.queue_wait.count) + " + cache hits " +
            std::to_string(frame.cache_hits) + " < issued " +
            std::to_string(issued));
  // Batch panel consistency: a batch run coalesces at least two requests,
  // and the size histogram tallies every scheduler invocation (singleton
  // groups included), so it covers at least the multi-request runs and is
  // non-empty once schedule requests flowed.
  check(frame.batch_coalesced >= 2 * frame.batch_runs,
        "batch coalesced < 2x batch runs");
  std::uint64_t batch_size_total = 0;
  for (const auto& [bound, count] : frame.batch_sizes) {
    batch_size_total += count;
  }
  check(batch_size_total >= frame.batch_runs,
        "batch size histogram total " + std::to_string(batch_size_total) +
            " < batch runs " + std::to_string(frame.batch_runs));
  check(batch_size_total > 0, "no scheduler invocations in size histogram");
  // The dashboard's percentiles must be reproducible from the raw
  // exposition bytes (the --metrics-out artifact).
  const obs::PromHistogram latency = obs::parse_prometheus_histogram(
      frame.exposition, obs::prometheus_name("serve.latency_us"));
  check(latency.found && latency.count == frame.latency_count,
        "exposition latency histogram disagrees with dashboard count");
  if (latency.found && latency.count > 0) {
    check(std::abs(obs::prometheus_percentile(latency, 0.99) -
                   frame.p99_us) < 1e-9,
          "exposition p99 disagrees with dashboard p99");
  }
  // The JSON frame must parse round-trip clean.
  try {
    obs::json::parse(render_json(frame, 0.0));
  } catch (const std::exception& e) {
    check(false, std::string("--json frame does not parse: ") + e.what());
  }
  return failures;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--spawn | --port N [--host H]) [--interval-s S] [--once]"
               " [--json] [--metrics-out FILE] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = std::atoi(next());
    } else if (arg == "--spawn") {
      options.spawn = true;
    } else if (arg == "--interval-s") {
      options.interval_s = std::atof(next());
    } else if (arg == "--once") {
      options.once = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--metrics-out") {
      options.metrics_out = next();
    } else if (arg == "--trace-out") {
      options.trace_out = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }
  if (!options.spawn && options.port == 0) {
    std::cerr << "either --spawn or --port is required\n";
    return usage(argv[0]);
  }
  if (options.interval_s <= 0) options.interval_s = 2.0;

  // --spawn: self-hosted daemon plus a deterministic little burst so every
  // dashboard section has data (repeats for cache hits, one bad request for
  // the error column).
  std::unique_ptr<serve::Server> spawned;
  std::uint64_t issued = 0;
  std::uint64_t expected_errors = 0;
  if (options.spawn) {
    spawned = std::make_unique<serve::Server>(serve::ServerOptions{});
    spawned->start();
    options.port = spawned->port();
    serve::Client client;
    client.connect(options.host, options.port);
    std::uint64_t seed = 1;
    for (int unique = 0; unique < 3; ++unique) {
      ptask::fuzz::Instance instance = ptask::fuzz::random_instance(seed++);
      while (instance.graph.num_tasks() > 64) {
        instance = ptask::fuzz::random_instance(seed++);
      }
      serve::ScheduleRequest request;
      request.scheduler = "portfolio";
      request.total_cores = instance.total_cores;
      request.machine = instance.machine;
      request.graph = instance.graph;
      request.family = ptask::fuzz::to_string(instance.family);
      const std::string payload = serve::serialize_request(request);
      for (int repeat = 0; repeat < 3; ++repeat) {
        if (!serve::response_ok(client.call(payload))) {
          std::cerr << "ptask_top: spawn burst request failed\n";
          return 1;
        }
        ++issued;
      }
    }
    client.call("{broken json!");  // exactly one PTS001 for the error column
    ++expected_errors;
    options.once = true;  // spawn mode is one frame + self-check
  }

  serve::Client client;
  try {
    client.connect(options.host, options.port);
  } catch (const std::exception& e) {
    std::cerr << "ptask_top: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  int exit_code = 0;
  bool first = true;
  std::uint64_t previous_requests = 0;
  auto previous_time = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    Frame frame;
    try {
      frame = poll(client);
    } catch (const std::exception& e) {
      std::cerr << "ptask_top: poll failed: " << e.what() << "\n";
      exit_code = 1;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    // First frame: lifetime average from uptime; afterwards the window rate.
    double rate_qps = frame.uptime_s > 0
                          ? static_cast<double>(frame.requests) /
                                frame.uptime_s
                          : 0.0;
    if (!first) {
      const double window =
          std::chrono::duration<double>(now - previous_time).count();
      if (window > 0 && frame.requests >= previous_requests) {
        rate_qps =
            static_cast<double>(frame.requests - previous_requests) / window;
      }
    }
    previous_requests = frame.requests;
    previous_time = now;

    if (options.json) {
      std::fputs(render_json(frame, rate_qps).c_str(), stdout);
      std::fflush(stdout);
    } else {
      render_text(frame, rate_qps, options, /*clear=*/!options.once);
    }
    if (!options.metrics_out.empty()) {
      std::ofstream out(options.metrics_out);
      out << frame.exposition;
    }
    if (!options.trace_out.empty()) {
      const std::string trace_json =
          serve::response_trace_json(client.trace());
      if (!trace_json.empty()) {
        std::ofstream out(options.trace_out);
        out << trace_json << "\n";
      }
    }
    if (options.spawn) {
      exit_code = self_check(frame, issued, expected_errors) == 0 ? 0 : 1;
    }
    first = false;
    if (options.once) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.interval_s));
  }

  if (spawned) spawned->stop();
  return exit_code;
}
