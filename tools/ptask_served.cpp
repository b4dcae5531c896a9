// ptask_served -- the scheduling-as-a-service daemon.
//
// Listens on a loopback TCP port for length-prefixed JSON schedule requests
// (see docs/SERVICE.md and src/include/ptask/serve/protocol.hpp), schedules
// them through the SchedulerRegistry on a worker pool, and answers repeated
// requests from the whole-schedule cache.  SIGINT/SIGTERM trigger a
// graceful shutdown: in-flight requests drain, then the service stats are
// printed (and optionally written to --stats-out as JSON).
//
// Usage:
//   ptask_served [--port N] [--workers N] [--max-request-bytes N]
//                [--cache-max-entries N] [--max-queue N]
//                [--retry-after-ms N] [--batch-max N] [--batch-window-us N]
//                [--stats-out FILE] [--metrics-out FILE]
//                [--snapshot-interval-s N] [--slow-log FILE]
//                [--slow-threshold-us N] [--trace] [--quiet]
//
// --cache-max-entries bounds the schedule cache to N completed entries
// (LRU eviction, reported as serve.cache.evictions); 0 = unbounded.
//
// Overload & batching (see docs/SERVICE.md "Throughput & overload"):
//   --max-queue N         admission-queue bound between the reactor and the
//                         workers; a request arriving with the queue full is
//                         answered PTS008 immediately (0 = unbounded)
//   --retry-after-ms N    backoff hint carried in PTS008 responses
//   --batch-max N         max requests one worker dequeues together;
//                         compatible schedule requests among them run as
//                         one batch (1 disables batching)
//   --batch-window-us N   optional wait for more requests to join a batch;
//                         0 batches only the existing backlog
//
// Observability (see docs/OBSERVABILITY.md "Serving observability"):
//   --stats-out FILE          JSON stats snapshot, refreshed every
//                             --snapshot-interval-s seconds and at shutdown
//   --metrics-out FILE        Prometheus text exposition, same cadence
//   --slow-log FILE           structured slow-request log (JSON lines)
//   --slow-threshold-us N     log requests slower than N microseconds
//   --trace                   enable the span tracer (same as PTASK_TRACE=1);
//                             live traces are served on the `trace` endpoint
//
// --port 0 (the default) picks an ephemeral port; the bound port is always
// printed as "ptask_served: listening on 127.0.0.1:<port>" so wrappers
// (the CI smoke job, the loadgen --spawn mode) can scrape it.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "ptask/obs/trace.hpp"
#include "ptask/serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--workers N] [--max-request-bytes N]"
               " [--cache-max-entries N] [--max-queue N] [--retry-after-ms N]"
               " [--batch-max N] [--batch-window-us N] [--stats-out FILE]"
               " [--metrics-out FILE] [--snapshot-interval-s N]"
               " [--slow-log FILE] [--slow-threshold-us N] [--trace]"
               " [--quiet]\n";
  return 2;
}

/// Atomic-enough snapshot: write to FILE.tmp, then rename over FILE, so a
/// concurrent scraper (ptask_top, the CI smoke job) never reads a torn file.
void write_snapshot(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << body;
    if (body.empty() || body.back() != '\n') out << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ptask::serve::ServerOptions options;
  std::string stats_out;
  std::string metrics_out;
  int snapshot_interval_s = 2;
  bool trace = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = std::atoi(next());
    } else if (arg == "--workers") {
      options.num_workers = std::atoi(next());
    } else if (arg == "--max-request-bytes") {
      options.max_request_bytes =
          static_cast<std::uint32_t>(std::atoll(next()));
    } else if (arg == "--cache-max-entries") {
      options.cache_max_entries =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-queue") {
      options.max_queue = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--retry-after-ms") {
      options.overload_retry_after_ms =
          static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--batch-max") {
      options.batch_max = std::atoi(next());
    } else if (arg == "--batch-window-us") {
      options.batch_window_us = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--stats-out") {
      stats_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--snapshot-interval-s") {
      snapshot_interval_s = std::atoi(next());
    } else if (arg == "--slow-log") {
      options.slow_log_path = next();
    } else if (arg == "--slow-threshold-us") {
      options.slow_threshold_us =
          static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  if (trace) ptask::obs::tracer().set_enabled(true);

  ptask::serve::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "ptask_served: " << e.what() << "\n";
    return 1;
  }
  // Printed unconditionally (wrappers scrape it); --quiet only silences the
  // shutdown summary.
  std::cout << "ptask_served: listening on 127.0.0.1:" << server.port()
            << std::endl;

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const auto snapshot_interval =
      std::chrono::seconds(std::max(1, snapshot_interval_s));
  auto next_snapshot = std::chrono::steady_clock::now() + snapshot_interval;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if ((!stats_out.empty() || !metrics_out.empty()) &&
        std::chrono::steady_clock::now() >= next_snapshot) {
      if (!stats_out.empty()) write_snapshot(stats_out, server.render_stats());
      if (!metrics_out.empty()) {
        write_snapshot(metrics_out, server.render_metrics());
      }
      next_snapshot = std::chrono::steady_clock::now() + snapshot_interval;
    }
  }

  if (!quiet) std::cout << "ptask_served: draining and shutting down\n";
  server.stop();

  const std::string stats = server.render_stats();
  if (!stats_out.empty()) write_snapshot(stats_out, stats);
  if (!metrics_out.empty()) write_snapshot(metrics_out, server.render_metrics());
  if (!quiet) std::cout << stats << std::endl;
  return 0;
}
