#pragma once
/// \file server.hpp
/// The scheduling-as-a-service daemon core (`tools/ptask_served` is a thin
/// main() around this class).
///
/// A `Server` listens on a loopback TCP port and answers the length-prefixed
/// JSON protocol of protocol.hpp.  The data path is event-driven: one
/// reactor thread (see reactor.hpp) multiplexes every connection with epoll
/// and assembles complete frames nonblockingly.  For each frame it first
/// asks the bounded admission queue: when the queue is full the frame is
/// rejected immediately, unparsed, with the stable PTS008 overload error
/// (carrying a `retry_after_ms` backoff hint) instead of growing memory
/// without bound.  An admitted frame is parsed once, on the reactor; a
/// schedule request whose cached answer is ready is answered there and
/// then, and everything else -- misses, sessions, stats/metrics/trace/ping,
/// parse errors -- goes through the queue to a pool of compute workers, so
/// `num_workers` sizes *compute* and a thousand idle keep-alive connections
/// cost no threads.
///
/// "schedule" requests are keyed by their canonical key (a binary encoding
/// of the schedulable content) and answered from a single-flight
/// `ScheduleCache`, so a repeated graph/machine/scheduler request costs one
/// scheduler run process-wide and every response carries byte-identical
/// schedule bytes.  Requests that dequeue together and agree on
/// (scheduler, total_cores, certify, machine) -- the prefix of their keys --
/// but differ in graph are *batched*: they run back to back on one worker
/// through one `sched::BatchScheduler`, which resolves the strategy once
/// and shares no pricing between members, so responses are byte-identical
/// to unbatched execution.
///
/// Shutdown is graceful and prompt (eventfd wakeups, no poll timeouts):
/// `stop()` closes the listener, lets the workers drain every admitted
/// request, flushes the pending responses, and joins all threads --
/// in-flight work is drained, never aborted mid-schedule.
///
/// Observability: the server reports through the global metrics registry --
///   serve.requests          frames successfully read
///   serve.responses.ok      successful schedule/stats/ping responses
///   serve.error.PTS00x      one counter per protocol error code
///   serve.cache.hit/miss    schedule cache accounting (via ScheduleCache)
///   serve.latency_us        histogram of schedule-request service time
///   serve.connections       accepted connections
///   serve.phase.*_us        per-phase latency histograms: recv, parse,
///                           cache (lookup incl. single-flight wait),
///                           schedule/certify/serialize (cache misses
///                           only), send
///   serve.queue.enqueued    requests admitted to the bounded queue (ready
///                           cache hits are answered without it)
///   serve.queue.rejected    requests rejected with PTS008 (queue full)
///   serve.queue.wait_us     histogram of time spent queued before a
///                           worker picked the request up (the queue depth
///                           is a stats/metrics gauge)
///   serve.batch.size        histogram of schedule-group sizes per worker
///                           dequeue (size 1 = unbatched)
///   serve.batch.runs        coalesced groups executed (size >= 2)
///   serve.batch.coalesced   requests served through a coalesced group
///   serve.strategy.<s>.*    per-scheduler latency_us + requests
///   serve.family.<f>.*      per-workload-family latency_us + requests
///                           (from the request's "family" annotation)
///   serve.slow_requests     requests at/over the slow-log threshold
///   serve.request_ids.minted  ids the server generated (vs client-supplied)
///   serve.incremental.submits/extends/closes  session request counts (the
///                           open-session count is a stats/metrics gauge;
///                           per-layer reuse counters live under
///                           sched.incremental.*)
/// A "stats" request renders the registry (plus in-flight/queue gauges,
/// cache gauges, and uptime) as the service dashboard; a "metrics" request
/// returns the same registry as a Prometheus text exposition
/// (render_metrics); a "trace" request drains the live tracer into a
/// Chrome/Perfetto trace.  Every request is tagged with a request id and,
/// when tracing is enabled, a span tree
/// serve.request -> queue/parse/cache.lookup[/schedule/certify/serialize]:
/// recv, parse and send live on the reactor's track, and so does the whole
/// tree of a request answered there (a ready cache hit); the rest of a
/// queued request's tree is on its worker's track.
/// `rt::FaultOptions::from_env` is honored: with PTASK_FAULT_* set, the reactor
/// and the workers perturb themselves at request-handling synchronization
/// points, widening
/// the interleavings the soak test explores.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ptask/rt/fault_injection.hpp"
#include "ptask/serve/reactor.hpp"
#include "ptask/serve/schedule_cache.hpp"

namespace ptask::sched {
class BatchScheduler;
}  // namespace ptask::sched

namespace ptask::serve {

struct SubmitRequest;
struct ExtendRequest;
struct CloseRequest;

struct ServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable via Server::port() once started.
  int port = 0;
  /// Compute worker pool size (the reactor multiplexes connections, so
  /// this bounds concurrent scheduler runs, not concurrent clients).
  int num_workers = 8;
  /// Frames longer than this are answered with PTS005 and the connection is
  /// closed (the oversized payload is drained without buffering it).
  std::uint32_t max_request_bytes = 4u * 1024u * 1024u;
  /// LRU cap on completed schedule-cache entries; 0 = unbounded.  Evictions
  /// are reported as `serve.cache.evictions` and in the stats response.
  std::size_t cache_max_entries = 0;
  /// Admission-control bound: requests queued between the reactor and the
  /// worker pool.  A frame arriving with the queue full is answered with
  /// PTS008 immediately (never dropped silently).  0 = unbounded.
  std::size_t max_queue = 1024;
  /// Backoff hint carried in PTS008 responses.
  std::uint64_t overload_retry_after_ms = 100;
  /// Upper bound on requests one worker dequeues together (compatible
  /// schedule requests among them run as one batch).  1 disables batching.
  int batch_max = 8;
  /// Optional wait after the first dequeue for more requests to arrive and
  /// join the batch, in microseconds.  0 (default) batches only what is
  /// already queued -- batching then costs idle traffic zero added latency
  /// and kicks in exactly when a backlog exists.
  std::uint64_t batch_window_us = 0;
  /// Fault injection for the soak harness (default: from PTASK_FAULT_* env).
  rt::FaultOptions faults = rt::FaultOptions::from_env();
  /// Path of the slow-request log (JSON lines; see docs/OBSERVABILITY.md).
  /// Empty disables logging.  The file is truncated at start().
  std::string slow_log_path;
  /// Requests whose total service time (recv through send) is at least
  /// this many microseconds get a slow-log line and count into
  /// serve.slow_requests.  0 disables the threshold even with a log path.
  std::uint64_t slow_threshold_us = 0;
  /// Cap on concurrently open incremental sessions; a "submit" past the cap
  /// is answered with PTS007.  0 = unbounded.
  std::size_t max_sessions = 64;
};

class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the reactor + worker pool.  Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, drain every admitted request,
  /// flush responses, join all threads.  Idempotent; also run by the
  /// destructor.
  void stop();

  /// The bound port (valid after start()).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Requests currently being served (the "stats" in-flight gauge).
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  /// Requests admitted but not yet picked up by a worker (the "stats"
  /// queue-depth gauge).
  std::size_t queue_depth() const;

  const ScheduleCache& cache() const { return cache_; }

  /// Open incremental sessions (the "stats" sessions gauge).
  std::size_t num_sessions() const;

  /// Renders the stats-response JSON (also used by the daemon's shutdown
  /// summary and the loadgen artifact).  The payload parses cleanly with
  /// obs::json::parse: metric names are escaped and histograms carry their
  /// full log-bucket boundaries.
  std::string render_stats() const;

  /// Renders the Prometheus text exposition served by the "metrics"
  /// request type: the whole registry plus server gauges (in-flight,
  /// queue depth, cache entries/bytes, uptime).
  std::string render_metrics() const;

  /// Seconds since start().
  double uptime_s() const;

  /// Mints a process-unique server request id ("s-<nonce>-<seq>").
  std::string mint_request_id();

 private:
  struct RequestTrace;
  struct SessionState;
  struct RequestJob;
  struct RequestQueue;

  /// Reactor-thread entry for every complete frame.  Admission control
  /// comes first (full queue -> PTS008, closed queue at shutdown -> drop
  /// the connection), before any parse.  An admitted frame is parsed once;
  /// a schedule request whose key is already cached is answered here (the
  /// returned response), everything else is queued for a worker (empty
  /// return).
  std::string on_frame(std::uint64_t conn_id, std::string_view payload,
                       Reactor::Clock::time_point t_request,
                       double span_begin_s, double recv_us);
  /// Reactor-thread entry: builds the PTS005 response for oversized frames.
  std::string on_oversize(std::uint32_t length);
  void worker_loop(int worker_index);
  /// Parses one payload into `job`: the typed request (plus the cache key
  /// for schedule requests), or the final error response.
  void parse_frame(RequestJob& job, std::string_view payload);
  /// Answers `job` with a PTS00x error.
  void fail(RequestJob& job, std::string_view code, std::string_view message);
  /// Worker side of the non-schedule kinds: sessions, stats, metrics,
  /// trace and ping.
  void run_request(RequestJob& job);
  /// Reactor side of a schedule request: answers it when its key is a
  /// completed cache entry; false (nothing answered) otherwise.
  bool answer_ready_hit(RequestJob& job);
  /// Cache lookup + (on miss) scheduler run for a schedule request; when
  /// `batch` is non-null the run prices through the batch's shared cache.
  void execute_schedule(RequestJob& job, const sched::BatchScheduler* batch);
  /// Success epilogue of a schedule request: latency metrics and the
  /// response around the schedule bytes.
  void answer_schedule(RequestJob& job, const std::string& schedule_json);
  /// Session requests (online incremental scheduling).  These bypass the
  /// whole-schedule cache entirely: session responses depend on mutable
  /// per-session state, so caching them would serve stale schedules.
  std::string handle_submit(const SubmitRequest& request, RequestTrace& trace);
  std::string handle_extend(const ExtendRequest& request, RequestTrace& trace);
  std::string handle_close(const CloseRequest& request, RequestTrace& trace);
  /// Mints a process-unique session id ("sess-<nonce>-<seq>").
  std::string mint_session_id();
  /// Request epilogue: records the root request span and, when the total
  /// time crosses the threshold, the slow-log line.
  void finish_request(const RequestTrace& trace, double span_begin_s,
                      bool tracing);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> served_requests_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::uint64_t id_nonce_ = 0;  ///< start()-time nonce in minted ids
  std::chrono::steady_clock::time_point start_time_{};
  rt::FaultInjector injector_;
  ScheduleCache cache_;
  /// Open incremental sessions, keyed by session id.  `sessions_mutex_`
  /// guards only the map; each session carries its own lock, so extends on
  /// distinct sessions run concurrently while extends on the same session
  /// serialize.  Values are shared_ptrs so a close() racing an in-flight
  /// extend just drops the map entry -- the extend keeps the state alive
  /// until it finishes.
  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::string, std::shared_ptr<SessionState>> sessions_;
  std::atomic<std::uint64_t> next_session_id_{1};
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<RequestQueue> queue_;
  std::vector<std::thread> workers_;
  std::mutex slow_log_mutex_;
  std::ofstream slow_log_;
};

}  // namespace ptask::serve
