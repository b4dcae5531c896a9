#include "ptask/serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <variant>

#include "ptask/analysis/certifier.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/obs/export.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/prometheus.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/sched/batch.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/protocol.hpp"

namespace ptask::serve {

namespace {

/// serve.error.<code> counter (codes are a small fixed set, so the name
/// lookup per error is fine -- errors are off the hot path).
void count_error(std::string_view code) {
  obs::metrics().counter("serve.error." + std::string(code)).add();
}

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

void append_us_field(std::string& out, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  out += buf;
}

/// Inclusive upper bound of log-histogram bucket i (see obs::Histogram).
std::string bucket_upper_bound(int i) {
  if (i == 0) return "0";
  if (i >= 64) return std::to_string(~std::uint64_t{0});
  return std::to_string((std::uint64_t{1} << i) - 1);
}

void append_histogram_json(std::string& out, const obs::HistogramSample& h) {
  out += "{\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + std::to_string(h.sum);
  out += ",\"p50\":";
  append_json_double(out, h.p50);
  out += ",\"p90\":";
  append_json_double(out, h.p90);
  out += ",\"p99\":";
  append_json_double(out, h.p99);
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i != 0) out += ',';
    out += '[' + bucket_upper_bound(h.buckets[i].first) + ',' +
           std::to_string(h.buckets[i].second) + ']';
  }
  out += "]}";
}

}  // namespace

/// Per-request trace record threaded through the worker pipeline: request
/// id, cache outcome, phase timings (microseconds; a negative value means
/// the phase never ran), and the error code.  This is what the slow-request
/// log serializes.
struct Server::RequestTrace {
  std::string request_id;
  std::string kind = "schedule";  ///< schedule|stats|ping|metrics|trace
  std::string scheduler;
  std::string family;
  std::string error_code;  ///< "" on success
  bool cache_used = false;
  bool cache_hit = false;
  int batch_size = 0;  ///< coalesced group size; 0 = not a schedule request
  double recv_us = -1.0;
  double queue_us = -1.0;
  double parse_us = -1.0;
  double cache_us = -1.0;
  double schedule_us = -1.0;
  double certify_us = -1.0;
  double serialize_us = -1.0;
  double send_us = -1.0;
  double total_us = 0.0;
};

/// One open incremental-scheduling session.  The cost model lives here
/// because the scheduler's pipeline keeps a pointer to it for the whole
/// session lifetime.  `mutex` serializes submit/extend/stat reads on this
/// session; the map in Server only hands out the shared_ptr.
struct Server::SessionState {
  explicit SessionState(const arch::MachineSpec& machine)
      : cost(arch::Machine(machine)), scheduler(cost) {}

  std::mutex mutex;
  cost::CostModel cost;
  sched::IncrementalScheduler scheduler;
};

namespace {

/// RAII phase scope: times one request phase into its serve.phase.*
/// histogram (and the RequestTrace field) and, when tracing is enabled,
/// wraps it in a Serve span.  Phase metrics use the steady clock directly,
/// so they survive PTASK_OBS=OFF builds where span instrumentation
/// compiles out.
class ServePhase {
 public:
  ServePhase(const std::string& span_name, obs::Histogram& hist,
             double& out_us)
      : hist_(hist), out_us_(&out_us) {
    if (obs::enabled()) span_.emplace(obs::SpanKind::Serve, span_name);
    t0_ = Clock::now();
  }
  ~ServePhase() { finish(); }
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  void finish() {
    if (done_) return;
    done_ = true;
    const double us = elapsed_us(t0_);
    *out_us_ = us;
    hist_.observe(us > 0.0 ? static_cast<std::uint64_t>(us) : 0);
    span_.reset();
  }

 private:
  std::optional<obs::ScopedSpan> span_;
  obs::Histogram& hist_;
  double* out_us_;
  Clock::time_point t0_{};
  bool done_ = false;
};

/// Records a Serve span from `begin_s` (tracer clock) to now on this
/// thread's track.
void record_serve_span(std::string name, double begin_s) {
  obs::Span span;
  span.kind = obs::SpanKind::Serve;
  span.name = std::move(name);
  span.worker = obs::thread_context().worker;
  span.begin_s = begin_s;
  span.end_s = obs::tracer().now();
  obs::tracer().record(std::move(span));
}

}  // namespace

/// One request.  The reactor thread parses it; a ready cache hit is then
/// answered right there, and everything else travels through the admission
/// queue to a worker.
struct Server::RequestJob {
  std::uint64_t conn_id = 0;
  Reactor::Clock::time_point t_request{};  ///< frame arrival (recv start)
  double span_begin_s = 0.0;               ///< tracer clock at frame arrival
  bool tracing = false;
  RequestTrace trace;
  /// The typed request.  monostate for the kinds answered from server state
  /// alone (stats, metrics, trace, ping) and for frames that failed to
  /// parse, whose `response` is already final.
  std::variant<std::monostate, ScheduleRequest, SubmitRequest, ExtendRequest,
               CloseRequest>
      request;
  std::string key;                 ///< canonical key of a schedule request
  std::size_t batch_key_size = 0;  ///< its batching-compatibility prefix
  std::string response;
  Clock::time_point t_enqueue{};  ///< admission time
  /// Latency clock: the request latency is parse_us plus the time since t0,
  /// which is set after the parse (reactor) or at dequeue (worker).
  Clock::time_point t0{};
};

/// Bounded admission queue between the reactor and the worker pool.
struct Server::RequestQueue {
  enum class Admit { Ok, Full, Closed };

  explicit RequestQueue(std::size_t max) : max_entries(max) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<RequestJob> jobs;
  std::size_t max_entries = 0;  ///< 0 = unbounded
  bool closed = false;
  std::atomic<std::size_t> depth{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> rejected{0};

  /// The admission decision for a frame, taken before the frame is parsed
  /// so that refusing it costs no parse.  Only the reactor thread pushes,
  /// so a frame admitted here still fits when push() runs.
  Admit admit() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (closed) return Admit::Closed;
    if (max_entries > 0 && jobs.size() >= max_entries) {
      rejected.fetch_add(1, std::memory_order_relaxed);
      return Admit::Full;
    }
    return Admit::Ok;
  }

  /// Queues an admitted job; false when the queue closed since admit().
  bool push(RequestJob&& job) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (closed) return false;
      jobs.push_back(std::move(job));
      depth.store(jobs.size(), std::memory_order_relaxed);
    }
    enqueued.fetch_add(1, std::memory_order_relaxed);
    cv.notify_one();
    return true;
  }

  /// Blocks for the first job, then -- within `window_us` if configured --
  /// takes up to `batch_max` jobs total.  Returns false when the queue is
  /// closed and fully drained (worker exit).
  bool pop_batch(std::vector<RequestJob>& out, int batch_max,
                 std::uint64_t window_us) {
    out.clear();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return closed || !jobs.empty(); });
    if (jobs.empty()) return false;
    out.push_back(std::move(jobs.front()));
    jobs.pop_front();
    if (batch_max > 1 && window_us > 0 && jobs.empty() && !closed) {
      cv.wait_for(lock, std::chrono::microseconds(window_us),
                  [&] { return closed || !jobs.empty(); });
    }
    while (static_cast<int>(out.size()) < batch_max && !jobs.empty()) {
      out.push_back(std::move(jobs.front()));
      jobs.pop_front();
    }
    depth.store(jobs.size(), std::memory_order_relaxed);
    return true;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_all();
  }
};

Server::Server(const ServerOptions& options)
    : options_(options),
      injector_(options.faults),
      cache_(options.cache_max_entries) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.batch_max < 1) options_.batch_max = 1;
  if (options_.max_request_bytes > kMaxFrameBytes) {
    options_.max_request_bytes = kMaxFrameBytes;
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    throw std::runtime_error("ptask_served: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error("ptask_served: cannot listen on port " +
                             std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  start_time_ = std::chrono::steady_clock::now();
  // Nonce in minted request ids: distinguishes ids across server
  // restarts/instances without any global coordination.
  id_nonce_ = static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      start_time_.time_since_epoch())
                      .count()) &
              0xffffffffu;
  if (!options_.slow_log_path.empty()) {
    const std::lock_guard<std::mutex> lock(slow_log_mutex_);
    slow_log_.open(options_.slow_log_path,
                   std::ios::out | std::ios::trunc);
  }

  queue_ = std::make_unique<RequestQueue>(options_.max_queue);
  Reactor::Options reactor_options;
  reactor_options.listen_fd = listen_fd_;
  reactor_options.max_request_bytes = options_.max_request_bytes;
  reactor_options.worker_track = options_.num_workers;  // own trace track
  reactor_ = std::make_unique<Reactor>(
      reactor_options,
      [this](std::uint64_t conn_id, std::string_view payload,
             Reactor::Clock::time_point t_request, double span_begin_s,
             double recv_us) {
        return on_frame(conn_id, payload, t_request, span_begin_s, recv_us);
      },
      [this](std::uint32_t length) { return on_oversize(length); });
  try {
    reactor_->start();
  } catch (...) {
    reactor_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw;
  }
  listen_fd_ = -1;  // the reactor owns (and closes) the listener now

  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Drain order: no new connects -> no new admissions -> workers finish
  // every admitted request -> the reactor flushes the remaining responses.
  if (reactor_) reactor_->stop_accepting();
  if (queue_) queue_->close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (reactor_) {
    reactor_->stop();
    reactor_.reset();
  }
  // Keep the (closed, drained) queue alive: render_stats() reads the
  // enqueued/rejected totals from it, and the post-shutdown stats dump
  // must still report them.  start() replaces it with a fresh queue.
  {
    const std::lock_guard<std::mutex> lock(slow_log_mutex_);
    if (slow_log_.is_open()) slow_log_.close();
  }
  running_.store(false, std::memory_order_release);
}

std::size_t Server::queue_depth() const {
  return queue_ ? queue_->depth.load(std::memory_order_relaxed) : 0;
}

std::string Server::on_frame(std::uint64_t conn_id, std::string_view payload,
                             Reactor::Clock::time_point t_request,
                             double span_begin_s, double recv_us) {
  static obs::Counter& requests = obs::metrics().counter("serve.requests");
  static obs::Counter& queue_enqueued =
      obs::metrics().counter("serve.queue.enqueued");
  static obs::Counter& queue_rejected =
      obs::metrics().counter("serve.queue.rejected");
  requests.add();

  // Admission control comes first and runs on the reactor thread, so a
  // rejection costs no worker capacity and no parse: the overload answer
  // is rendered and sent right here.
  switch (queue_->admit()) {
    case RequestQueue::Admit::Ok:
      break;
    case RequestQueue::Admit::Closed:
      // Shutdown already began; nothing will drain the queue for this
      // frame, so drop the connection instead of stranding the client.
      reactor_->disconnect(conn_id);
      return {};
    case RequestQueue::Admit::Full: {
      queue_rejected.add();
      count_error(kErrOverloaded);
      RequestTrace trace;
      trace.error_code = kErrOverloaded;
      trace.recv_us = recv_us;
      trace.request_id = extract_request_id_loose(payload);
      if (trace.request_id.empty()) trace.request_id = mint_request_id();
      std::string response = with_request_id(
          overload_response(
              "admission queue full (" + std::to_string(options_.max_queue) +
                  " requests); retry after the hint",
              options_.overload_retry_after_ms),
          trace.request_id);
      trace.total_us = elapsed_us(t_request);
      finish_request(trace, span_begin_s, obs::enabled());
      return response;
    }
  }

  RequestJob job;
  job.conn_id = conn_id;
  job.t_request = t_request;
  job.span_begin_s = span_begin_s;
  job.tracing = obs::enabled();
  job.trace.recv_us = recv_us;
  parse_frame(job, payload);
  if (std::holds_alternative<ScheduleRequest>(job.request) &&
      answer_ready_hit(job)) {
    job.trace.total_us = elapsed_us(t_request);
    finish_request(job.trace, span_begin_s, job.tracing);
    return std::move(job.response);
  }
  job.t_enqueue = Clock::now();
  if (!queue_->push(std::move(job))) {
    reactor_->disconnect(conn_id);
    return {};
  }
  queue_enqueued.add();
  return {};
}

std::string Server::on_oversize(std::uint32_t length) {
  // Oversized frames never reach the queue: the reactor answers and closes.
  // The client's request id -- if any -- sits in the unread payload, so
  // this one error path carries a minted id.
  static obs::Counter& requests = obs::metrics().counter("serve.requests");
  requests.add();
  count_error(kErrTooLarge);
  RequestTrace trace;
  trace.error_code = kErrTooLarge;
  trace.request_id = mint_request_id();
  const std::string response = with_request_id(
      error_response(kErrTooLarge,
                     "request of " + std::to_string(length) +
                         " bytes exceeds the limit of " +
                         std::to_string(options_.max_request_bytes)),
      trace.request_id);
  finish_request(trace, obs::enabled() ? obs::tracer().now() : 0.0,
                 obs::enabled());
  return response;
}

void Server::worker_loop(int worker_index) {
  // Tag this worker's ambient span context once: every span this thread
  // records (request phases, scheduler passes) lands on the worker's own
  // trace track, so concurrent requests never interleave on one track.
  obs::thread_context().worker = worker_index;
  static obs::Histogram& queue_wait =
      obs::metrics().histogram("serve.queue.wait_us");
  static obs::Histogram& batch_size_hist =
      obs::metrics().histogram("serve.batch.size");
  static obs::Counter& batch_runs =
      obs::metrics().counter("serve.batch.runs");
  static obs::Counter& batch_coalesced =
      obs::metrics().counter("serve.batch.coalesced");

  std::vector<RequestJob> jobs;
  while (queue_->pop_batch(jobs, options_.batch_max,
                           options_.batch_window_us)) {
    in_flight_.fetch_add(static_cast<int>(jobs.size()),
                         std::memory_order_relaxed);
    for (RequestJob& job : jobs) {
      job.t0 = Clock::now();
      const double wait_us = elapsed_us(job.t_enqueue);
      job.trace.queue_us = wait_us;
      queue_wait.observe(
          static_cast<std::uint64_t>(wait_us > 0.0 ? wait_us : 0.0));
      if (job.tracing) {
        record_serve_span("serve.queue", obs::tracer().now() - wait_us / 1e6);
      }
      if (job.response.empty() &&
          !std::holds_alternative<ScheduleRequest>(job.request)) {
        run_request(job);
      }
    }

    // Coalesce compatible schedule requests: same (scheduler, total_cores,
    // certify, machine), different graphs -- the requests whose canonical
    // keys share the batching prefix.  Members run sequentially through one
    // BatchScheduler; the map orders the groups deterministically.
    std::map<std::string_view, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].response.empty()) {
        groups[std::string_view(jobs[i].key).substr(0, jobs[i].batch_key_size)]
            .push_back(i);
      }
    }
    for (const auto& [compat, members] : groups) {
      batch_size_hist.observe(members.size());
      if (members.size() >= 2) {
        batch_runs.add();
        batch_coalesced.add(members.size());
        std::optional<obs::ScopedSpan> batch_span;
        if (obs::enabled()) {
          batch_span.emplace(obs::SpanKind::Serve, "serve.batch");
        }
        std::optional<sched::BatchScheduler> batch;
        const ScheduleRequest& first =
            std::get<ScheduleRequest>(jobs[members.front()].request);
        try {
          const cost::CostModel base{arch::Machine(first.machine)};
          batch.emplace(first.scheduler, base);
        } catch (...) {
          // Construction can only fail like an unbatched run would (bad
          // machine / unknown scheduler); fall through to the per-member
          // path so each member reports its own error.
        }
        for (const std::size_t index : members) {
          jobs[index].trace.batch_size = static_cast<int>(members.size());
          execute_schedule(jobs[index], batch ? &*batch : nullptr);
        }
      } else {
        jobs[members.front()].trace.batch_size = 1;
        execute_schedule(jobs[members.front()], nullptr);
      }
    }

    for (RequestJob& job : jobs) {
      job.trace.total_us = elapsed_us(job.t_request);
      finish_request(job.trace, job.span_begin_s, job.tracing);
      reactor_->respond(job.conn_id, encode_frame(job.response));
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Server::parse_frame(RequestJob& job, std::string_view payload) {
  static obs::Histogram& phase_parse =
      obs::metrics().histogram("serve.phase.parse_us");
  RequestTrace& trace = job.trace;
  const std::uint64_t sequence =
      served_requests_.fetch_add(1, std::memory_order_relaxed);
  injector_.perturb(rt::FaultInjector::point(
      0, static_cast<std::int64_t>(sequence), /*phase=*/0));

  try {
    // The parse phase covers the document parse, the typed request parse
    // and, for schedule requests, the cache key.
    ServePhase parse_phase("serve.parse", phase_parse, trace.parse_us);
    obs::json::Value document;
    try {
      document = obs::json::parse(payload);
    } catch (const std::runtime_error& e) {
      // Best-effort id recovery keeps even PTS001 errors correlatable.
      parse_phase.finish();
      trace.request_id = extract_request_id_loose(payload);
      throw ProtocolError(kErrMalformedJson, e.what());
    }
    if (const obs::json::Value* id = document.find("request_id")) {
      if (id->is_string()) trace.request_id = id->string;
    }
    if (trace.request_id.empty()) trace.request_id = mint_request_id();
    const obs::json::Value* type = document.find("type");
    const std::string_view kind = type != nullptr && type->is_string()
                                      ? std::string_view(type->string)
                                      : std::string_view("schedule");
    if (kind == "stats" || kind == "metrics" || kind == "trace" ||
        kind == "ping") {
      trace.kind = kind;  // a worker answers from the server's state
      return;
    }
    // Session requests (online incremental scheduling).  These never
    // touch the whole-schedule cache: a session response depends on
    // mutable per-session state, so caching it would serve schedules for
    // graphs the session has since grown past.
    if (kind == "submit") {
      SubmitRequest request = parse_submit(document);
      trace.kind = "submit";
      trace.scheduler = "incremental";
      trace.family = request.family;
      job.request = std::move(request);
      return;
    }
    if (kind == "extend") {
      ExtendRequest request = parse_extend(document);
      trace.kind = "extend";
      trace.scheduler = "incremental";
      trace.family = request.family;
      job.request = std::move(request);
      return;
    }
    if (kind == "close") {
      job.request = parse_close(document);
      trace.kind = "close";
      return;
    }
    ScheduleRequest request = parse_request(document);
    job.key = canonical_key(request, &job.batch_key_size);
    trace.scheduler = request.scheduler;
    trace.family = request.family;
    job.request = std::move(request);
  } catch (const ProtocolError& e) {
    fail(job, e.code(), e.what());
  } catch (const std::exception& e) {
    fail(job, kErrBadRequest, e.what());
  }
}

void Server::fail(RequestJob& job, std::string_view code,
                  std::string_view message) {
  RequestTrace& trace = job.trace;
  if (trace.request_id.empty()) trace.request_id = mint_request_id();
  trace.error_code = code;
  count_error(code);
  job.response =
      with_request_id(error_response(code, message), trace.request_id);
}

void Server::run_request(RequestJob& job) {
  static obs::Counter& responses_ok =
      obs::metrics().counter("serve.responses.ok");
  RequestTrace& trace = job.trace;
  try {
    std::string response;
    if (const auto* submit = std::get_if<SubmitRequest>(&job.request)) {
      response = handle_submit(*submit, trace);
    } else if (const auto* extend = std::get_if<ExtendRequest>(&job.request)) {
      response = handle_extend(*extend, trace);
    } else if (const auto* close = std::get_if<CloseRequest>(&job.request)) {
      response = handle_close(*close, trace);
    } else if (trace.kind == "stats") {
      response = render_stats();
    } else if (trace.kind == "metrics") {
      response = metrics_response(render_metrics());
    } else if (trace.kind == "trace") {
      // Drain the live tracer: safe concurrently with recording workers
      // (per-buffer locking; see obs/trace.hpp).  Spans still open land in
      // the next dump.
      std::string chrome = obs::render_chrome_trace(obs::tracer().take());
      while (!chrome.empty() && chrome.back() == '\n') chrome.pop_back();
      response = trace_response(chrome);
    } else {
      response = pong_response();  // "ping", the one kind left
    }
    responses_ok.add();
    job.response = with_request_id(response, trace.request_id);
  } catch (const ProtocolError& e) {
    fail(job, e.code(), e.what());
  } catch (const std::exception& e) {
    fail(job, kErrBadRequest, e.what());
  }
}

bool Server::answer_ready_hit(RequestJob& job) {
  static obs::Histogram& phase_cache =
      obs::metrics().histogram("serve.phase.cache_us");
  injector_.perturb(rt::FaultInjector::point(
      1,
      static_cast<std::int64_t>(
          served_requests_.load(std::memory_order_relaxed)),
      /*phase=*/1));
  job.t0 = Clock::now();
  const double begin_s = job.tracing ? obs::tracer().now() : 0.0;
  const ScheduleCache::Entry schedule_json = cache_.find_ready(job.key);
  if (!schedule_json) return false;
  // The cache phase of a hit is the lookup alone; a probe that misses is
  // not a phase (the worker's lookup is).
  const double us = elapsed_us(job.t0);
  job.trace.cache_us = us;
  phase_cache.observe(us > 0.0 ? static_cast<std::uint64_t>(us) : 0);
  if (job.tracing) record_serve_span("serve.cache.lookup", begin_s);
  job.trace.cache_used = true;
  job.trace.cache_hit = true;
  answer_schedule(job, *schedule_json);
  return true;
}

void Server::execute_schedule(RequestJob& job,
                              const sched::BatchScheduler* batch) {
  static obs::Histogram& phase_cache =
      obs::metrics().histogram("serve.phase.cache_us");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  static obs::Histogram& phase_certify =
      obs::metrics().histogram("serve.phase.certify_us");
  static obs::Histogram& phase_serialize =
      obs::metrics().histogram("serve.phase.serialize_us");
  RequestTrace& trace = job.trace;
  const ScheduleRequest& request = std::get<ScheduleRequest>(job.request);

  try {
    injector_.perturb(rt::FaultInjector::point(
        1,
        static_cast<std::int64_t>(
            served_requests_.load(std::memory_order_relaxed)),
        /*phase=*/1));

    bool computed = false;
    ScheduleCache::Entry schedule_json;
    {
      // The cache phase covers the whole lookup including any
      // single-flight wait; on a miss the compute phases below run nested
      // inside it (so cache_us >= schedule_us + certify_us + serialize_us
      // on misses, and is pure lookup/wait cost on hits).
      ServePhase cache_phase("serve.cache.lookup", phase_cache,
                             trace.cache_us);
      schedule_json = cache_.get_or_compute(job.key, [&] {
        computed = true;
        std::optional<sched::Schedule> schedule;
        {
          ServePhase schedule_phase("serve.schedule[" + request.scheduler +
                                        "]",
                                    phase_schedule, trace.schedule_us);
          if (batch != nullptr) {
            // Batched: the group's scheduler over a copy of the same
            // machine, so the bytes below equal an unbatched run.
            schedule = batch->run(request.graph, request.total_cores);
          } else {
            const cost::CostModel cost{arch::Machine(request.machine)};
            const std::unique_ptr<sched::Scheduler> scheduler =
                sched::SchedulerRegistry::instance().make(request.scheduler,
                                                          cost);
            schedule = scheduler->run(request.graph, request.total_cores);
          }
        }
        // Opt-in audit before the bytes become cacheable: a certification
        // failure throws, which evicts the single-flight placeholder --
        // uncertifiable schedules are never served from the cache.  A
        // cache *hit* under a certify key was therefore certified when it
        // was computed (the flag is part of the canonical key).
        if (request.certify) {
          ServePhase certify_phase("serve.certify", phase_certify,
                                   trace.certify_us);
          const analysis::Certificate certificate =
              analysis::certify(request.graph, *schedule, {});
          if (!certificate.ok()) {
            throw ProtocolError(
                kErrCertification,
                "schedule failed independent certification: " +
                    analysis::render_text(certificate.report));
          }
        }
        ServePhase serialize_phase("serve.serialize", phase_serialize,
                                   trace.serialize_us);
        return serialize_schedule(*schedule);
      });
    }
    trace.cache_used = true;
    trace.cache_hit = !computed;
    answer_schedule(job, *schedule_json);
  } catch (const ProtocolError& e) {
    fail(job, e.code(), e.what());
  } catch (const std::exception& e) {
    // Scheduler/cost-model rejections (e.g. invalid core counts for the
    // machine) map to bad-request: the graph/machine combination cannot be
    // scheduled.
    fail(job, kErrBadRequest, e.what());
  }
}

void Server::answer_schedule(RequestJob& job,
                             const std::string& schedule_json) {
  static obs::Counter& responses_ok =
      obs::metrics().counter("serve.responses.ok");
  static obs::Histogram& latency =
      obs::metrics().histogram("serve.latency_us");
  const ScheduleRequest& request = std::get<ScheduleRequest>(job.request);
  responses_ok.add();
  const double total_us = job.trace.parse_us + elapsed_us(job.t0);
  const auto observed_us =
      static_cast<std::uint64_t>(total_us > 0.0 ? total_us : 0.0);
  latency.observe(observed_us);
  // Per-strategy and per-family breakdowns.  Name lookup per request is
  // a mutex-protected map probe.
  obs::metrics()
      .histogram("serve.strategy." + request.scheduler + ".latency_us")
      .observe(observed_us);
  obs::metrics()
      .counter("serve.strategy." + request.scheduler + ".requests")
      .add();
  if (!request.family.empty()) {
    obs::metrics()
        .histogram("serve.family." + request.family + ".latency_us")
        .observe(observed_us);
    obs::metrics()
        .counter("serve.family." + request.family + ".requests")
        .add();
  }
  if (request.certify) {
    // The hash is a pure function of the canonical bytes, so cached hits
    // carry the same certificate hash as the original miss.
    job.response = with_request_id(
        ok_response(schedule_json,
                    analysis::hash_hex(analysis::fnv1a64(schedule_json))),
        job.trace.request_id);
    return;
  }
  job.response =
      with_request_id(ok_response(schedule_json), job.trace.request_id);
}

std::string Server::handle_submit(const SubmitRequest& request,
                                  RequestTrace& trace) {
  static obs::Counter& submits =
      obs::metrics().counter("serve.incremental.submits");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  auto session = std::make_shared<SessionState>(request.machine);
  std::string session_id;
  {
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      throw ProtocolError(kErrSession,
                          "session limit reached (" +
                              std::to_string(options_.max_sessions) +
                              " open sessions); close a session first");
    }
    session_id = mint_session_id();
    sessions_.emplace(session_id, session);
  }
  try {
    std::lock_guard<std::mutex> lock(session->mutex);
    std::string schedule_json;
    {
      ServePhase schedule_phase("serve.schedule[incremental]", phase_schedule,
                                trace.schedule_us);
      const sched::Schedule& schedule = session->scheduler.reset(
          request.graph, request.total_cores, request.release_time);
      schedule_json = serialize_schedule(schedule);
    }
    submits.add();
    return session_response(session_id, session->scheduler.last_stats(),
                            schedule_json);
  } catch (...) {
    // A failed initial schedule (e.g. the machine rejects the core count)
    // must not leave an unusable session holding a map slot.
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    sessions_.erase(session_id);
    throw;
  }
}

std::string Server::handle_extend(const ExtendRequest& request,
                                  RequestTrace& trace) {
  static obs::Counter& extends =
      obs::metrics().counter("serve.incremental.extends");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  std::shared_ptr<SessionState> session;
  {
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    const auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      throw ProtocolError(kErrSession,
                          "unknown session '" + request.session + "'");
    }
    session = it->second;
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  std::string schedule_json;
  {
    ServePhase schedule_phase("serve.schedule[incremental]", phase_schedule,
                              trace.schedule_us);
    try {
      const sched::Schedule& schedule =
          session->scheduler.extend(request.delta);
      schedule_json = serialize_schedule(schedule);
    } catch (const sched::DeltaError& e) {
      // Invalid deltas (range, cycles, non-monotonic releases) leave the
      // session untouched.  Surface them as session errors: the generic
      // handler below would misfile them as PTS002 bad requests.
      throw ProtocolError(kErrSession, e.what());
    }
  }
  extends.add();
  return session_response(request.session, session->scheduler.last_stats(),
                          schedule_json);
}

std::string Server::handle_close(const CloseRequest& request,
                                 RequestTrace& /*trace*/) {
  static obs::Counter& closes =
      obs::metrics().counter("serve.incremental.closes");
  std::lock_guard<std::mutex> map_lock(sessions_mutex_);
  const auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    throw ProtocolError(kErrSession,
                        "unknown session '" + request.session + "'");
  }
  sessions_.erase(it);
  closes.add();
  return close_response(request.session);
}

std::size_t Server::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::string Server::mint_session_id() {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "sess-%08llx-%llu",
                static_cast<unsigned long long>(id_nonce_),
                static_cast<unsigned long long>(
                    next_session_id_.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

std::string Server::render_stats() const {
  const obs::MetricsRegistry& registry = obs::metrics();
  const std::vector<obs::CounterSample> counters = registry.counters();
  const std::vector<obs::HistogramSample> histograms =
      registry.histograms();

  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t truncated = 0;
  std::uint64_t batch_runs = 0;
  std::uint64_t batch_coalesced = 0;
  std::vector<std::pair<std::string, std::uint64_t>> errors;
  for (const obs::CounterSample& row : counters) {
    if (row.name == "serve.requests") requests = row.value;
    if (row.name == "serve.responses.ok") responses_ok = row.value;
    if (row.name == "serve.truncated") truncated = row.value;
    if (row.name == "serve.batch.runs") batch_runs = row.value;
    if (row.name == "serve.batch.coalesced") batch_coalesced = row.value;
    if (row.name.rfind("serve.error.", 0) == 0) {
      errors.emplace_back(row.name.substr(sizeof("serve.error.") - 1),
                          row.value);
    }
  }
  obs::HistogramSample latency;
  for (const obs::HistogramSample& row : histograms) {
    if (row.name == "serve.latency_us") latency = row;
  }

  std::string out = "{\"ok\":true,\"stats\":{";
  out += "\"requests\":" + std::to_string(requests);
  out += ",\"responses_ok\":" + std::to_string(responses_ok);
  out += ",\"truncated\":" + std::to_string(truncated);
  out += ",\"in_flight\":" + std::to_string(in_flight());
  out += ",\"sessions\":" + std::to_string(num_sessions());
  out += ",\"uptime_s\":";
  append_json_double(out, uptime_s());
  out += ",\"queue\":{\"depth\":" + std::to_string(queue_depth());
  out += ",\"max\":" + std::to_string(options_.max_queue);
  out +=
      ",\"enqueued\":" +
      std::to_string(queue_ ? queue_->enqueued.load(std::memory_order_relaxed)
                            : 0);
  out +=
      ",\"rejected\":" +
      std::to_string(queue_ ? queue_->rejected.load(std::memory_order_relaxed)
                            : 0) +
      '}';
  out += ",\"batch\":{\"runs\":" + std::to_string(batch_runs);
  out += ",\"coalesced\":" + std::to_string(batch_coalesced) + '}';
  out += ",\"cache\":{\"hits\":" + std::to_string(cache_.hits());
  out += ",\"misses\":" + std::to_string(cache_.misses());
  out += ",\"entries\":" + std::to_string(cache_.entries());
  out += ",\"evictions\":" + std::to_string(cache_.evictions());
  out += ",\"max_entries\":" + std::to_string(cache_.max_entries());
  out += ",\"value_bytes\":" + std::to_string(cache_.value_bytes()) + '}';
  out += ",\"latency_us\":";
  append_histogram_json(out, latency);
  out += ",\"errors\":{";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, errors[i].first);
    out += ':' + std::to_string(errors[i].second);
  }
  // Full registry dump: every counter and every histogram (with its
  // log-bucket boundaries), names JSON-escaped, so the payload always
  // parses round-trip clean no matter what metric names exist.
  out += "},\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, counters[i].name);
    out += ':' + std::to_string(counters[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, histograms[i].name);
    out += ':';
    append_histogram_json(out, histograms[i]);
  }
  out += "}}}";
  return out;
}

std::string Server::render_metrics() const {
  std::string out = obs::render_prometheus(obs::metrics());
  const auto gauge = [&out](const char* name, const std::string& value,
                            const char* help) {
    out += std::string("# HELP ") + name + " " + help + "\n";
    out += std::string("# TYPE ") + name + " gauge\n";
    out += std::string(name) + " " + value + "\n";
  };
  gauge("ptask_serve_in_flight", std::to_string(in_flight()),
        "requests currently being served");
  gauge("ptask_serve_queue_depth", std::to_string(queue_depth()),
        "requests admitted but not yet picked up by a worker");
  gauge("ptask_serve_queue_max", std::to_string(options_.max_queue),
        "configured admission queue bound (0 = unbounded)");
  gauge("ptask_serve_sessions", std::to_string(num_sessions()),
        "open incremental-scheduling sessions");
  gauge("ptask_serve_cache_entries", std::to_string(cache_.entries()),
        "completed schedule cache entries");
  gauge("ptask_serve_cache_value_bytes",
        std::to_string(cache_.value_bytes()),
        "bytes held by cached schedule responses");
  gauge("ptask_serve_cache_max_entries",
        std::to_string(cache_.max_entries()),
        "configured cache entry cap (0 = unbounded)");
  char uptime[32];
  std::snprintf(uptime, sizeof(uptime), "%.3f", uptime_s());
  gauge("ptask_serve_uptime_seconds", uptime, "seconds since start()");
  return out;
}

double Server::uptime_s() const {
  if (start_time_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

std::string Server::mint_request_id() {
  static obs::Counter& minted =
      obs::metrics().counter("serve.request_ids.minted");
  minted.add();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "s-%08llx-%llu",
                static_cast<unsigned long long>(id_nonce_),
                static_cast<unsigned long long>(
                    next_request_id_.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

void Server::finish_request(const RequestTrace& trace, double span_begin_s,
                            bool tracing) {
  static obs::Counter& slow_requests =
      obs::metrics().counter("serve.slow_requests");
  if (tracing) {
    // The root span is recorded last but begins first (at frame arrival);
    // exporters sort by begin time, so it parents the phase spans by time
    // containment on this thread's track.
    record_serve_span("serve.request " + trace.request_id, span_begin_s);
  }
  if (options_.slow_threshold_us == 0 ||
      trace.total_us < static_cast<double>(options_.slow_threshold_us)) {
    return;
  }
  slow_requests.add();
  if (options_.slow_log_path.empty()) return;

  // One self-contained JSON line per slow request (docs/OBSERVABILITY.md
  // documents the schema).  Phases that never ran are omitted.
  std::string line = "{\"request_id\":";
  append_json_string(line, trace.request_id);
  line += ",\"kind\":";
  append_json_string(line, trace.kind);
  if (!trace.scheduler.empty()) {
    line += ",\"scheduler\":";
    append_json_string(line, trace.scheduler);
  }
  if (!trace.family.empty()) {
    line += ",\"family\":";
    append_json_string(line, trace.family);
  }
  line += ",\"cache\":";
  append_json_string(
      line, trace.cache_used ? (trace.cache_hit ? "hit" : "miss") : "none");
  if (trace.batch_size > 1) {
    line += ",\"batch\":" + std::to_string(trace.batch_size);
  }
  line += ",\"error\":";
  if (trace.error_code.empty()) {
    line += "null";
  } else {
    append_json_string(line, trace.error_code);
  }
  line += ",\"total_us\":";
  append_us_field(line, trace.total_us);
  line += ",\"phases\":{";
  bool first = true;
  const auto phase = [&line, &first](const char* name, double us) {
    if (us < 0.0) return;
    if (!first) line += ',';
    first = false;
    line += '"';
    line += name;
    line += "\":";
    append_us_field(line, us);
  };
  phase("recv_us", trace.recv_us);
  phase("queue_us", trace.queue_us);
  phase("parse_us", trace.parse_us);
  phase("cache_us", trace.cache_us);
  phase("schedule_us", trace.schedule_us);
  phase("certify_us", trace.certify_us);
  phase("serialize_us", trace.serialize_us);
  phase("send_us", trace.send_us);
  line += "}}";

  const std::lock_guard<std::mutex> lock(slow_log_mutex_);
  if (slow_log_.is_open()) {
    slow_log_ << line << '\n';
    slow_log_.flush();  // slow requests are rare; readers see lines live
  }
}

}  // namespace ptask::serve
