// perfbench -- runs one workload of the ptask performance benchmark
// and prints its metrics as one JSON line (see perfbench/README.md for the
// workloads, the metrics and which layer is expected to move which metric).
//
//   perfbench --workload serve-hit|serve-miss|direct-50k --seed N
//                    --seconds S --trace 0|1 --served PATH
//
// --trace 0 measures the end-to-end metrics with every span off; --trace 1
// replays the same inputs with the benchmark's own spans around the public
// library calls and reports the per-layer metrics.  Any correctness failure
// (served bytes differing from a direct in-process run, a certificate hash
// not matching the served bytes, an extend differing from a full re-run)
// prints "correct":false and exits 1.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ptask/analysis/certifier.hpp"
#include "ptask/arch/machine.hpp"
#include "ptask/core/graph_algorithms.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/portfolio.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/client.hpp"
#include "ptask/serve/protocol.hpp"
#include "ptask/serve/schedule_cache.hpp"
#include "reference.hpp"

namespace {

using namespace ptask;
using Clock = std::chrono::steady_clock;

// ---- fixed configuration (printed at start; see README.md) ----

constexpr int kDaemonWorkers = 2;
constexpr int kConnections = 4;       ///< client connections, both serve loads
constexpr int kGeneratorThreads = 1;  ///< one epoll thread drives them all
/// setup_s is the median of this many set-ups (a daemon set-up takes about
/// half a CPU second, a direct-50k one about a second).  Half run before
/// the timed phase and half after it, so the median does not rest on one
/// moment of host noise.
constexpr int kServeSetups = 8;
constexpr int kDirectSetups = 4;
/// Rounds of the reference kernel (about 0.1 s) run before each daemon
/// set-up, while no daemon runs, to scale that set-up's CPU time.
constexpr int kSetupReferenceRounds = 400;
constexpr int kHitPool = 200;         ///< unique serve-hit requests
/// serve-hit: a connection's pause between a reply and its next request.
constexpr double kHitThinkMs = 1.0;
constexpr int kMaxTasks = 400;        ///< fuzz instances above this are skipped
/// Offered rate of the serve-miss open loop: about half of the closed-loop
/// capacity (4 connections, 2 workers) measured on this workload's inputs
/// on a 4-core x86-64 VM.
constexpr double kMissRate = 125.0;
constexpr std::size_t kMissCacheEntries = 256;
constexpr int kMissCores = 64;
constexpr int kMissWarmup = 100;
/// Both serve workloads time their warm-up on requests drawn from this
/// fixed seed, so setup_s does not depend on which heavy graphs a seed drew.
constexpr std::uint64_t kWarmupSeed = 0x3A3;
constexpr double kOpenLoopPatience = 3.0;
constexpr int kLargeCores = 1024;  ///< direct-50k symbolic cores (16 chic nodes x 64)
/// Serve loads run in segments of about this many seconds, each after
/// this many rounds (about 0.25 s) of the reference kernel (reference.hpp).
constexpr double kSegmentS = 2.5;
constexpr int kSegmentReferenceRounds = 800;
constexpr int kSlabs = 16;         ///< 1% arrival slabs per direct-50k session
/// Per-layer self times must sum to the untraced in-process replay within
/// this share of it.
constexpr double kReconcileTolerance = 0.15;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of an unsorted sample (q in [0,1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// User+system CPU seconds of process `pid` (all threads), /proc/<pid>/stat.
double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "pid (comm)": state is field 3; utime/stime are 14/15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double self_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set (VmHWM) of `pid` ("self" when 0), in MiB.
double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

/// The median of the set-up costs, which are also printed on stderr so a
/// run's own spread can be read.
double setup_median(const std::vector<double>& setup_s) {
  std::cerr << "perfbench: set-up CPU on the reference host (s):";
  for (const double s : setup_s) std::cerr << ' ' << s;
  std::cerr << '\n';
  return median(setup_s);
}

// ---- result ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure covering `attempts` attempted calls.
  void fail(const std::string& problem, std::uint64_t attempts = 1) {
    correct = false;
    failed += attempts;
    problems.push_back(problem);
  }
};

std::string render(const Result& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ',';
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

// ---- inputs ----

/// One request of a serve workload: the frame the client sends and the
/// response bytes a correct daemon must answer with.  The client supplies
/// its own request_id, so the whole response is a pure function of the
/// request and the direct in-process schedule.
struct Item {
  serve::ScheduleRequest request;
  std::string payload;   ///< serialized request (annotations included)
  std::string frame;     ///< length-prefixed payload
  std::string schedule;  ///< direct in-process schedule bytes
  std::string expected;  ///< full expected response payload
  std::uint64_t instance_seed = 0;
};

/// ODE and NPB graphs repeat across fuzz instances (there are only a few NPB
/// zone graphs); one seeded work scale per instance keeps every request
/// unique without changing the family's structure.
void scale_work(core::TaskGraph& graph, std::uint64_t instance_seed) {
  fuzz::Rng rng(fuzz::substream(instance_seed, 0x5CA1E));
  const double scale = rng.uniform_real(0.9, 1.1);
  for (core::TaskId t = 0; t < graph.num_tasks(); ++t) {
    core::MTask& task = graph.task(t);
    task.set_work_flop(task.work_flop() * scale);
  }
}

/// Unique fuzz requests cycling through the five graph families in a fixed
/// order (so every seed gets the same family mix), skipping instances above
/// kMaxTasks.  With `cluster` set, every request targets that machine and
/// core count instead of the instance's own.  `keys` holds the cache keys
/// already taken (by earlier calls too); an instance whose key is taken is
/// skipped, so a timed set never repeats a warm-up request.
std::vector<Item> fuzz_items(std::uint64_t seed, std::size_t count,
                             const arch::MachineSpec* cluster, int cores,
                             bool certify, const std::string& id_prefix,
                             std::set<std::string>& keys) {
  std::vector<Item> items;
  items.reserve(count);
  std::uint64_t next = 0;
  while (items.size() < count) {
    const auto want = static_cast<fuzz::GraphFamily>(items.size() % 5);
    const std::uint64_t instance_seed = fuzz::substream(seed, next++);
    fuzz::Instance instance = fuzz::random_instance(instance_seed);
    if (instance.family != want || instance.graph.num_tasks() > kMaxTasks) {
      continue;
    }
    scale_work(instance.graph, instance_seed);
    Item item;
    item.instance_seed = instance_seed;
    item.request.scheduler = "portfolio";
    item.request.machine = cluster != nullptr ? *cluster : instance.machine;
    item.request.total_cores = cluster != nullptr ? cores : instance.total_cores;
    item.request.graph = std::move(instance.graph);
    item.request.certify = certify;
    item.request.family = fuzz::to_string(instance.family);
    item.request.request_id = id_prefix + std::to_string(items.size());
    if (!keys.insert(serve::canonical_key(item.request)).second) continue;
    item.payload = serve::serialize_request(item.request);
    item.frame = serve::encode_frame(item.payload);
    items.push_back(std::move(item));
  }
  return items;
}

std::string direct_schedule(const serve::ScheduleRequest& request) {
  const cost::CostModel cost{arch::Machine(request.machine)};
  return serve::serialize_schedule(
      sched::SchedulerRegistry::instance()
          .make(request.scheduler, cost)
          ->run(request.graph, request.total_cores));
}

std::string expected_response(const Item& item) {
  if (item.request.certify) {
    return serve::with_request_id(
        serve::ok_response(item.schedule, analysis::hash_hex(analysis::fnv1a64(
                                              item.schedule))),
        item.request.request_id);
  }
  return serve::with_request_id(serve::ok_response(item.schedule),
                                item.request.request_id);
}

/// The differential oracle's ground truth: schedules every item directly
/// in-process, spread over the cores (outside any timed window).
void run_oracle(std::vector<Item>& items) {
  const std::size_t threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&items, &errors, t, threads] {
      try {
        for (std::size_t i = t; i < items.size(); i += threads) {
          items[i].schedule = direct_schedule(items[i].request);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (Item& item : items) item.expected = expected_response(item);
}

/// The classification of one served response against its item.
enum class Verdict { Ok, OracleMismatch, CertificateMismatch, Error };

Verdict judge(const Item& item, const std::string& response) {
  if (response == item.expected) return Verdict::Ok;
  if (!serve::response_ok(response)) return Verdict::Error;
  if (serve::response_schedule_json(response) != item.schedule) {
    return Verdict::OracleMismatch;
  }
  return Verdict::CertificateMismatch;
}

// ---- the daemon ----

/// One ptask_served child process.  The constructor returns once the daemon
/// prints its listening line; the destructor stops it and waits.
class Daemon {
 public:
  Daemon(const std::string& path, const std::vector<std::string>& extra) {
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    std::vector<std::string> args = {path, "--port", "0", "--workers",
                                     std::to_string(kDaemonWorkers), "--quiet"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      // Child: die with the benchmark even if it is killed, report on stdout.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    if (pid_ < 0) {
      close(out[0]);
      throw std::runtime_error("cannot start " + path);
    }
    out_fd_ = out[0];
    std::string text;
    const std::string marker = "listening on 127.0.0.1:";
    std::size_t at = std::string::npos;
    while ((at = text.find(marker)) == std::string::npos ||
           text.find('\n', at) == std::string::npos) {
      char buffer[256];
      const ssize_t n = read(out_fd_, buffer, sizeof(buffer));
      if (n <= 0) {
        stop();
        throw std::runtime_error("daemon exited before listening");
      }
      text.append(buffer, static_cast<std::size_t>(n));
    }
    port_ = std::atoi(text.c_str() + at + marker.size());
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// ---- the load generator ----

/// Nonblocking client connections multiplexed on one epoll thread.  A
/// connection may carry several requests back to back; the daemon answers
/// one connection's requests in order.
class Wire {
 public:
  Wire(int port, int connections) : conns_(static_cast<std::size_t>(connections)) {
    try {
      open(port);
    } catch (...) {
      close_all();
      throw;
    }
  }
  ~Wire() { close_all(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  struct Done {
    std::size_t conn;
    std::size_t item;
    std::string response;
  };

  std::size_t size() const { return conns_.size(); }
  bool idle(std::size_t c) const { return conns_[c].items.empty(); }

  /// Queues `frame` (request `item`) on connection `c`.
  void send(std::size_t c, std::size_t item, const std::string& frame) {
    Conn& conn = conns_[c];
    conn.items.push_back(item);
    conn.out.append(frame);
    flush(c);
  }

  /// Arms the wake-up timer at `when` (nothing armed when `when` is empty).
  void wake_at(std::optional<Clock::time_point> when) {
    itimerspec spec{};
    if (when) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          when->time_since_epoch())
                          .count();
      spec.it_value.tv_sec = std::max<long long>(0, ns / 1000000000);
      spec.it_value.tv_nsec = std::max<long long>(1, ns % 1000000000);
    }
    timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  /// Waits for socket or timer events and appends completed responses.
  void poll(std::vector<Done>& done) {
    std::array<epoll_event, 16> events{};
    int n = epoll_wait(epoll_, events.data(), static_cast<int>(events.size()),
                       1000);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.u64 == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!read(timer_, &expirations, sizeof(expirations));
        continue;
      }
      if (event.events & EPOLLOUT) flush(event.data.u64);
      if (event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        receive(event.data.u64, done);
      }
    }
  }

 private:
  static constexpr std::uint64_t kTimerTag = ~0ull;
  struct Conn {
    int fd = -1;
    bool want_out = false;          ///< EPOLLOUT registered
    std::deque<std::size_t> items;  ///< requests awaiting a response
    std::string out;                ///< bytes not yet sent
    std::string in;                 ///< bytes not yet parsed
  };

  void open(int port) {
    epoll_ = epoll_create1(0);
    timer_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (epoll_ < 0 || timer_ < 0) throw std::runtime_error("epoll/timerfd");
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = kTimerTag;
    epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &event);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
        if (fd >= 0) close(fd);
        throw std::runtime_error("cannot connect to the daemon");
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_[c].fd = fd;
      event.events = EPOLLIN;
      event.data.u64 = c;
      epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &event);
    }
  }

  void close_all() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) close(conn.fd);
      conn.fd = -1;
    }
    if (timer_ >= 0) close(timer_);
    if (epoll_ >= 0) close(epoll_);
    timer_ = epoll_ = -1;
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    std::size_t sent = 0;
    while (sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                               conn.out.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    conn.out.erase(0, sent);
    if (conn.want_out != !conn.out.empty()) {
      conn.want_out = !conn.out.empty();
      epoll_event event{};
      event.events = EPOLLIN | (conn.want_out ? EPOLLOUT : 0u);
      event.data.u64 = c;
      epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &event);
    }
  }

  void receive(std::size_t c, std::vector<Done>& done) {
    Conn& conn = conns_[c];
    char buffer[65536];
    for (;;) {
      const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n == 0) throw std::runtime_error("daemon closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("recv failed");
      }
      conn.in.append(buffer, static_cast<std::size_t>(n));
    }
    std::size_t used = 0;
    while (conn.in.size() - used >= 4) {
      const std::size_t length = serve::decode_frame_length(
          reinterpret_cast<const unsigned char*>(conn.in.data() + used));
      if (conn.in.size() - used < 4 + length) break;
      if (conn.items.empty()) throw std::runtime_error("unexpected response");
      done.push_back({c, conn.items.front(), conn.in.substr(used + 4, length)});
      conn.items.pop_front();
      used += 4 + length;
    }
    conn.in.erase(0, used);
  }

  int epoll_ = -1;
  int timer_ = -1;
  std::vector<Conn> conns_;
};

/// What one load phase observed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t certificate_mismatches = 0;
  std::uint64_t errors = 0;  ///< PTS00x answers, PTS008 included
  std::vector<double> latency_ms;  ///< per completed request
  std::vector<double> lag_ms;      ///< open loop: generator lateness
  double wall_s = 0.0;             ///< load time, drains included
  double daemon_cpu_s = 0.0;       ///< the daemon's CPU over the load
  /// The daemon's CPU scaled to the reference host (see in_segments).
  double scaled_cpu_s = 0.0;
  bool abandoned = false;          ///< open loop: daemon given up on

  void record(const Item& item, const std::string& response, double latency) {
    switch (judge(item, response)) {
      case Verdict::Ok: ++ok; break;
      case Verdict::OracleMismatch: ++oracle_mismatches; break;
      case Verdict::CertificateMismatch: ++certificate_mismatches; break;
      case Verdict::Error: ++errors; break;
    }
    latency_ms.push_back(latency);
  }
  std::uint64_t failed() const { return attempted - ok; }

  /// Adds one segment's tally, its daemon CPU scaled by `scale`.
  void add(const Tally& segment, double scale) {
    attempted += segment.attempted;
    ok += segment.ok;
    oracle_mismatches += segment.oracle_mismatches;
    certificate_mismatches += segment.certificate_mismatches;
    errors += segment.errors;
    latency_ms.insert(latency_ms.end(), segment.latency_ms.begin(),
                      segment.latency_ms.end());
    lag_ms.insert(lag_ms.end(), segment.lag_ms.begin(), segment.lag_ms.end());
    wall_s += segment.wall_s;
    daemon_cpu_s += segment.daemon_cpu_s;
    scaled_cpu_s += scale * segment.daemon_cpu_s;
    abandoned = abandoned || segment.abandoned;
  }
};

/// A timed load phase as `segments` segments (run_segment(k) runs segment
/// k), each right after a run of the reference kernel in this process while
/// the daemon idles.  A host that slows down for a while slows both, so the
/// daemon's CPU in kernel units, segment by segment, holds still where the
/// raw CPU drifts with the host.  Stops after a segment that abandoned the
/// daemon.
template <class RunSegment>
Tally in_segments(int segments, RunSegment run_segment) {
  Tally tally;
  for (int k = 0; k < segments && !tally.abandoned; ++k) {
    const double reference_ms =
        perfbench::reference_cpu_ms(kSegmentReferenceRounds);
    tally.add(run_segment(k), perfbench::kReferenceRoundMs *
                                  kSegmentReferenceRounds / reference_ms);
  }
  return tally;
}

/// How many kSegmentS segments a load phase of `seconds` is cut into.
int segment_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSegmentS)));
}

/// One segment of the closed loop on `wire`: every connection keeps one
/// request in flight at a time, taking the items of `order` from `next` on.
/// After each reply the connection thinks for kHitThinkMs before it sends
/// its next request, as a runtime computes its next time step.  New
/// requests stop after `seconds`; in-flight ones are then drained.
Tally closed_segment(Wire& wire, const std::vector<Item>& items,
                     const std::vector<std::size_t>& order, std::size_t& next,
                     double seconds, pid_t daemon_pid) {
  Tally tally;
  std::vector<Clock::time_point> sent_at(wire.size());
  std::vector<std::optional<Clock::time_point>> resume(wire.size());
  const auto think = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kHitThinkMs));
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s(daemon_pid);
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::size_t in_flight = 0;
  const auto start = [&](std::size_t c) {
    const std::size_t item = order[next++ % order.size()];
    sent_at[c] = Clock::now();
    ++tally.attempted;
    ++in_flight;
    wire.send(c, item, items[item].frame);
  };
  for (std::size_t c = 0; c < wire.size(); ++c) start(c);
  std::vector<Wire::Done> done;
  while (in_flight > 0 ||
         std::any_of(resume.begin(), resume.end(),
                     [](const auto& at) { return at.has_value(); })) {
    const auto now = Clock::now();
    std::optional<Clock::time_point> wake;
    for (std::size_t c = 0; c < wire.size(); ++c) {
      if (!resume[c]) continue;
      if (now >= deadline) {
        resume[c].reset();
      } else if (*resume[c] <= now) {
        resume[c].reset();
        start(c);
      } else if (!wake || *resume[c] < *wake) {
        wake = resume[c];
      }
    }
    if (in_flight == 0 && !wake) break;
    wire.wake_at(wake);
    done.clear();
    wire.poll(done);
    for (const Wire::Done& d : done) {
      tally.record(items[d.item], d.response, 1e3 * since(sent_at[d.conn]));
      --in_flight;
      resume[d.conn] = Clock::now() + think;
    }
  }
  tally.wall_s = since(t0);
  tally.daemon_cpu_s = process_cpu_s(daemon_pid) - cpu0;
  return tally;
}

/// Closed loop over `seconds` of load, in segments (see in_segments).
Tally closed_loop(int port, const std::vector<Item>& items,
                  const std::vector<std::size_t>& order, double seconds,
                  pid_t daemon_pid) {
  Wire wire(port, kConnections);
  std::size_t next = 0;
  const int segments = segment_count(seconds);
  return in_segments(segments, [&](int) {
    return closed_segment(wire, items, order, next, seconds / segments,
                          daemon_pid);
  });
}

/// Sends every item once, in order, through one FIFO: each connection keeps
/// one request in flight and takes the next item when its reply arrives, so
/// one slow request holds up only itself.
Tally send_all(int port, const std::vector<Item>& items) {
  Wire wire(port, kConnections);
  Tally tally;
  std::vector<Clock::time_point> sent_at(wire.size());
  const auto start = [&](std::size_t c) {
    sent_at[c] = Clock::now();
    wire.send(c, tally.attempted, items[tally.attempted].frame);
    ++tally.attempted;
  };
  for (std::size_t c = 0; c < wire.size() && tally.attempted < items.size(); ++c) {
    start(c);
  }
  std::vector<Wire::Done> done;
  for (std::size_t answered = 0; answered < items.size();) {
    done.clear();
    wire.poll(done);
    for (const Wire::Done& d : done) {
      tally.record(items[d.item], d.response, 1e3 * since(sent_at[d.conn]));
      ++answered;
      if (tally.attempted < items.size()) start(d.conn);
    }
  }
  return tally;
}

/// One segment of the open loop on `wire`: the items from `next` on that
/// are due before `to` seconds into the arrival schedule, item k due at
/// t0 + due_s[k] - from.  Due items join one FIFO and go out on the first
/// free connection.  Latency runs from the due time, so waiting for a
/// connection counts; the generator's own lateness (due time to FIFO entry)
/// is reported separately as lag.  A daemon too slow to finish within
/// kOpenLoopPatience times the segment's span is abandoned: every request of
/// the segment not answered by then counts as failed.
Tally open_segment(Wire& wire, const std::vector<Item>& items,
                   const std::vector<double>& due_s, std::size_t& next,
                   double from, double to, pid_t daemon_pid) {
  Tally tally;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s(daemon_pid);
  const auto at = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[k] - from));
  };
  std::size_t end = next;
  while (end < due_s.size() && due_s[end] < to) ++end;
  std::deque<std::size_t> fifo;
  std::size_t in_flight = 0;
  std::vector<Wire::Done> done;
  const double patience_s = kOpenLoopPatience * std::max(1.0, to - from);
  while (next < end || !fifo.empty() || in_flight > 0) {
    const auto now = Clock::now();
    if (since(t0) > patience_s) {
      tally.attempted += (end - next) + fifo.size();
      next = end;
      tally.abandoned = true;
      break;
    }
    while (next < end && at(next) <= now) {
      tally.lag_ms.push_back(
          1e3 * std::chrono::duration<double>(now - at(next)).count());
      fifo.push_back(next++);
    }
    for (std::size_t c = 0; c < wire.size() && !fifo.empty(); ++c) {
      if (!wire.idle(c)) continue;
      ++tally.attempted;
      ++in_flight;
      wire.send(c, fifo.front(), items[fifo.front()].frame);
      fifo.pop_front();
    }
    wire.wake_at(next < end ? std::optional(at(next)) : std::nullopt);
    done.clear();
    wire.poll(done);
    for (const Wire::Done& d : done) {
      tally.record(items[d.item], d.response,
                   1e3 * std::chrono::duration<double>(Clock::now() - at(d.item)).count());
      --in_flight;
    }
  }
  tally.wall_s = since(t0);
  tally.daemon_cpu_s = process_cpu_s(daemon_pid) - cpu0;
  return tally;
}

/// Open loop over the arrival schedule `due_s` (`seconds` long), in
/// segments of equal span (see in_segments).  Once the daemon is abandoned,
/// every request not yet sent counts as failed.
Tally open_loop(int port, const std::vector<Item>& items,
                const std::vector<double>& due_s, double seconds,
                pid_t daemon_pid) {
  Wire wire(port, kConnections);
  std::size_t next = 0;
  const int segments = segment_count(seconds);
  const double span = seconds / segments;
  Tally tally = in_segments(segments, [&](int k) {
    const double to = k + 1 == segments
                          ? std::nextafter(due_s.back(), INFINITY)
                          : span * (k + 1);
    return open_segment(wire, items, due_s, next, span * k, to, daemon_pid);
  });
  tally.attempted += due_s.size() - next;
  return tally;
}

/// The daemon's user+system CPU per ok response over a whole load phase.
double cpu_ms_per_ok(const Tally& tally) {
  return 1e3 * tally.daemon_cpu_s /
         static_cast<double>(std::max<std::uint64_t>(1, tally.ok));
}

/// The same, with each segment's CPU scaled to the reference host.
double scaled_cpu_ms_per_ok(const Tally& tally) {
  return 1e3 * tally.scaled_cpu_s /
         static_cast<double>(std::max<std::uint64_t>(1, tally.ok));
}

/// Seeded exponential inter-arrival gaps at `rate` per second.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count) {
  fuzz::Rng rng(fuzz::substream(seed, 0xA11));
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    d = t;
    t += -std::log(1.0 - rng.uniform_real(0.0, 1.0)) / rate;
  }
  return due;
}

// ---- daemon stats ----

struct Stats {
  double hits = 0, misses = 0, requests = 0, coalesced = 0;
  std::map<double, double> queue_wait_us;  ///< bucket upper bound -> count
};

Stats read_stats(int port) {
  serve::Client client;
  client.connect("127.0.0.1", port);
  const obs::json::Value doc = obs::json::parse(client.stats());
  const obs::json::Value* stats = doc.find("stats");
  if (stats == nullptr) throw std::runtime_error("stats response malformed");
  const auto member = [](const obs::json::Value& v,
                         const char* key) -> const obs::json::Value& {
    const obs::json::Value* found = v.find(key);
    if (found == nullptr) {
      throw std::runtime_error(std::string("stats response lacks ") + key);
    }
    return *found;
  };
  Stats out;
  out.hits = member(member(*stats, "cache"), "hits").number;
  out.misses = member(member(*stats, "cache"), "misses").number;
  out.requests = member(*stats, "requests").number;
  out.coalesced = member(member(*stats, "batch"), "coalesced").number;
  if (const obs::json::Value* hist =
          member(*stats, "histograms").find("serve.queue.wait_us")) {
    for (const obs::json::Value& bucket : member(*hist, "buckets").array) {
      out.queue_wait_us[bucket.array.at(0).number] += bucket.array.at(1).number;
    }
  }
  return out;
}

/// p99 of the queue-wait histogram between two stats snapshots (bucket
/// upper bound, so within the registry's factor-of-two bucket width).
double queue_wait_p99_ms(const Stats& before, const Stats& after) {
  std::vector<std::pair<double, double>> delta;
  double total = 0;
  for (const auto& [bound, count] : after.queue_wait_us) {
    const auto it = before.queue_wait_us.find(bound);
    const double d = count - (it == before.queue_wait_us.end() ? 0 : it->second);
    if (d > 0) delta.emplace_back(bound, d), total += d;
  }
  double seen = 0;
  for (const auto& [bound, count] : delta) {
    seen += count;
    if (seen >= 0.99 * total) return bound / 1e3;
  }
  return 0.0;
}

// ---- serve workloads ----

struct ServeSpec {
  bool hit = true;  ///< serve-hit (closed loop over a warm cache) or serve-miss
  std::vector<std::string> daemon_args;
};

struct ServeInputs {
  std::vector<Item> items;    ///< the seed's requests, those the timed phase sends
  std::vector<Item> warmup;   ///< the fixed-seed requests the timed set-up sends
  std::vector<std::size_t> order;  ///< serve-hit request sequence
  std::vector<double> due_s;       ///< serve-miss arrival schedule
};

arch::MachineSpec miss_cluster() {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = kMissCores / 4;  // 4 cores per CHiC node
  return spec;
}

ServeInputs make_serve_inputs(bool hit, std::uint64_t seed, double seconds) {
  ServeInputs in;
  std::set<std::string> keys;  // warm-up and timed requests all distinct
  if (hit) {
    in.warmup = fuzz_items(kWarmupSeed, kHitPool, nullptr, 0, false, "w", keys);
    in.items = fuzz_items(seed, kHitPool, nullptr, 0, false, "h", keys);
    fuzz::Rng rng(fuzz::substream(seed, 0x0D0));
    in.order.resize(1 << 20);
    for (std::size_t& index : in.order) {
      index = static_cast<std::size_t>(rng.uniform(0, kHitPool - 1));
    }
  } else {
    const arch::MachineSpec cluster = miss_cluster();
    const auto count = static_cast<std::size_t>(kMissRate * seconds);
    in.warmup = fuzz_items(kWarmupSeed, kMissWarmup, &cluster, kMissCores,
                           true, "w", keys);
    in.items = fuzz_items(seed, count, &cluster, kMissCores, true, "m", keys);
    in.due_s = poisson_schedule(seed, kMissRate, count);
  }
  run_oracle(in.items);
  run_oracle(in.warmup);
  return in;
}

/// Sends `items` once to the daemon and fails the result for every
/// response that is not the oracle's.
void warm(const Daemon& daemon, const std::vector<Item>& items, Result& result) {
  const Tally tally = send_all(daemon.port(), items);
  result.attempted += tally.attempted;
  if (tally.ok != tally.attempted) {
    result.fail("warm-up: " + std::to_string(tally.failed()) + " of " +
                    std::to_string(tally.attempted) + " failed",
                tally.failed());
  }
}

/// Starts the daemon and warms it up with the fixed-seed set, `repeats`
/// times, recording each set-up's cost: the daemon's CPU from exec to the
/// end of its warm-up, in seconds on the reference host.  Wall time is not
/// used: within one run it varied 0.33-0.70 s over sixteen set-ups whose
/// CPU stayed at 0.51-0.56 s, because the host let the daemon's threads run
/// at varying moments.  Returns the last daemon.
std::unique_ptr<Daemon> setup_daemon(const std::string& served,
                                     const ServeSpec& spec,
                                     const ServeInputs& in,
                                     std::vector<double>& setup_s,
                                     Result& result, int repeats) {
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < repeats; ++r) {
    daemon.reset();
    const double reference_ms =
        perfbench::reference_cpu_ms(kSetupReferenceRounds);
    daemon = std::make_unique<Daemon>(served, spec.daemon_args);
    warm(*daemon, in.warmup, result);
    setup_s.push_back(process_cpu_s(daemon->pid()) *
                      perfbench::kReferenceRoundMs * kSetupReferenceRounds /
                      reference_ms);
  }
  return daemon;
}

Tally timed_phase(const ServeSpec& spec, const ServeInputs& in,
                  const Daemon& daemon, double seconds) {
  return spec.hit ? closed_loop(daemon.port(), in.items, in.order, seconds,
                                daemon.pid())
                  : open_loop(daemon.port(), in.items, in.due_s, seconds,
                              daemon.pid());
}

void check_tally(const Tally& tally, Result& result) {
  result.attempted += tally.attempted;
  const std::uint64_t mismatches =
      tally.oracle_mismatches + tally.certificate_mismatches;
  if (mismatches > 0) {
    result.fail(std::to_string(tally.oracle_mismatches) + " oracle and " +
                    std::to_string(tally.certificate_mismatches) +
                    " certificate mismatches",
                mismatches);
  }
  if (tally.errors > 0) {
    result.fail(std::to_string(tally.errors) + " error responses",
                tally.errors);
  }
  // Requests abandoned by the open loop's patience limit: slow, not wrong.
  result.failed += tally.attempted - tally.ok - mismatches - tally.errors;
}

Result serve_end_to_end(const ServeSpec& spec, const std::string& served,
                        std::uint64_t seed, double seconds) {
  Result result;
  const ServeInputs in = make_serve_inputs(spec.hit, seed, seconds);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon =
      setup_daemon(served, spec, in, setup_s, result, kServeSetups / 2);
  // serve-hit sends its own pool once, untimed, so the timed phase is all
  // cache hits.
  if (spec.hit) warm(*daemon, in.items, result);
  const Stats before = read_stats(daemon->port());
  const Tally tally = timed_phase(spec, in, *daemon, seconds);
  const Stats after = read_stats(daemon->port());
  const double rss = peak_rss_mb(daemon->pid());
  daemon.reset();
  setup_daemon(served, spec, in, setup_s, result, kServeSetups / 2);
  check_tally(tally, result);
  const double hits = after.hits - before.hits;
  if (spec.hit ? hits != static_cast<double>(tally.attempted) : hits != 0.0) {
    result.fail("unexpected cache hit count " + std::to_string(hits));
  }

  result.add("setup_s", setup_median(setup_s), "s");
  std::cerr << "perfbench: daemon CPU per ok response " << cpu_ms_per_ok(tally)
            << " ms raw, " << scaled_cpu_ms_per_ok(tally) << " ms scaled\n";
  result.add("cpu_ms_per_req", scaled_cpu_ms_per_ok(tally), "ms");
  result.add("rss_mb", rss, "MiB");
  result.add("ok_ratio",
             static_cast<double>(tally.ok) /
                 static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
             "ratio");
  return result;
}

// ---- direct-50k ----

/// The ~50k-task layered graph of the micro benchmark BM_LayerSchedulerLarge
/// (fixed: the schedule time must not depend on the seed's graph size).
core::TaskGraph large_graph() {
  fuzz::GeneratorParams params;
  params.max_width = 1024;
  params.max_depth = 150;
  params.edge_density = 0.01;
  fuzz::Rng rng(fuzz::substream(0xB16B00ull, 2));
  return fuzz::layered_graph(rng, params);
}

/// 1% arrival slabs appended at the tail, built like BM_IncrementalExtend's
/// (five new layers per slab, each new task fed by two tasks of the previous
/// frontier) with the task mix drawn from the seed.
std::vector<sched::GraphDelta> large_slabs(const core::TaskGraph& g,
                                           std::uint64_t seed) {
  fuzz::Rng rng(fuzz::substream(seed, 0x51AB));
  const core::TaskId n = g.num_tasks();
  const core::TaskId batch = n / 100;
  const core::TaskId width = batch / 5;
  const core::ChainContraction contraction = core::contract_linear_chains(g);
  const std::vector<std::vector<core::TaskId>> layers =
      core::greedy_layers(contraction.contracted);
  std::vector<core::TaskId> previous;
  for (const core::TaskId node : layers.back()) {
    previous.push_back(contraction.members[static_cast<std::size_t>(node)].back());
  }
  std::vector<core::TaskId> current;
  std::vector<sched::GraphDelta> slabs;
  for (int s = 0; s < kSlabs; ++s) {
    sched::GraphDelta delta;
    delta.release_time = 1.0 + s;
    for (core::TaskId i = 0; i < batch; ++i) {
      if (i > 0 && i % width == 0) {
        previous = std::move(current);
        current.clear();
      }
      core::TaskId sample = rng.uniform(0, n - 1);
      while (g.task(sample).is_marker()) sample = (sample + 1) % n;
      sched::ArrivingTask arriving;
      arriving.task = g.task(sample);
      arriving.release_time = delta.release_time;
      delta.tasks.push_back(std::move(arriving));
      const core::TaskId id = n + s * batch + i;
      const auto f = static_cast<std::size_t>(i);
      delta.edges.emplace_back(previous[f % previous.size()], id);
      delta.edges.emplace_back(previous[(f + 1) % previous.size()], id);
      current.push_back(id);
    }
    previous = std::move(current);
    current.clear();
    slabs.push_back(std::move(delta));
  }
  return slabs;
}

arch::MachineSpec large_machine() {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = kLargeCores / 64;
  return spec;
}

/// Everything direct-50k sets up before its timed calls.  The schedulers
/// refer to the cost model, so the object stays in place.
struct Direct {
  explicit Direct(const core::TaskGraph& base)
      : cost(arch::Machine(large_machine())),
        layer(sched::SchedulerRegistry::instance().make("layer", cost)),
        session(cost) {
    session.reset(base, kLargeCores);
  }
  Direct(const Direct&) = delete;
  Direct& operator=(const Direct&) = delete;

  cost::CostModel cost;
  std::unique_ptr<sched::Scheduler> layer;
  sched::IncrementalScheduler session;
};

/// Feeds every slab to the session (reset from setup), returns each
/// extend's wall time and the share of layers the repairs reused, and
/// checks the spliced schedule against a full run of the accumulated graph.
std::vector<double> run_slabs(Direct& d,
                              const std::vector<sched::GraphDelta>& slabs,
                              Result& result, double& reuse_ratio) {
  std::vector<double> ms;
  double reused = 0, layers = 0;
  for (const sched::GraphDelta& slab : slabs) {
    const auto t0 = Clock::now();
    d.session.extend(slab);
    ms.push_back(1e3 * since(t0));
    reused += static_cast<double>(d.session.last_stats().layers_reused);
    layers += static_cast<double>(d.session.last_stats().total_layers);
  }
  reuse_ratio = reused / std::max(1.0, layers);
  result.attempted += slabs.size();
  if (serve::serialize_schedule(d.session.current()) !=
      serve::serialize_schedule(
          d.session.run(d.session.graph(), kLargeCores))) {
    result.fail("final extend differs from a full run of the accumulated graph");
  }
  return ms;
}

/// The CPU milliseconds `cpu_ms` measured over a span sampled by the
/// reference kernel, less the samples' own time, on the reference host.
double scaled_ms(double cpu_ms, const perfbench::Samples& samples) {
  return (cpu_ms - samples.cpu_ms) * perfbench::kReferenceRoundMs /
         samples.ms_per_round();
}

Result direct_end_to_end(std::uint64_t seed, double seconds) {
  Result result;
  const core::TaskGraph base = large_graph();
  const std::vector<sched::GraphDelta> slabs = large_slabs(base, seed);
  std::vector<double> setup_s;
  std::optional<Direct> d;
  // Each set-up's CPU time with the reference kernel sampled through it,
  // like the timed calls below.
  const auto set_up = [&](int times) {
    for (int r = 0; r < times; ++r) {
      d.reset();
      const double cpu = self_cpu_s();
      perfbench::start_sampling();
      d.emplace(base);
      const perfbench::Samples samples = perfbench::stop_sampling();
      setup_s.push_back(scaled_ms(1e3 * (self_cpu_s() - cpu), samples) / 1e3);
    }
  };
  set_up(kDirectSetups / 2);

  // The reference kernel is sampled all through each call: a shared host
  // that slows down for a while slows both, so the call's CPU in kernel
  // units holds still where its raw CPU time drifts with the host.
  std::vector<double> cpu_ms, round_ms, call_ms;
  std::optional<sched::Schedule> first;
  const auto t0 = Clock::now();
  while (cpu_ms.empty() || since(t0) < seconds) {
    const double cpu = self_cpu_s();
    perfbench::start_sampling();
    sched::Schedule schedule = d->layer->run(base, kLargeCores);
    const perfbench::Samples samples = perfbench::stop_sampling();
    const double spent_ms = 1e3 * (self_cpu_s() - cpu);
    cpu_ms.push_back(spent_ms - samples.cpu_ms);
    round_ms.push_back(samples.ms_per_round());
    call_ms.push_back(scaled_ms(spent_ms, samples));
    ++result.attempted;
    if (!first) {
      first = std::move(schedule);
    } else if (schedule.makespan() != first->makespan() ||
               schedule.allocation != first->allocation) {
      result.fail("layer schedule of the same graph changed between runs");
    }
  }
  // The peak of the timed work, before the checks below add their own.
  const double rss_mb = peak_rss_mb(0);
  set_up(kDirectSetups / 2);
  double reuse = 0;
  run_slabs(*d, slabs, result, reuse);
  ++result.attempted;
  if (!analysis::certify(base, *first, {}).ok()) {
    result.fail("layer schedule of the 50k graph does not certify");
  }

  std::cerr << "perfbench: " << cpu_ms.size() << " calls, median CPU "
            << median(cpu_ms) << " ms per call, reference kernel "
            << 1e3 * median(round_ms) << " us per round; scaled per call (ms):";
  for (const double ms : call_ms) std::cerr << ' ' << ms;
  std::cerr << '\n';
  result.add("setup_s", setup_median(setup_s), "s");
  result.add("cpu_ms_per_req", median(call_ms), "ms");
  result.add("rss_mb", rss_mb, "MiB");
  result.add("ok_ratio",
             static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");
  return result;
}

// ---- traced replays (per-layer metrics) ----

/// Span accumulator: inclusive wall time per layer, summed over a replay.
struct Spans {
  std::map<std::string, double> total_s;
  template <typename F>
  auto time(const std::string& layer, F&& body) {
    const auto t0 = Clock::now();
    auto value = body();
    total_s[layer] += since(t0);
    return value;
  }
  double get(const std::string& layer) const {
    const auto it = total_s.find(layer);
    return it == total_s.end() ? 0.0 : it->second;
  }
};

/// Every per-layer metric, zero until a workload's replay reaches it (a
/// layer the workload's path never enters reads 0).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"client.qps", "1/s"},            {"client.latency_p50_ms", "ms"},
      {"client.latency_p99_ms", "ms"},
      {"protocol.json_parse_us", "us"}, {"protocol.parse_request_us", "us"},
      {"protocol.key_us", "us"},        {"serve.cache.lookup_us", "us"},
      {"protocol.respond_us", "us"},    {"protocol.serialize_us", "us"},
      {"serve.ping_ms", "ms"},          {"serve.cache.hit_ratio", "ratio"},
      {"serve.queue.wait_ms_p99", "ms"}, {"serve.batch.coalesced_ratio", "ratio"},
      {"gen.lag_p99_ms", "ms"},         {"sched.portfolio_ms", "ms"},
      {"sched.cpr_ms", "ms"},           {"sched.cpa_ms", "ms"},
      {"sched.mcpa_ms", "ms"},          {"sched.layer_ms", "ms"},
      {"sched.dp_ms", "ms"},            {"sched.portfolio.win_share", "ratio"},
      {"certify_us", "us"},             {"sched.pass.contract_ms", "ms"},
      {"sched.pass.layerize_ms", "ms"}, {"sched.pass.group_search_ms", "ms"},
      {"sched.pass.assign_lpt_ms", "ms"}, {"sched.pass.adjust_ms", "ms"},
      {"sched.lowering_ms", "ms"},      {"sched.extend_ms", "ms"},
      {"sched.incremental.reuse_ratio", "ratio"},
      {"schedule.core_entries", "count"}, {"schedule.bytes", "bytes"},
      {"certify_s", "s"},               {"replay.untraced_ms", "ms"},
      {"replay.self_sum_ms", "ms"},     {"replay.reconcile_error", "ratio"},
      {"trace.overhead_ms", "ms"},      {"replay.daemon_cpu_ms", "ms"},
      {"host.reference_round_us", "us"},
  };
  return names;
}

/// CPU microseconds per round of the reference kernel on this host now
/// (median of five 100-round runs): divide a scaled cpu_ms_per_req by
/// kReferenceRoundMs and multiply by this over 1000 for raw milliseconds.
double reference_round_us() {
  std::vector<double> round_us;
  for (int r = 0; r < 5; ++r) {
    round_us.push_back(1e3 * perfbench::reference_cpu_ms(100) / 100);
  }
  return median(round_us);
}

/// Adds every per-layer metric to `result`, taking values from `values`.
void emit_layers(Result& result, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values.find(name);
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    if (std::none_of(layer_metrics().begin(), layer_metrics().end(),
                     [&](const auto& m) { return m.first == name; })) {
      throw std::logic_error("unlisted per-layer metric " + name);
    }
  }
}

/// Checks and records the reconciliation of per-layer self times against
/// the untraced in-process replay (both per request, in ms).
void reconcile(std::map<std::string, double>& values, double self_sum_ms,
               double untraced_ms, double traced_ms, Result& result) {
  const double error = std::abs(self_sum_ms - untraced_ms) / untraced_ms;
  values["replay.untraced_ms"] = untraced_ms;
  values["replay.self_sum_ms"] = self_sum_ms;
  values["replay.reconcile_error"] = error;
  values["trace.overhead_ms"] = traced_ms - untraced_ms;
  if (error > kReconcileTolerance) {
    result.fail("per-layer self times sum to " + std::to_string(self_sum_ms) +
                " ms per request, the untraced replay takes " +
                std::to_string(untraced_ms) + " ms (tolerance " +
                std::to_string(kReconcileTolerance) + ")");
  }
}

/// The daemon's request path for one item, in-process, through the public
/// calls the daemon makes: document parse, typed parse, keys, cache lookup
/// (computing on a miss: portfolio, certify, serialize) and the response.
/// With `spans` null nothing is timed.
std::string replay_request(const Item& item, serve::ScheduleCache& cache,
                           Spans* spans, sched::PortfolioReport* report) {
  const auto timed = [spans](const char* layer, auto&& body) {
    if (spans == nullptr) return body();
    return spans->time(layer, body);
  };
  const obs::json::Value doc =
      timed("protocol.json_parse", [&] { return obs::json::parse(item.payload); });
  const obs::json::Value* type = doc.find("type");
  if (type != nullptr && type->string != "schedule") {
    throw std::logic_error("replayed a request that is not a schedule request");
  }
  const serve::ScheduleRequest request = timed(
      "protocol.parse_request", [&] { return serve::parse_request(item.payload); });
  const std::string key = timed("protocol.key", [&] {
    std::string k = serve::canonical_key(request);
    k += serve::serialize_machine(request.machine);  // the batch key
    return k;
  });
  const serve::ScheduleCache::Entry entry = timed("serve.cache.lookup", [&] {
    return cache.get_or_compute(key, [&] {
      const cost::CostModel cost{arch::Machine(request.machine)};
      sched::PortfolioReport local;
      const sched::Schedule schedule = timed("sched.portfolio", [&] {
        return sched::PortfolioScheduler(cost).run(
            request.graph, request.total_cores, report ? *report : local);
      });
      if (request.certify) {
        const bool ok = timed("certify", [&] {
          return analysis::certify(request.graph, schedule, {}).ok();
        });
        if (!ok) throw std::runtime_error("certification failed");
      }
      return timed("protocol.serialize",
                   [&] { return serve::serialize_schedule(schedule); });
    });
  });
  return timed("protocol.respond", [&] {
    std::string response =
        request.certify
            ? serve::ok_response(*entry, analysis::hash_hex(analysis::fnv1a64(*entry)))
            : serve::ok_response(*entry);
    return serve::encode_frame(serve::with_request_id(response, request.request_id));
  });
}

Result serve_traced(const ServeSpec& spec, const std::string& served,
                    std::uint64_t seed, double seconds) {
  Result result;
  std::map<std::string, double> values;
  const ServeInputs in = make_serve_inputs(spec.hit, seed, seconds);

  // Served phase, as in the end-to-end run, for the daemon-side layers.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon = setup_daemon(served, spec, in, setup_s, result, 1);
  if (spec.hit) warm(*daemon, in.items, result);
  {
    serve::Client client;
    client.connect("127.0.0.1", daemon->port());
    std::vector<double> ping_ms;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      ++result.attempted;
      if (!serve::response_ok(client.call("{\"type\":\"ping\"}"))) {
        result.fail("ping failed");
      }
      ping_ms.push_back(1e3 * since(t0));
    }
    values["serve.ping_ms"] = median(ping_ms);
  }
  const Stats before = read_stats(daemon->port());
  const Tally tally = timed_phase(spec, in, *daemon, seconds);
  const Stats after = read_stats(daemon->port());
  daemon.reset();
  check_tally(tally, result);
  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  values["serve.cache.hit_ratio"] = (after.hits - before.hits) / std::max(1.0, lookups);
  values["serve.queue.wait_ms_p99"] = queue_wait_p99_ms(before, after);
  values["serve.batch.coalesced_ratio"] =
      (after.coalesced - before.coalesced) /
      std::max(1.0, after.requests - before.requests);
  values["gen.lag_p99_ms"] = quantile(tally.lag_ms, 0.99);
  values["client.qps"] = static_cast<double>(tally.ok) / tally.wall_s;
  values["client.latency_p50_ms"] = quantile(tally.latency_ms, 0.50);
  values["client.latency_p99_ms"] = quantile(tally.latency_ms, 0.99);
  values["replay.daemon_cpu_ms"] = cpu_ms_per_ok(tally);
  values["host.reference_round_us"] = reference_round_us();

  // In-process replay of the request path, each request once untraced and
  // once traced (alternating which goes first), each side with its own
  // cache.  For serve-hit the caches are pre-filled so every replayed
  // lookup hits, like the timed phase; for serve-miss every lookup computes.
  const std::size_t count = std::min<std::size_t>(in.items.size(), kHitPool);
  const int rounds = spec.hit ? 20 : 1;
  serve::ScheduleCache plain_cache, traced_cache;
  if (spec.hit) {
    for (std::size_t i = 0; i < count; ++i) {
      replay_request(in.items[i], plain_cache, nullptr, nullptr);
      replay_request(in.items[i], traced_cache, nullptr, nullptr);
    }
  }
  Spans spans;
  double untraced_s = 0.0, traced_s = 0.0;
  double winner_ms = 0.0, strategies_ms = 0.0;
  std::map<std::string, double> strategy_ms;
  const auto untraced = [&](const Item& item) {
    const auto t0 = Clock::now();
    replay_request(item, plain_cache, nullptr, nullptr);
    untraced_s += since(t0);
  };
  const auto traced = [&](const Item& item) {
    sched::PortfolioReport report;
    const auto t0 = Clock::now();
    const std::string frame = replay_request(item, traced_cache, &spans, &report);
    traced_s += since(t0);
    if (frame != serve::encode_frame(item.expected)) {
      result.fail("replayed response differs from the oracle");
    }
    for (const sched::StrategyScore& score : report.scores) {
      strategy_ms[score.strategy] += score.millis;
      strategies_ms += score.millis;
      if (score.strategy == report.winner) winner_ms += score.millis;
    }
  };
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      if ((i + static_cast<std::size_t>(r)) % 2 == 0) {
        untraced(in.items[i]);
        traced(in.items[i]);
      } else {
        traced(in.items[i]);
        untraced(in.items[i]);
      }
    }
  }
  const double n = static_cast<double>(count) * rounds;
  result.attempted += static_cast<std::uint64_t>(n);
  const auto per_us = [&](const char* layer) { return 1e6 * spans.get(layer) / n; };
  values["protocol.json_parse_us"] = per_us("protocol.json_parse");
  values["protocol.parse_request_us"] = per_us("protocol.parse_request");
  values["protocol.key_us"] = per_us("protocol.key");
  values["protocol.respond_us"] = per_us("protocol.respond");
  values["protocol.serialize_us"] = per_us("protocol.serialize");
  values["certify_us"] = per_us("certify");
  values["sched.portfolio_ms"] = per_us("sched.portfolio") / 1e3;
  for (const auto& [strategy, ms] : strategy_ms) {
    values["sched." + strategy + "_ms"] = ms / n;
  }
  values["sched.portfolio.win_share"] =
      strategies_ms > 0 ? winner_ms / strategies_ms : 0.0;
  // The lookup span contains the compute spans on a miss; its self time is
  // what the cache itself costs.
  const double compute_us = per_us("sched.portfolio") + per_us("certify") +
                            per_us("protocol.serialize");
  values["serve.cache.lookup_us"] = per_us("serve.cache.lookup") - compute_us;
  double self_us = values["serve.cache.lookup_us"] + compute_us;
  for (const char* layer : {"protocol.json_parse", "protocol.parse_request",
                            "protocol.key", "protocol.respond"}) {
    self_us += per_us(layer);
  }
  reconcile(values, self_us / 1e3, 1e3 * untraced_s / n, 1e3 * traced_s / n,
            result);

  // The layer strategy's passes on the same graphs (a breakdown of
  // sched.layer_ms, from a separate pipeline run per request).
  if (!spec.hit) {
    std::map<std::string, double> pass_s;
    for (std::size_t i = 0; i < count; ++i) {
      const serve::ScheduleRequest& request = in.items[i].request;
      const cost::CostModel cost{arch::Machine(request.machine)};
      const sched::Pipeline pipeline = sched::Pipeline::algorithm1(cost);
      sched::PassContext ctx = pipeline.make_context(request.graph, request.total_cores);
      for (const auto& pass : pipeline.passes()) {
        const auto t0 = Clock::now();
        pass->run(ctx);
        pass_s[std::string(pass->name())] += since(t0);
      }
    }
    const auto pass_ms = [&](const char* pass) { return 1e3 * pass_s[pass] / static_cast<double>(count); };
    values["sched.pass.contract_ms"] = pass_ms("contract-chains");
    values["sched.pass.layerize_ms"] = pass_ms("layerize");
    values["sched.pass.group_search_ms"] = pass_ms("group-search");
    values["sched.pass.assign_lpt_ms"] = pass_ms("assign-lpt");
    values["sched.pass.adjust_ms"] = pass_ms("adjust-groups");
  }
  double bytes = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    bytes += static_cast<double>(in.items[i].schedule.size());
  }
  values["schedule.bytes"] = bytes / static_cast<double>(count);
  emit_layers(result, values);
  return result;
}

Result direct_traced(std::uint64_t seed) {
  Result result;
  std::map<std::string, double> values;
  const core::TaskGraph base = large_graph();
  const std::vector<sched::GraphDelta> slabs = large_slabs(base, seed);
  Direct d(base);
  constexpr int kRounds = 4;

  // Untraced: the registry call the end-to-end run times.  Traced: the same
  // pipeline pass by pass, then the Gantt lowering.  The two alternate
  // which goes first.
  const sched::Pipeline pipeline = sched::Pipeline::algorithm1(d.cost);
  std::vector<double> untraced_ms, traced_ms;
  std::map<std::string, std::vector<double>> layer_ms;
  std::string bytes;
  std::optional<sched::Schedule> traced;
  const auto untraced_run = [&] {
    const auto t0 = Clock::now();
    const sched::Schedule schedule = d.layer->run(base, kLargeCores);
    untraced_ms.push_back(1e3 * since(t0));
    if (bytes.empty()) bytes = serve::serialize_schedule(schedule);
  };
  const auto traced_run = [&] {
    const auto t0 = Clock::now();
    sched::PassContext ctx = pipeline.make_context(base, kLargeCores);
    layer_ms["make_context"].push_back(1e3 * since(t0));
    for (const auto& pass : pipeline.passes()) {
      const auto t = Clock::now();
      pass->run(ctx);
      layer_ms[std::string(pass->name())].push_back(1e3 * since(t));
    }
    const auto t = Clock::now();
    sched::LayeredSchedule layered;
    layered.total_cores = ctx.total_cores;
    layered.contraction = std::move(ctx.contraction);
    layered.layers = std::move(ctx.layers);
    for (const sched::ScheduledLayer& layer : layered.layers) {
      layered.predicted_makespan += layer.predicted_time;
    }
    traced = sched::canonical(std::move(layered),
                              ctx.pricing != nullptr ? *ctx.pricing : d.cost,
                              std::string(pipeline.name()));
    layer_ms["lowering"].push_back(1e3 * since(t));
    traced_ms.push_back(1e3 * since(t0));
  };
  for (int r = 0; r < kRounds; ++r) {
    if (r % 2 == 0) {
      untraced_run();
      traced_run();
    } else {
      traced_run();
      untraced_run();
    }
  }
  result.attempted += 2 * kRounds;
  {
    const auto t0 = Clock::now();
    const std::string traced_bytes = serve::serialize_schedule(*traced);
    values["protocol.serialize_us"] = 1e6 * since(t0);
    values["schedule.bytes"] = static_cast<double>(traced_bytes.size());
    if (traced_bytes != bytes) {
      result.fail("pass-by-pass pipeline differs from the registry run");
    }
  }
  double entries = 0.0;
  for (const sched::TaskSlot& slot : traced->gantt.slots) {
    entries += static_cast<double>(slot.cores.size());
  }
  values["schedule.core_entries"] = entries;
  {
    const auto t0 = Clock::now();
    const bool ok = analysis::certify(base, *traced, {}).ok();
    values["certify_s"] = since(t0);
    ++result.attempted;
    if (!ok) result.fail("layer schedule of the 50k graph does not certify");
  }
  const std::map<std::string, std::string> names = {
      {"contract-chains", "sched.pass.contract_ms"},
      {"layerize", "sched.pass.layerize_ms"},
      {"group-search", "sched.pass.group_search_ms"},
      {"assign-lpt", "sched.pass.assign_lpt_ms"},
      {"adjust-groups", "sched.pass.adjust_ms"},
      {"lowering", "sched.lowering_ms"}};
  double self_sum = 0.0;
  for (const auto& [layer, samples] : layer_ms) {
    self_sum += median(samples);
    const auto it = names.find(layer);
    if (it != names.end()) values[it->second] = median(samples);
  }
  values["sched.layer_ms"] = median(traced_ms);
  double reuse = 0;
  values["sched.extend_ms"] = median(run_slabs(d, slabs, result, reuse));
  values["sched.incremental.reuse_ratio"] = reuse;
  values["host.reference_round_us"] = reference_round_us();
  reconcile(values, self_sum, median(untraced_ms), median(traced_ms), result);
  emit_layers(result, values);
  return result;
}

int usage() {
  std::cerr << "usage: perfbench --workload serve-hit|serve-miss|"
               "direct-50k --seed N --seconds S --trace 0|1 --served PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, served;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--served") served = value;
    else return usage();
  }
  if (workload.empty() || seconds <= 0.0) return usage();

  const unsigned nproc = std::thread::hardware_concurrency();
  std::cerr << "perfbench: workload=" << workload << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << " nproc=" << nproc
            << " daemon_workers=" << kDaemonWorkers
            << " generator_threads=" << kGeneratorThreads
            << " connections=" << kConnections << "\n";
  if (workload != "direct-50k" &&
      (kGeneratorThreads > static_cast<int>(nproc) ||
       kConnections > static_cast<int>(nproc))) {
    std::cerr << "perfbench: refusing a generator with more threads or "
                 "connections than nproc\n";
    return 2;
  }

  Result result;
  try {
    if (workload == "serve-hit" || workload == "serve-miss") {
      if (served.empty()) return usage();
      ServeSpec spec;
      spec.hit = workload == "serve-hit";
      if (!spec.hit) {
        spec.daemon_args = {"--cache-max-entries",
                            std::to_string(kMissCacheEntries)};
      }
      result = trace ? serve_traced(spec, served, seed, seconds)
                     : serve_end_to_end(spec, served, seed, seconds);
    } else if (workload == "direct-50k") {
      result = trace ? direct_traced(seed) : direct_end_to_end(seed, seconds);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "perfbench: FAILED: " << problem << "\n";
  }
  std::cout << render(result) << std::endl;
  return result.correct ? 0 : 1;
}
