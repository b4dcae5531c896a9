#include "ptask/serve/reactor.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/serve/protocol.hpp"

namespace ptask::serve {

namespace {

constexpr std::uint64_t kEventFdTag = 0;
constexpr std::uint64_t kListenerTag = 1;

double elapsed_us(Reactor::Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Reactor::Clock::now() -
                                                   since)
      .count();
}

}  // namespace

/// Per-connection state, owned exclusively by the reactor thread.
struct Reactor::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  std::string in;           ///< bytes read but not yet consumed as frames
  std::size_t in_off = 0;   ///< consumed prefix of `in` (compacted lazily)
  std::string out;          ///< encoded response bytes not yet flushed
  std::size_t out_off = 0;  ///< flushed prefix of `out`
  std::uint32_t interest = 0;  ///< current epoll event mask
  bool busy = false;           ///< a frame is in flight downstream
  bool close_after_flush = false;
  bool peer_closed = false;
  /// Frame-assembly timing: armed when the first bytes of a new frame are
  /// seen, disarmed when the frame completes.
  bool timing_armed = false;
  Clock::time_point frame_t0{};
  double span_begin_s = 0.0;
  /// Response-flush timing: armed when a response is queued on an empty
  /// output buffer.
  Clock::time_point send_t0{};

  std::size_t pending_in() const { return in.size() - in_off; }
};

/// A cross-thread request: a response frame to flush or a disconnect.
struct Reactor::Command {
  std::uint64_t conn_id = 0;
  std::string frame;
  bool close_after = false;
  bool disconnect = false;
};

Reactor::Reactor(const Options& options, FrameHandler on_frame,
                 OversizeHandler on_oversize)
    : options_(options),
      on_frame_(std::move(on_frame)),
      on_oversize_(std::move(on_oversize)) {}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  // The accept loop drains until EAGAIN, so the listener must be
  // nonblocking (the caller hands over a plain blocking socket).
  const int flags = ::fcntl(options_.listen_fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(options_.listen_fd, F_SETFL, flags | O_NONBLOCK);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("ptask_served: epoll_create1() failed");
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("ptask_served: eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, options_.listen_fd, &ev);

  running_.store(true, std::memory_order_release);
  stop_requested_.store(false, std::memory_order_release);
  close_listener_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void Reactor::stop_accepting() {
  if (!running_.load(std::memory_order_acquire)) return;
  close_listener_.store(true, std::memory_order_release);
  wake();
}

void Reactor::stop() {
  if (!running_.exchange(false)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void Reactor::respond(std::uint64_t conn_id, std::string&& frame,
                      bool close_after) {
  {
    const std::lock_guard<std::mutex> lock(commands_mutex_);
    commands_.push_back(
        Command{conn_id, std::move(frame), close_after, /*disconnect=*/false});
  }
  wake();
}

void Reactor::disconnect(std::uint64_t conn_id) {
  {
    const std::lock_guard<std::mutex> lock(commands_mutex_);
    commands_.push_back(Command{conn_id, {}, false, /*disconnect=*/true});
  }
  wake();
}

std::size_t Reactor::num_connections() const {
  return open_connections_.load(std::memory_order_relaxed);
}

void Reactor::wake() {
  if (event_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof(one));
}

void Reactor::run() {
  // Reactor spans (recv/send) land on their own track, after the compute
  // workers' tracks.
  obs::thread_context().worker = options_.worker_track;
  bool listener_open = true;

  const auto maybe_close_listener = [&] {
    if (listener_open && close_listener_.load(std::memory_order_acquire)) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, options_.listen_fd, nullptr);
      ::close(options_.listen_fd);
      options_.listen_fd = -1;
      listener_open = false;
    }
  };

  epoll_event events[64];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kEventFdTag) {
        std::uint64_t drained = 0;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        maybe_close_listener();
        drain_commands();
      } else if (tag == kListenerTag) {
        if (listener_open) handle_accept();
      } else {
        handle_conn_event(tag, events[i].events);
      }
    }
    maybe_close_listener();
  }

  // Shutdown: flush whatever responses are still queued (commands posted
  // before stop() are all in by now -- the server joins its workers first),
  // bounded by the drain deadline, then close everything.
  maybe_close_listener();
  drain_commands();
  const Clock::time_point deadline = Clock::now() + options_.drain_deadline;
  while (Clock::now() < deadline) {
    bool pending = false;
    for (auto& [id, conn] : conns_) {
      if (conn->out.size() > conn->out_off) pending = true;
    }
    if (!pending) break;
    const int n = ::epoll_wait(epoll_fd_, events, 64, 10);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kEventFdTag || tag == kListenerTag) continue;
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;
      if (events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) {
        flush_output(tag, *it->second);
      }
    }
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) destroy(id);
  if (listener_open && options_.listen_fd >= 0) {
    ::close(options_.listen_fd);
    options_.listen_fd = -1;
  }
}

void Reactor::handle_accept() {
  static obs::Counter& connections =
      obs::metrics().counter("serve.connections");
  while (true) {
    const int fd = ::accept4(options_.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: epoll retries
    connections.add();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->interest = EPOLLIN;
    const std::uint64_t id = next_conn_id_++;
    conn->id = id;
    epoll_event ev{};
    ev.events = conn->interest;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::handle_conn_event(std::uint64_t conn_id, std::uint32_t events) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // destroyed earlier in this batch
  Connection& conn = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    conn.peer_closed = true;
  }
  if (events & EPOLLOUT) {
    flush_output(conn_id, conn);
    if (conns_.find(conn_id) == conns_.end()) return;
  }
  if (events & (EPOLLIN | EPOLLHUP)) {
    read_input(conn);
    parse_frames(conn_id, conn);
    if (conns_.find(conn_id) == conns_.end()) return;
  }
  // A closed peer with nothing in flight and nothing to flush is garbage;
  // if a request is in flight the connection lives until its respond().
  if (conn.peer_closed && !conn.busy && conn.out.size() <= conn.out_off) {
    static obs::Counter& truncated =
        obs::metrics().counter("serve.truncated");
    // EOF after a complete header but before the payload completed: the
    // peer vanished mid-frame.
    if (conn.pending_in() >= 4) truncated.add();
    destroy(conn_id);
  }
}

void Reactor::read_input(Connection& conn) {
  if (conn.peer_closed || conn.busy) return;
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      if (!conn.timing_armed && conn.pending_in() > 0) {
        conn.timing_armed = true;
        conn.frame_t0 = Clock::now();
        conn.span_begin_s = obs::enabled() ? obs::tracer().now() : 0.0;
      }
      continue;
    }
    if (n == 0) {
      conn.peer_closed = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn.peer_closed = true;
    return;
  }
}

void Reactor::parse_frames(std::uint64_t conn_id, Connection& conn) {
  static obs::Histogram& phase_recv =
      obs::metrics().histogram("serve.phase.recv_us");
  // A loop, not recursion: frames answered on the spot are flushed here and
  // the next buffered frame is parsed right after, however many a client
  // pipelined.
  while (!conn.busy && conn.pending_in() >= 4) {
    unsigned char header[4];
    std::memcpy(header, conn.in.data() + conn.in_off, 4);
    const std::uint32_t length = decode_frame_length(header);
    if (length > options_.max_request_bytes) {
      // Oversized: answer with the structured error and drop the
      // connection once it is flushed (the payload is never read;
      // resynchronization inside the stream is not possible).
      conn.busy = true;  // stop parsing; nothing further is trusted
      conn.close_after_flush = true;
      queue_response(conn, on_oversize_(length));
      flush_output(conn_id, conn);
      return;
    }
    if (conn.pending_in() < 4u + length) break;  // frame incomplete
    const std::string_view payload(conn.in.data() + conn.in_off + 4, length);
    const Clock::time_point t_request =
        conn.timing_armed ? conn.frame_t0 : Clock::now();
    const double span_begin_s = conn.span_begin_s;
    const double recv_us =
        conn.timing_armed ? elapsed_us(conn.frame_t0) : 0.0;
    conn.timing_armed = false;
    phase_recv.observe(
        static_cast<std::uint64_t>(recv_us > 0.0 ? recv_us : 0.0));
    if (obs::enabled()) {
      obs::Span recv_span;
      recv_span.kind = obs::SpanKind::Serve;
      recv_span.name = "serve.recv";
      recv_span.worker = obs::thread_context().worker;
      recv_span.bytes = length;
      recv_span.begin_s = span_begin_s;
      recv_span.end_s = obs::tracer().now();
      obs::tracer().record(std::move(recv_span));
    }
    // One frame in flight per connection: until its response is flushed,
    // nothing further is parsed.
    conn.busy = true;
    const std::string response =
        on_frame_(conn_id, payload, t_request, span_begin_s, recv_us);
    conn.in_off += 4u + length;
    if (response.empty()) {
      // Answered downstream: reading stops (EPOLLIN off) until respond(),
      // so TCP backpressure bounds a pipelining client at the kernel
      // buffer.
      update_interest(conn);
      return;
    }
    queue_response(conn, response);
    if (!write_output(conn_id, conn) || !complete_response(conn_id, conn)) {
      return;
    }
  }
  // Drop the consumed prefix so a client that keeps a partial frame
  // buffered behind its pipelined ones cannot grow the buffer.
  if (conn.in_off > 0) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  update_interest(conn);
}

void Reactor::queue_response(Connection& conn, std::string_view payload) {
  if (conn.out.size() <= conn.out_off) conn.send_t0 = Clock::now();
  append_frame(conn.out, payload);
}

void Reactor::flush_output(std::uint64_t conn_id, Connection& conn) {
  if (write_output(conn_id, conn) && complete_response(conn_id, conn)) {
    parse_frames(conn_id, conn);
  }
}

bool Reactor::write_output(std::uint64_t conn_id, Connection& conn) {
  while (conn.out.size() > conn.out_off) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_interest(conn);
      return false;
    }
    // Peer gone mid-flush: drop the rest.
    conn.peer_closed = true;
    conn.out.clear();
    conn.out_off = 0;
    destroy(conn_id);
    return false;
  }
  return true;
}

bool Reactor::complete_response(std::uint64_t conn_id, Connection& conn) {
  static obs::Histogram& phase_send =
      obs::metrics().histogram("serve.phase.send_us");
  const std::size_t sent_bytes = conn.out.size();
  if (sent_bytes == 0) {
    // Nothing was pending (spurious wakeup); no response completed, so the
    // busy/flow-control state must not change.
    update_interest(conn);
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  const double send_us = elapsed_us(conn.send_t0);
  phase_send.observe(
      static_cast<std::uint64_t>(send_us > 0.0 ? send_us : 0.0));
  if (obs::enabled()) {
    obs::Span send_span;
    send_span.kind = obs::SpanKind::Serve;
    send_span.name = "serve.send";
    send_span.worker = obs::thread_context().worker;
    send_span.bytes = sent_bytes;
    const double end_s = obs::tracer().now();
    send_span.begin_s = end_s - send_us / 1e6;
    send_span.end_s = end_s;
    obs::tracer().record(std::move(send_span));
  }
  if (conn.close_after_flush || conn.peer_closed) {
    destroy(conn_id);
    return false;
  }
  conn.busy = false;
  // The client may have pipelined the next request while we were busy;
  // its bytes are already buffered and get parsed next.
  if (conn.pending_in() > 0 && !conn.timing_armed) {
    conn.timing_armed = true;
    conn.frame_t0 = Clock::now();
    conn.span_begin_s = obs::enabled() ? obs::tracer().now() : 0.0;
  }
  return true;
}

void Reactor::update_interest(Connection& conn) {
  std::uint32_t wanted = 0;
  if (!conn.busy && !conn.peer_closed) wanted |= EPOLLIN;
  if (conn.out.size() > conn.out_off) wanted |= EPOLLOUT;
  if (wanted == conn.interest) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = wanted;
}

void Reactor::destroy(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Reactor::drain_commands() {
  std::vector<Command> batch;
  {
    const std::lock_guard<std::mutex> lock(commands_mutex_);
    batch.swap(commands_);
  }
  for (Command& command : batch) {
    const auto it = conns_.find(command.conn_id);
    if (it == conns_.end()) continue;  // peer vanished before the response
    Connection& conn = *it->second;
    if (command.disconnect) {
      destroy(command.conn_id);
      continue;
    }
    if (conn.out.size() <= conn.out_off) conn.send_t0 = Clock::now();
    conn.out += command.frame;
    if (command.close_after) conn.close_after_flush = true;
    flush_output(command.conn_id, conn);
  }
}

}  // namespace ptask::serve
