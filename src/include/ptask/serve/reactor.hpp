#pragma once
/// \file reactor.hpp
/// Event-driven connection multiplexer for the scheduling service.
///
/// One reactor thread owns every client connection: it accepts, does
/// nonblocking framed reads into per-connection buffers, and hands each
/// *complete* request payload to the server via the frame callback -- so a
/// thousand idle keep-alive connections cost one thread and zero worker
/// capacity, and `--workers` sizes compute, not connections.  The callback
/// either answers on the spot (it returns the response, which the reactor
/// frames, appends and flushes itself: no thread hand-off, no eventfd) or
/// hands the request on and returns nothing; the answer then travels back
/// through `respond()` (thread-safe; workers call it), which queues the
/// encoded frame, wakes the reactor over an eventfd, and lets the reactor
/// flush it nonblockingly.
///
/// Flow control is per connection: the wire protocol is strictly serial
/// (one request, then its response, on one connection), so while a frame is
/// in flight downstream the reactor stops reading that connection (EPOLLIN
/// off).  A client that pipelines anyway just accumulates bytes in the
/// kernel socket buffer -- natural TCP backpressure, no unbounded user-space
/// buffering.  Frames answered on the spot never turn EPOLLIN off: the
/// reactor answers the buffered frames of a connection in a loop until one
/// goes downstream, the input runs out, or the socket stops taking output.
/// Frames larger than the configured limit are answered through the
/// oversize callback and the connection is closed after the error frame is
/// flushed (resynchronization inside the stream is impossible; the payload
/// is never read).
///
/// Shutdown is two-phase to keep drains prompt (no poll timeouts anywhere;
/// every wake is an epoll event or the eventfd): `stop_accepting()` closes
/// the listener immediately, then -- after the caller has drained its
/// worker side -- `stop()` flushes every pending response (bounded by a
/// short deadline), closes all connections, and joins the thread.
///
/// Metrics recorded here: serve.connections (accepts), serve.truncated
/// (EOF mid-frame), serve.phase.recv_us / serve.phase.send_us (frame
/// assembly / response flush time), plus serve.recv / serve.send spans on
/// the reactor's own trace track when tracing is enabled.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ptask::serve {

class Reactor {
 public:
  using Clock = std::chrono::steady_clock;

  /// Called on the reactor thread for every complete frame.  `payload`
  /// views the connection's input buffer and is valid only during the call.
  /// `t_request` / `span_begin_s` mark the arrival of the frame's first
  /// bytes (steady clock / tracer clock; the latter is 0 when tracing is
  /// off), so queue wait downstream counts into the request's total.
  /// `recv_us` is the frame assembly time.  A non-empty return value is
  /// the (unframed) response, sent right away; an empty one means the
  /// handler will cause a `respond()` or `disconnect()` for this connection
  /// later, and until then the reactor reads nothing further from it.
  using FrameHandler = std::function<std::string(
      std::uint64_t conn_id, std::string_view payload,
      Clock::time_point t_request, double span_begin_s, double recv_us)>;

  /// Builds the (unframed) response payload for an oversized frame
  /// announcing `length` bytes.  The reactor frames it, flushes it, and
  /// closes the connection.
  using OversizeHandler = std::function<std::string(std::uint32_t length)>;

  struct Options {
    int listen_fd = -1;  ///< bound + listening; the reactor takes ownership
    std::uint32_t max_request_bytes = 4u * 1024u * 1024u;
    /// obs worker-track index for the reactor's spans (keeps reactor spans
    /// off the compute workers' tracks).
    int worker_track = 0;
    /// stop() flushes pending responses for at most this long.
    std::chrono::milliseconds drain_deadline{2000};
  };

  Reactor(const Options& options, FrameHandler on_frame,
          OversizeHandler on_oversize);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the reactor thread (throws std::runtime_error when the epoll
  /// or eventfd setup fails).
  void start();

  /// Closes the listener promptly (new connects fail); existing
  /// connections keep being served.  Thread-safe, idempotent.
  void stop_accepting();

  /// Flushes pending responses (bounded by the drain deadline), closes
  /// every connection, and joins the thread.  Thread-safe, idempotent.
  void stop();

  /// Queues one already-encoded response frame for `conn_id` and wakes the
  /// reactor.  Thread-safe; callable from any thread (including the frame
  /// handler itself).  Unknown connection ids (peer already gone) are
  /// dropped silently.  With `close_after` the connection is closed once
  /// the frame is flushed.
  void respond(std::uint64_t conn_id, std::string&& frame,
               bool close_after = false);

  /// Closes `conn_id` without a response (e.g. frames arriving during
  /// shutdown).  Thread-safe, like respond().
  void disconnect(std::uint64_t conn_id);

  /// Currently open connections (reactor-thread counter; approximate when
  /// read from other threads).
  std::size_t num_connections() const;

 private:
  struct Connection;
  struct Command;

  void run();
  void handle_accept();
  void handle_conn_event(std::uint64_t conn_id, std::uint32_t events);
  void read_input(Connection& conn);
  void parse_frames(std::uint64_t conn_id, Connection& conn);
  /// Appends one response payload, framed, to the connection's output.
  void queue_response(Connection& conn, std::string_view payload);
  /// Writes pending output, then -- once it is all out -- completes the
  /// response and parses the frames buffered behind it.
  void flush_output(std::uint64_t conn_id, Connection& conn);
  /// Writes pending output; false when the socket would block (EPOLLOUT is
  /// armed) or the connection was destroyed.
  bool write_output(std::uint64_t conn_id, Connection& conn);
  /// Ends a fully written response; false when the connection was closed
  /// or there was no response to end.
  bool complete_response(std::uint64_t conn_id, Connection& conn);
  void update_interest(Connection& conn);
  void destroy(std::uint64_t conn_id);
  void drain_commands();
  void wake();

  Options options_;
  FrameHandler on_frame_;
  OversizeHandler on_oversize_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> close_listener_{false};
  std::atomic<std::size_t> open_connections_{0};

  std::mutex commands_mutex_;
  std::vector<Command> commands_;

  std::uint64_t next_conn_id_ = 2;  ///< 0 = eventfd, 1 = listener
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
};

}  // namespace ptask::serve
