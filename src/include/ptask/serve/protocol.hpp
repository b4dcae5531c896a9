#pragma once
/// \file protocol.hpp
/// Wire protocol of the scheduling service (`tools/ptask_served`).
///
/// Transport: length-prefixed JSON over a byte stream.  Every frame is a
/// 4-byte big-endian payload length followed by that many bytes of UTF-8
/// JSON.  A request is one frame; the matching response is one frame on the
/// same connection; connections are persistent (many request/response pairs
/// back to back).
///
/// Request kinds (the "type" member; default "schedule"):
///
///   schedule -- {"type":"schedule", "scheduler":"portfolio",
///                "total_cores":N, "machine":{...}, "graph":{...}}
///               Schedules the graph and returns {"ok":true,
///               "schedule":{...}}.  The schedule body is produced by
///               `serialize_schedule` and is *canonical*: the same request
///               content always yields byte-identical bytes, whether the
///               answer was computed or served from the daemon's cache.
///               With the opt-in member "certify":true, the schedule is
///               additionally audited by the independent certifier
///               (analysis::certify) before it is cached; the response then
///               carries "certificate_hash", the FNV-1a 64-bit hash of the
///               schedule bytes, and a failed audit is the PTS006 error
///               (never cached -- a later request recomputes).  The certify
///               flag is part of the canonical cache key, so certified and
///               uncertified answers never alias.
///   submit   -- {"type":"submit", "total_cores":N, "machine":{...},
///                "graph":{...}[, "release_time":R]}
///               Opens an online scheduling *session*: the graph is
///               scheduled by the incremental strategy and the server keeps
///               the session's accumulated graph plus the re-entrant
///               pipeline's memo state.  Returns {"ok":true,
///               "session":"sess-...", "incremental":{...},
///               "schedule":{...}} where "incremental" reports the repair
///               counters (total_layers / layers_reused / layers_scheduled
///               / settled_prefix).  Session responses are computed fresh
///               per request and are never stored in (or served from) the
///               whole-schedule cache.
///   extend   -- {"type":"extend", "session":"sess-...",
///                "delta":{"release_time":R, "tasks":[{...task fields...,
///                "release_time":r, "priority":p}, ...],
///                "edges":[[from,to], ...]}}
///               Applies one online arrival batch to the session: new tasks
///               are appended to the accumulated graph in order (the i-th
///               delta task gets id old_num_tasks + i), the edges -- which
///               may reference any accumulated task -- are inserted
///               atomically, and the schedule is repaired locally.  The
///               response has the submit shape; its schedule bytes are
///               bit-identical to a one-shot "incremental" schedule of the
///               whole accumulated graph.  An invalid delta (unknown ids,
///               self edges, cycles, non-monotonic release times) is the
///               PTS007 error and leaves the session untouched.
///   close    -- {"type":"close", "session":"sess-..."}  Ends the session
///               and frees its state; returns {"ok":true,
///               "session":"sess-...","closed":true}.
///   stats    -- {"type":"stats"}  Returns the service counters (requests,
///               cache hits/misses, per-code error counts, latency
///               quantiles with full log-bucket boundaries, in-flight
///               requests, and a dump of every registry counter/histogram).
///   metrics  -- {"type":"metrics"}  Returns {"ok":true,"metrics":"..."}
///               where the string is the Prometheus text exposition of the
///               whole metrics registry (see obs/prometheus.hpp) plus the
///               server gauges.
///   trace    -- {"type":"trace"}  Drains the live tracer and returns
///               {"ok":true,"trace":{...}} with a Chrome/Perfetto trace
///               object (empty when tracing is disabled or compiled out).
///   ping     -- {"type":"ping"}  Returns {"ok":true,"pong":true}.
///
/// Request correlation: every response (ok, error, stats, ...) carries a
/// "request_id" string member right after "ok".  Clients may supply their
/// own top-level "request_id" (echoed verbatim); otherwise the server
/// mints one.  A client id is recovered even from malformed-JSON payloads
/// on a best-effort scan, so PTS001 errors stay correlatable; the one
/// path that cannot echo a client id is PTS005 (the oversized payload is
/// never read), which carries a server-minted id.  An optional "family"
/// string tags the request's workload family for per-family metrics.
/// Both members are pure annotations: they are excluded from the cache
/// key, so responses differing only in request_id/family are served from
/// one cache entry with byte-identical schedule bytes.
///
/// Errors: {"ok":false, "error":{"code":"PTS00x", "message":"..."}}.
/// Codes are stable (match on the code, not the message), mirroring the
/// analyzer's PTA0xx convention:
///
///   PTS001  malformed JSON payload
///   PTS002  bad request (missing/ill-typed fields, bad edge ids, cycle)
///   PTS003  unknown scheduler name
///   PTS004  empty graph (zero tasks)
///   PTS005  request frame larger than the server's configured limit
///   PTS006  certification failure: a requested independent audit of the
///           computed schedule found a PTC00x violation
///   PTS007  session error: unknown/closed session id, the configured
///           session limit is reached, or an extend delta is invalid
///           (unknown edge endpoints, self edges, cycles, non-monotonic
///           release times); a rejected delta never mutates the session
///   PTS008  overloaded: the server's bounded admission queue is full.
///           The error object carries an extra "retry_after_ms" integer
///           member -- a backoff hint after which the client should retry
///           the same request.  The connection stays open (overload is a
///           transient per-request condition, not a protocol violation)
///
/// Every error increments a `serve.error.PTS00x` counter in the metrics
/// registry.  See docs/SERVICE.md for the full field tables.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ptask/arch/machine.hpp"
#include "ptask/core/task_graph.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::serve {

// Stable protocol error codes (use the constants, not string literals).
inline constexpr std::string_view kErrMalformedJson = "PTS001";
inline constexpr std::string_view kErrBadRequest = "PTS002";
inline constexpr std::string_view kErrUnknownScheduler = "PTS003";
inline constexpr std::string_view kErrEmptyGraph = "PTS004";
inline constexpr std::string_view kErrTooLarge = "PTS005";
inline constexpr std::string_view kErrCertification = "PTS006";
inline constexpr std::string_view kErrSession = "PTS007";
inline constexpr std::string_view kErrOverloaded = "PTS008";

/// One-line description of a protocol error code; empty for unknown codes.
std::string_view describe_error(std::string_view code);

/// Thrown by request parsing; carries the stable code for the error
/// response.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string_view code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  std::string_view code() const { return code_; }

 private:
  std::string_view code_;
};

/// A parsed "schedule" request: everything one scheduler run needs.
struct ScheduleRequest {
  std::string scheduler = "portfolio";  ///< SchedulerRegistry name
  int total_cores = 1;
  arch::MachineSpec machine;
  core::TaskGraph graph;
  /// Opt-in independent audit: run analysis::certify on the computed
  /// schedule and fail the request with PTS006 when it does not certify.
  bool certify = false;
  /// Client-chosen correlation id, echoed in the response; empty lets the
  /// server mint one.  Annotation only: excluded from the cache key.
  std::string request_id;
  /// Workload-family tag for per-family service metrics
  /// (serve.family.<family>.*).  Annotation only: excluded from the
  /// cache key.
  std::string family;
};

/// A parsed "submit" request: opens an incremental scheduling session.
struct SubmitRequest {
  int total_cores = 1;
  arch::MachineSpec machine;
  core::TaskGraph graph;
  /// Arrival instant of the initial batch (floor for later extends).
  double release_time = 0.0;
  std::string request_id;  ///< annotation, as in ScheduleRequest
  std::string family;      ///< annotation, as in ScheduleRequest
};

/// A parsed "extend" request: one arrival batch for an open session.
struct ExtendRequest {
  std::string session;
  sched::GraphDelta delta;
  std::string request_id;
  std::string family;
};

/// A parsed "close" request.
struct CloseRequest {
  std::string session;
  std::string request_id;
};

// ---- framing ----

/// Maximum frame length the protocol itself allows (the server usually
/// configures a smaller limit).
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Prepends the 4-byte big-endian length header to `payload`.
std::string encode_frame(std::string_view payload);

/// Appends `payload` framed (header, then payload) to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Decodes the 4-byte big-endian length header.
std::uint32_t decode_frame_length(const unsigned char header[4]);

// ---- request serialization (client side) ----

/// Renders a "schedule" request payload (without the frame header).  The
/// rendering is canonical: field order and number formatting are fixed, and
/// doubles round-trip exactly (max_digits10), so re-serializing a parsed
/// request reproduces the same bytes.
std::string serialize_request(const ScheduleRequest& request);

std::string serialize_machine(const arch::MachineSpec& machine);
std::string serialize_graph(const core::TaskGraph& graph);

/// Renders a "submit" payload (canonical member order, like
/// serialize_request).
std::string serialize_submit(const SubmitRequest& request);

/// Renders an "extend" payload: the session id plus the delta (batch
/// release time, arriving tasks with per-task release_time/priority, and
/// the edge batch).
std::string serialize_extend(const ExtendRequest& request);

/// Renders a "close" payload.
std::string serialize_close(const CloseRequest& request);

// ---- request parsing (server side) ----
//
// The typed parsers read an already-parsed JSON document: the server parses
// each frame once and dispatches on its "type" member before picking one.

/// Builds a "schedule" request from its JSON document.  Throws
/// ProtocolError with the matching PTS00x code on missing/ill-typed fields,
/// edge ids out of range or closing a cycle, unknown scheduler names, and
/// zero-task graphs.
ScheduleRequest parse_request(const obs::json::Value& document);

/// Parses a "schedule" request payload: parse_request of its JSON document,
/// with malformed JSON reported as PTS001.
ScheduleRequest parse_request(std::string_view payload);

/// Builds a "submit" request (same error codes as parse_request; sessions
/// have no scheduler member -- they always run "incremental").
SubmitRequest parse_submit(const obs::json::Value& document);

/// Builds an "extend" request.  Structural problems (missing members,
/// ill-typed fields) are PTS002; delta *semantics* against the session's
/// accumulated graph (unknown ids, cycles, release monotonicity) are checked
/// by the server when the delta is applied and reported as PTS007.
ExtendRequest parse_extend(const obs::json::Value& document);

/// Builds a "close" request.
CloseRequest parse_close(const obs::json::Value& document);

/// The cache key of a request: a length-prefixed binary encoding of its
/// schedulable content WITHOUT the request_id/family annotations.  Two
/// requests get the same key iff they have identical scheduler, cores,
/// certify flag, machine and graph -- including every task weight, keyed by
/// its bit pattern -- so near-collision graphs that differ in one weight
/// never share an entry, while requests differing only in correlation ids
/// do.  The fields are encoded in the order scheduler, total_cores,
/// certify, machine, graph, so the key's first `*batch_key_size` bytes (set
/// when non-null) are the batching compatibility key: requests that agree
/// on it may share one sched::BatchScheduler.
std::string canonical_key(const ScheduleRequest& request,
                          std::size_t* batch_key_size = nullptr);

/// Best-effort extraction of a top-level "request_id" string from a payload
/// that may not parse as JSON (used to keep PTS001 errors correlatable).
/// Returns "" when no id is found.
std::string extract_request_id_loose(std::string_view payload);

// ---- response serialization ----

/// Canonical JSON of a schedule: strategy, total cores, makespan, per-task
/// allocation and Gantt slots, the chain contraction (original-task
/// members per contracted node), and the layered structure when present.
/// Diagnostic notes are deliberately excluded -- they may carry wall-clock
/// timings (portfolio scoreboard) and would break byte-identity between
/// cached and uncached responses.
std::string serialize_schedule(const sched::Schedule& schedule);

/// {"ok":true,"schedule":<schedule_json>}
std::string ok_response(std::string_view schedule_json);

/// {"ok":true,"schedule":<schedule_json>,"certificate_hash":"0x..."} -- the
/// certified variant; `certificate_hash` is hash_hex(fnv1a64(bytes)) of the
/// schedule body, so any holder of the response can re-verify the binding.
std::string ok_response(std::string_view schedule_json,
                        std::string_view certificate_hash);

/// Session response: {"ok":true,"session":"<id>","incremental":{
/// "total_layers":T,"layers_reused":R,"layers_scheduled":S,
/// "settled_prefix":P},"schedule":<schedule_json>}.  The schedule is the
/// *last* member so clients can slice it with the same helper that handles
/// plain schedule responses.
std::string session_response(std::string_view session_id,
                             const sched::RepairStats& stats,
                             std::string_view schedule_json);

/// {"ok":true,"session":"<id>","closed":true}
std::string close_response(std::string_view session_id);

/// {"ok":false,"error":{"code":...,"message":...}}
std::string error_response(std::string_view code, std::string_view message);

/// {"ok":false,"error":{"code":"PTS008","message":...,
/// "retry_after_ms":N}} -- the admission-control rejection.  The backoff
/// hint is part of the error object so it survives generic error handling
/// (clients that only look at code/message ignore it safely).
std::string overload_response(std::string_view message,
                              std::uint64_t retry_after_ms);

/// The "retry_after_ms" hint of a PTS008 error response; -1 when the
/// response is not an overload rejection (or does not parse).
std::int64_t response_retry_after_ms(std::string_view payload);

/// {"ok":true,"pong":true}
std::string pong_response();

/// Inserts `,"request_id":"<id>"` right after the leading "ok" member of a
/// rendered response ({"ok":true,...} or {"ok":false,...}); responses not
/// of that shape are returned unchanged.  The fixed position keeps the rest
/// of the response -- notably the schedule bytes -- untouched, so cached
/// responses stay byte-identical modulo this one member.
std::string with_request_id(std::string_view response, std::string_view id);

/// {"ok":true,"metrics":"<exposition>"} -- the Prometheus text exposition
/// as one JSON string.
std::string metrics_response(std::string_view exposition);

/// {"ok":true,"trace":<trace_object>} -- `trace_object` must already be a
/// self-contained JSON value (a Chrome trace document).
std::string trace_response(std::string_view trace_object);

// ---- low-level JSON helpers (shared with the stats rendering) ----

/// Appends `text` as a JSON string literal (quoted, escaped).
void append_json_string(std::string& out, std::string_view text);

/// Appends a double with round-trip precision ("%.17g").
void append_json_double(std::string& out, double value);

}  // namespace ptask::serve
