#include "ptask/serve/protocol.hpp"

#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "ptask/sched/registry.hpp"

namespace ptask::serve {

namespace {

using obs::json::Value;

constexpr std::string_view kKindNames[] = {"bcast", "allgather", "allreduce",
                                           "barrier", "exchange"};
constexpr std::string_view kScopeNames[] = {"global", "group", "orthogonal"};

/// Largest symbolic core count a request may name, for the scheduler and
/// for the machine alike (the machine's topology allocates per core).
constexpr long long kMaxCores = 1 << 24;

[[noreturn]] void bad_request(const std::string& message) {
  throw ProtocolError(kErrBadRequest, message);
}

/// Member lookup with a type check; `where` names the enclosing object in
/// error messages.
const Value& require(const Value& object, std::string_view key,
                     Value::Type type, const char* where) {
  const Value* member = object.find(key);
  if (member == nullptr) {
    bad_request(std::string(where) + " is missing member '" +
                std::string(key) + "'");
  }
  if (member->type != type) {
    bad_request(std::string(where) + " member '" + std::string(key) +
                "' has the wrong type");
  }
  return *member;
}

double require_number(const Value& object, std::string_view key,
                      const char* where) {
  return require(object, key, Value::Type::Number, where).number;
}

/// A JSON number that must be a finite integer in [lo, hi].
long long require_int(const Value& object, std::string_view key,
                      const char* where, long long lo, long long hi) {
  const double number = require_number(object, key, where);
  if (!std::isfinite(number) || number != std::floor(number) || number < lo ||
      number > hi) {
    bad_request(std::string(where) + " member '" + std::string(key) +
                "' is not an integer in range");
  }
  return static_cast<long long>(number);
}

core::CollectiveKind parse_kind(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (kKindNames[i] == name) return static_cast<core::CollectiveKind>(i);
  }
  bad_request("unknown collective kind '" + name + "'");
}

core::CommScope parse_scope(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kScopeNames); ++i) {
    if (kScopeNames[i] == name) return static_cast<core::CommScope>(i);
  }
  bad_request("unknown collective scope '" + name + "'");
}

core::MTask parse_task(const Value& value, int index) {
  if (!value.is_object()) bad_request("graph.tasks entries must be objects");
  const char* where = "task";
  core::MTask task(require(value, "name", Value::Type::String, where).string,
                   require_number(value, "work", where));
  if (!std::isfinite(task.work_flop()) || task.work_flop() < 0.0) {
    bad_request("task " + std::to_string(index) +
                " has negative or non-finite work");
  }
  task.set_max_cores(
      static_cast<int>(require_int(value, "max_cores", where, 1, INT_MAX)));
  task.set_marker(require(value, "marker", Value::Type::Bool, where).boolean);
  const Value& comms = require(value, "comms", Value::Type::Array, where);
  for (const Value& comm : comms.array) {
    if (!comm.is_object()) bad_request("task comms entries must be objects");
    core::CollectiveOp op;
    op.kind =
        parse_kind(require(comm, "kind", Value::Type::String, "comm").string);
    op.scope =
        parse_scope(require(comm, "scope", Value::Type::String, "comm").string);
    op.data_bytes = static_cast<std::size_t>(
        require_int(comm, "bytes", "comm", 0, (1ll << 53)));
    op.repeat =
        static_cast<int>(require_int(comm, "repeat", "comm", 0, INT_MAX));
    task.add_comm(op);
  }
  return task;
}

arch::MachineSpec parse_machine(const Value& value) {
  if (!value.is_object()) bad_request("'machine' must be an object");
  const char* where = "machine";
  arch::MachineSpec spec;
  spec.name = require(value, "name", Value::Type::String, where).string;
  spec.num_nodes =
      static_cast<int>(require_int(value, "num_nodes", where, 1, 1 << 20));
  spec.procs_per_node =
      static_cast<int>(require_int(value, "procs_per_node", where, 1, 1 << 20));
  spec.cores_per_proc =
      static_cast<int>(require_int(value, "cores_per_proc", where, 1, 1 << 20));
  // Multiplied in 64 bits: MachineSpec::total_cores() is an int product.
  if (static_cast<long long>(spec.num_nodes) * spec.procs_per_node *
          spec.cores_per_proc >
      kMaxCores) {
    bad_request("machine has more than " + std::to_string(kMaxCores) +
                " cores");
  }
  spec.core_flops = require_number(value, "core_flops", where);
  spec.core_efficiency = require_number(value, "core_efficiency", where);
  spec.omp_region_overhead_s =
      require_number(value, "omp_region_overhead_s", where);
  if (!(spec.core_flops > 0.0) || !std::isfinite(spec.core_flops) ||
      !(spec.core_efficiency > 0.0) || !std::isfinite(spec.core_efficiency)) {
    bad_request("machine core_flops / core_efficiency must be positive");
  }
  const auto parse_link = [&](std::string_view key) {
    const Value& link = require(value, key, Value::Type::Object, where);
    arch::LinkParams params;
    params.latency_s = require_number(link, "latency_s", "link");
    params.bandwidth_Bps = require_number(link, "bandwidth_Bps", "link");
    if (!(params.bandwidth_Bps > 0.0) || params.latency_s < 0.0) {
      bad_request("link parameters must have positive bandwidth and "
                  "non-negative latency");
    }
    return params;
  };
  spec.intra_processor = parse_link("intra_processor");
  spec.intra_node = parse_link("intra_node");
  spec.inter_node = parse_link("inter_node");
  return spec;
}

core::TaskGraph parse_graph(const Value& value) {
  if (!value.is_object()) bad_request("'graph' must be an object");
  const Value& tasks = require(value, "tasks", Value::Type::Array, "graph");
  core::TaskGraph graph;
  int index = 0;
  for (const Value& task : tasks.array) {
    graph.add_task(parse_task(task, index++));
  }
  const Value& edges = require(value, "edges", Value::Type::Array, "graph");
  for (const Value& edge : edges.array) {
    if (!edge.is_array() || edge.array.size() != 2 ||
        !edge.array[0].is_number() || !edge.array[1].is_number()) {
      bad_request("graph.edges entries must be [from, to] pairs");
    }
    const double from_d = edge.array[0].number;
    const double to_d = edge.array[1].number;
    if (from_d != std::floor(from_d) || to_d != std::floor(to_d) ||
        from_d < 0 || to_d < 0 || from_d >= graph.num_tasks() ||
        to_d >= graph.num_tasks()) {
      bad_request("graph edge endpoint out of range");
    }
    try {
      graph.add_edge(static_cast<core::TaskId>(from_d),
                     static_cast<core::TaskId>(to_d));
    } catch (const std::invalid_argument& e) {
      bad_request(std::string("graph edge rejected: ") + e.what());
    }
  }
  return graph;
}

void append_link(std::string& out, std::string_view key,
                 const arch::LinkParams& link) {
  out += '"';
  out += key;
  out += "\":{\"latency_s\":";
  append_json_double(out, link.latency_s);
  out += ",\"bandwidth_Bps\":";
  append_json_double(out, link.bandwidth_Bps);
  out += '}';
}

void append_int_array(std::string& out, const std::vector<int>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace

namespace {

/// The task fields shared by graph tasks and delta tasks (everything but
/// the enclosing braces), matching serialize_graph's task rendering.
void append_task_fields(std::string& out, const core::MTask& task) {
  out += "\"name\":";
  append_json_string(out, task.name());
  out += ",\"work\":";
  append_json_double(out, task.work_flop());
  out += ",\"max_cores\":" + std::to_string(task.max_cores());
  out += ",\"marker\":";
  out += task.is_marker() ? "true" : "false";
  out += ",\"comms\":[";
  for (std::size_t i = 0; i < task.comms().size(); ++i) {
    if (i != 0) out += ',';
    const core::CollectiveOp& op = task.comms()[i];
    out += "{\"kind\":\"";
    out += kKindNames[static_cast<std::size_t>(op.kind)];
    out += "\",\"scope\":\"";
    out += kScopeNames[static_cast<std::size_t>(op.scope)];
    out += "\",\"bytes\":" + std::to_string(op.data_bytes);
    out += ",\"repeat\":" + std::to_string(op.repeat) + '}';
  }
  out += ']';
}

void append_annotations(std::string& out, const std::string& request_id,
                        const std::string& family) {
  if (!request_id.empty()) {
    out += ",\"request_id\":";
    append_json_string(out, request_id);
  }
  if (!family.empty()) {
    out += ",\"family\":";
    append_json_string(out, family);
  }
}

/// Parses the shared request_id/family annotation members.
void parse_annotations(const Value& document, std::string* request_id,
                       std::string* family) {
  if (const Value* id = document.find("request_id")) {
    if (!id->is_string()) {
      bad_request("request member 'request_id' has the wrong type");
    }
    *request_id = id->string;
  }
  if (family != nullptr) {
    if (const Value* tag = document.find("family")) {
      if (!tag->is_string()) {
        bad_request("request member 'family' has the wrong type");
      }
      *family = tag->string;
    }
  }
}

/// Appends the object representation of a fixed-width value to a cache
/// key (doubles by bit pattern).
template <typename T>
void put(std::string& key, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  key.append(bytes, sizeof(T));
}

void put_string(std::string& key, std::string_view text) {
  put(key, std::uint64_t{text.size()});
  key.append(text);
}

Value parse_document(std::string_view payload) {
  try {
    return obs::json::parse(payload);
  } catch (const std::runtime_error& e) {
    throw ProtocolError(kErrMalformedJson, e.what());
  }
}

/// Checks the "type" member matches the handler that was dispatched to.
void require_type(const Value& document, std::string_view type) {
  if (!document.is_object()) bad_request("request must be a JSON object");
  const Value& member =
      require(document, "type", Value::Type::String, "request");
  if (member.string != type) {
    bad_request("request member 'type' is not '" + std::string(type) + "'");
  }
}

}  // namespace

std::string_view describe_error(std::string_view code) {
  if (code == kErrMalformedJson) return "malformed JSON payload";
  if (code == kErrBadRequest) return "bad request (missing/invalid fields)";
  if (code == kErrUnknownScheduler) return "unknown scheduler name";
  if (code == kErrEmptyGraph) return "empty graph (zero tasks)";
  if (code == kErrTooLarge) return "request exceeds the configured size limit";
  if (code == kErrCertification) {
    return "schedule failed independent certification";
  }
  if (code == kErrSession) {
    return "session error (unknown session, session limit, or invalid delta)";
  }
  if (code == kErrOverloaded) {
    return "overloaded: the admission queue is full; retry after the hint";
  }
  return {};
}

std::string encode_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  append_frame(frame, payload);
  return frame;
}

void append_frame(std::string& out, std::string_view payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>((length >> 24) & 0xff));
  out.push_back(static_cast<char>((length >> 16) & 0xff));
  out.push_back(static_cast<char>((length >> 8) & 0xff));
  out.push_back(static_cast<char>(length & 0xff));
  out.append(payload);
}

std::uint32_t decode_frame_length(const unsigned char header[4]) {
  return (static_cast<std::uint32_t>(header[0]) << 24) |
         (static_cast<std::uint32_t>(header[1]) << 16) |
         (static_cast<std::uint32_t>(header[2]) << 8) |
         static_cast<std::uint32_t>(header[3]);
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

std::string serialize_machine(const arch::MachineSpec& machine) {
  std::string out = "{\"name\":";
  append_json_string(out, machine.name);
  out += ",\"num_nodes\":" + std::to_string(machine.num_nodes);
  out += ",\"procs_per_node\":" + std::to_string(machine.procs_per_node);
  out += ",\"cores_per_proc\":" + std::to_string(machine.cores_per_proc);
  out += ",\"core_flops\":";
  append_json_double(out, machine.core_flops);
  out += ",\"core_efficiency\":";
  append_json_double(out, machine.core_efficiency);
  out += ",\"omp_region_overhead_s\":";
  append_json_double(out, machine.omp_region_overhead_s);
  out += ',';
  append_link(out, "intra_processor", machine.intra_processor);
  out += ',';
  append_link(out, "intra_node", machine.intra_node);
  out += ',';
  append_link(out, "inter_node", machine.inter_node);
  out += '}';
  return out;
}

std::string serialize_graph(const core::TaskGraph& graph) {
  std::string out = "{\"tasks\":[";
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    if (id != 0) out += ',';
    out += '{';
    append_task_fields(out, graph.task(id));
    out += '}';
  }
  out += "],\"edges\":[";
  bool first = true;
  for (core::TaskId from = 0; from < graph.num_tasks(); ++from) {
    for (const core::TaskId to : graph.successors(from)) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(from) + ',' + std::to_string(to) + ']';
    }
  }
  out += "]}";
  return out;
}

std::string serialize_request(const ScheduleRequest& request) {
  std::string out = "{\"type\":\"schedule\",\"scheduler\":";
  append_json_string(out, request.scheduler);
  out += ",\"total_cores\":" + std::to_string(request.total_cores);
  out += ",\"machine\":" + serialize_machine(request.machine);
  out += ",\"graph\":" + serialize_graph(request.graph);
  // Optional members are emitted only when set: pre-certification request
  // bytes stay stable, and parse -> serialize still round-trips exactly.
  if (request.certify) out += ",\"certify\":true";
  append_annotations(out, request.request_id, request.family);
  out += '}';
  return out;
}

ScheduleRequest parse_request(const Value& document) {
  if (!document.is_object()) bad_request("request must be a JSON object");
  ScheduleRequest request;
  request.scheduler =
      require(document, "scheduler", Value::Type::String, "request").string;
  if (!sched::SchedulerRegistry::instance().contains(request.scheduler)) {
    throw ProtocolError(kErrUnknownScheduler,
                        "unknown scheduler '" + request.scheduler + "'");
  }
  request.total_cores = static_cast<int>(
      require_int(document, "total_cores", "request", 1, kMaxCores));
  request.machine =
      parse_machine(require(document, "machine", Value::Type::Object, "request"));
  request.graph =
      parse_graph(require(document, "graph", Value::Type::Object, "request"));
  if (request.graph.num_tasks() == 0) {
    throw ProtocolError(kErrEmptyGraph, "graph has zero tasks");
  }
  if (const Value* certify = document.find("certify")) {
    if (!certify->is_bool()) {
      bad_request("request member 'certify' has the wrong type");
    }
    request.certify = certify->boolean;
  }
  parse_annotations(document, &request.request_id, &request.family);
  return request;
}

ScheduleRequest parse_request(std::string_view payload) {
  return parse_request(parse_document(payload));
}

std::string canonical_key(const ScheduleRequest& request,
                          std::size_t* batch_key_size) {
  std::string key;
  put_string(key, request.scheduler);
  put(key, std::int32_t{request.total_cores});
  put(key, std::uint8_t{request.certify});
  const arch::MachineSpec& machine = request.machine;
  put_string(key, machine.name);
  put(key, std::int32_t{machine.num_nodes});
  put(key, std::int32_t{machine.procs_per_node});
  put(key, std::int32_t{machine.cores_per_proc});
  put(key, machine.core_flops);
  put(key, machine.core_efficiency);
  put(key, machine.omp_region_overhead_s);
  for (const arch::LinkParams* link :
       {&machine.intra_processor, &machine.intra_node, &machine.inter_node}) {
    put(key, link->latency_s);
    put(key, link->bandwidth_Bps);
  }
  if (batch_key_size != nullptr) *batch_key_size = key.size();

  const core::TaskGraph& graph = request.graph;
  put(key, static_cast<std::uint64_t>(graph.num_tasks()));
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    const core::MTask& task = graph.task(id);
    put_string(key, task.name());
    put(key, task.work_flop());
    put(key, std::int32_t{task.max_cores()});
    put(key, std::uint8_t{task.is_marker()});
    put(key, std::uint64_t{task.comms().size()});
    for (const core::CollectiveOp& op : task.comms()) {
      put(key, static_cast<std::uint8_t>(op.kind));
      put(key, static_cast<std::uint8_t>(op.scope));
      put(key, std::uint64_t{op.data_bytes});
      put(key, std::int32_t{op.repeat});
    }
  }
  // Successor lists in insertion order, as serialize_graph emits the edges.
  for (core::TaskId from = 0; from < graph.num_tasks(); ++from) {
    const auto& successors = graph.successors(from);
    put(key, std::uint64_t{successors.size()});
    for (const core::TaskId to : successors) put(key, std::int32_t{to});
  }
  return key;
}

std::string serialize_submit(const SubmitRequest& request) {
  std::string out = "{\"type\":\"submit\",\"total_cores\":" +
                    std::to_string(request.total_cores);
  out += ",\"machine\":" + serialize_machine(request.machine);
  out += ",\"graph\":" + serialize_graph(request.graph);
  out += ",\"release_time\":";
  append_json_double(out, request.release_time);
  append_annotations(out, request.request_id, request.family);
  out += '}';
  return out;
}

std::string serialize_extend(const ExtendRequest& request) {
  std::string out = "{\"type\":\"extend\",\"session\":";
  append_json_string(out, request.session);
  out += ",\"delta\":{\"release_time\":";
  append_json_double(out, request.delta.release_time);
  out += ",\"tasks\":[";
  for (std::size_t i = 0; i < request.delta.tasks.size(); ++i) {
    if (i != 0) out += ',';
    const sched::ArrivingTask& arriving = request.delta.tasks[i];
    out += '{';
    append_task_fields(out, arriving.task);
    out += ",\"release_time\":";
    append_json_double(out, arriving.release_time);
    out += ",\"priority\":" + std::to_string(arriving.priority);
    out += '}';
  }
  out += "],\"edges\":[";
  for (std::size_t i = 0; i < request.delta.edges.size(); ++i) {
    if (i != 0) out += ',';
    out += '[' + std::to_string(request.delta.edges[i].first) + ',' +
           std::to_string(request.delta.edges[i].second) + ']';
  }
  out += "]}";
  append_annotations(out, request.request_id, request.family);
  out += '}';
  return out;
}

std::string serialize_close(const CloseRequest& request) {
  std::string out = "{\"type\":\"close\",\"session\":";
  append_json_string(out, request.session);
  append_annotations(out, request.request_id, {});
  out += '}';
  return out;
}

SubmitRequest parse_submit(const Value& document) {
  require_type(document, "submit");
  SubmitRequest request;
  request.total_cores = static_cast<int>(
      require_int(document, "total_cores", "request", 1, kMaxCores));
  request.machine = parse_machine(
      require(document, "machine", Value::Type::Object, "request"));
  request.graph =
      parse_graph(require(document, "graph", Value::Type::Object, "request"));
  if (request.graph.num_tasks() == 0) {
    throw ProtocolError(kErrEmptyGraph, "graph has zero tasks");
  }
  if (const Value* release = document.find("release_time")) {
    if (!release->is_number() || !std::isfinite(release->number)) {
      bad_request("request member 'release_time' must be a finite number");
    }
    request.release_time = release->number;
  }
  parse_annotations(document, &request.request_id, &request.family);
  return request;
}

ExtendRequest parse_extend(const Value& document) {
  require_type(document, "extend");
  ExtendRequest request;
  request.session =
      require(document, "session", Value::Type::String, "request").string;
  const Value& delta =
      require(document, "delta", Value::Type::Object, "request");
  const double release = require_number(delta, "release_time", "delta");
  if (!std::isfinite(release)) {
    bad_request("delta member 'release_time' must be finite");
  }
  request.delta.release_time = release;
  const Value& tasks = require(delta, "tasks", Value::Type::Array, "delta");
  int index = 0;
  for (const Value& value : tasks.array) {
    sched::ArrivingTask arriving;
    arriving.task = parse_task(value, index++);
    arriving.release_time = request.delta.release_time;
    if (const Value* task_release = value.find("release_time")) {
      if (!task_release->is_number() || !std::isfinite(task_release->number)) {
        bad_request("delta task 'release_time' must be a finite number");
      }
      arriving.release_time = task_release->number;
    }
    if (value.find("priority") != nullptr) {
      arriving.priority = static_cast<int>(
          require_int(value, "priority", "delta task", INT_MIN, INT_MAX));
    }
    request.delta.tasks.push_back(std::move(arriving));
  }
  const Value& edges = require(delta, "edges", Value::Type::Array, "delta");
  for (const Value& edge : edges.array) {
    if (!edge.is_array() || edge.array.size() != 2 ||
        !edge.array[0].is_number() || !edge.array[1].is_number()) {
      bad_request("delta.edges entries must be [from, to] pairs");
    }
    const double from_d = edge.array[0].number;
    const double to_d = edge.array[1].number;
    if (from_d != std::floor(from_d) || to_d != std::floor(to_d) ||
        from_d < 0 || to_d < 0 || from_d > INT_MAX || to_d > INT_MAX) {
      bad_request("delta edge endpoint is not a task id");
    }
    // Range/cycle checks against the *accumulated* session graph happen
    // when the delta is applied (PTS007), not here.
    request.delta.edges.emplace_back(static_cast<core::TaskId>(from_d),
                                     static_cast<core::TaskId>(to_d));
  }
  parse_annotations(document, &request.request_id, &request.family);
  return request;
}

CloseRequest parse_close(const Value& document) {
  require_type(document, "close");
  CloseRequest request;
  request.session =
      require(document, "session", Value::Type::String, "request").string;
  parse_annotations(document, &request.request_id, nullptr);
  return request;
}

std::string extract_request_id_loose(std::string_view payload) {
  constexpr std::string_view kKey = "\"request_id\"";
  const std::size_t key_pos = payload.find(kKey);
  if (key_pos == std::string_view::npos) return {};
  std::size_t pos = key_pos + kKey.size();
  const auto skip_ws = [&] {
    while (pos < payload.size() &&
           (payload[pos] == ' ' || payload[pos] == '\t' ||
            payload[pos] == '\n' || payload[pos] == '\r')) {
      ++pos;
    }
  };
  skip_ws();
  if (pos >= payload.size() || payload[pos] != ':') return {};
  ++pos;
  skip_ws();
  if (pos >= payload.size() || payload[pos] != '"') return {};
  ++pos;
  std::string id;
  while (pos < payload.size() && payload[pos] != '"') {
    char c = payload[pos];
    if (c == '\\' && pos + 1 < payload.size()) {
      ++pos;
      switch (payload[pos]) {
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        default: c = payload[pos];
      }
    }
    id.push_back(c);
    ++pos;
  }
  if (pos >= payload.size()) return {};  // unterminated string
  return id;
}

std::string serialize_schedule(const sched::Schedule& schedule) {
  std::string out = "{\"strategy\":";
  append_json_string(out, schedule.strategy);
  out += ",\"total_cores\":" + std::to_string(schedule.total_cores());
  out += ",\"makespan\":";
  append_json_double(out, schedule.makespan());
  out += ",\"allocation\":";
  append_int_array(out, schedule.allocation);
  out += ",\"contraction\":[";
  const core::ChainContraction& contraction = schedule.layered.contraction;
  for (std::size_t c = 0; c < contraction.members.size(); ++c) {
    if (c != 0) out += ',';
    append_int_array(out, contraction.members[c]);
  }
  out += "],\"slots\":[";
  for (std::size_t i = 0; i < schedule.gantt.slots.size(); ++i) {
    if (i != 0) out += ',';
    const sched::TaskSlot& slot = schedule.gantt.slots[i];
    out += "{\"cores\":";
    append_int_array(out, slot.cores);
    out += ",\"start\":";
    append_json_double(out, slot.start);
    out += ",\"finish\":";
    append_json_double(out, slot.finish);
    out += '}';
  }
  out += "],\"layers\":[";
  for (std::size_t l = 0; l < schedule.layered.layers.size(); ++l) {
    if (l != 0) out += ',';
    const sched::ScheduledLayer& layer = schedule.layered.layers[l];
    out += "{\"tasks\":";
    append_int_array(out, layer.tasks);
    out += ",\"group_sizes\":";
    append_int_array(out, layer.group_sizes);
    out += ",\"task_group\":";
    append_int_array(out, layer.task_group);
    out += ",\"predicted_time\":";
    append_json_double(out, layer.predicted_time);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ok_response(std::string_view schedule_json) {
  std::string out = "{\"ok\":true,\"schedule\":";
  out += schedule_json;
  out += '}';
  return out;
}

std::string ok_response(std::string_view schedule_json,
                        std::string_view certificate_hash) {
  std::string out = "{\"ok\":true,\"schedule\":";
  out += schedule_json;
  out += ",\"certificate_hash\":";
  append_json_string(out, certificate_hash);
  out += '}';
  return out;
}

std::string error_response(std::string_view code, std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":{\"code\":";
  append_json_string(out, code);
  out += ",\"message\":";
  append_json_string(out, message);
  out += "}}";
  return out;
}

std::string overload_response(std::string_view message,
                              std::uint64_t retry_after_ms) {
  std::string out = "{\"ok\":false,\"error\":{\"code\":";
  append_json_string(out, kErrOverloaded);
  out += ",\"message\":";
  append_json_string(out, message);
  out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  out += "}}";
  return out;
}

std::int64_t response_retry_after_ms(std::string_view payload) {
  try {
    const obs::json::Value document = obs::json::parse(payload);
    if (const obs::json::Value* error = document.find("error")) {
      if (const obs::json::Value* hint = error->find("retry_after_ms")) {
        if (hint->is_number()) return static_cast<std::int64_t>(hint->number);
      }
    }
  } catch (const std::runtime_error&) {
  }
  return -1;
}

std::string pong_response() { return "{\"ok\":true,\"pong\":true}"; }

std::string with_request_id(std::string_view response, std::string_view id) {
  constexpr std::string_view kOk = "{\"ok\":true";
  constexpr std::string_view kErr = "{\"ok\":false";
  std::size_t pos = 0;
  if (response.substr(0, kOk.size()) == kOk) {
    pos = kOk.size();
  } else if (response.substr(0, kErr.size()) == kErr) {
    pos = kErr.size();
  } else {
    return std::string(response);
  }
  std::string out(response.substr(0, pos));
  out += ",\"request_id\":";
  append_json_string(out, id);
  out += response.substr(pos);
  return out;
}

std::string metrics_response(std::string_view exposition) {
  std::string out = "{\"ok\":true,\"metrics\":";
  append_json_string(out, exposition);
  out += '}';
  return out;
}

std::string session_response(std::string_view session_id,
                             const sched::RepairStats& stats,
                             std::string_view schedule_json) {
  std::string out = "{\"ok\":true,\"session\":";
  append_json_string(out, session_id);
  out += ",\"incremental\":{\"total_layers\":" +
         std::to_string(stats.total_layers);
  out += ",\"layers_reused\":" + std::to_string(stats.layers_reused);
  out += ",\"layers_scheduled\":" + std::to_string(stats.layers_scheduled);
  out += ",\"settled_prefix\":" + std::to_string(stats.settled_prefix) + '}';
  // "schedule" must stay the LAST member: Client::response_schedule_json
  // slices from the "schedule" key to the closing brace of the response.
  out += ",\"schedule\":";
  out += schedule_json;
  out += '}';
  return out;
}

std::string close_response(std::string_view session_id) {
  std::string out = "{\"ok\":true,\"session\":";
  append_json_string(out, session_id);
  out += ",\"closed\":true}";
  return out;
}

std::string trace_response(std::string_view trace_object) {
  std::string out = "{\"ok\":true,\"trace\":";
  out += trace_object;
  out += '}';
  return out;
}

}  // namespace ptask::serve
