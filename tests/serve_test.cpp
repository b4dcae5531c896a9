// Tests for the scheduling service (ptask::serve): wire protocol framing
// and parsing, canonical schedule serialization, the single-flight schedule
// cache, the server's protocol error paths (one positive and one negative
// test per PTS00x code, mirroring the analyzer's PTA0xx convention), the
// differential oracle (served bytes == direct Pipeline run) across all five
// fuzz graph families, concurrent cache correctness, and a bounded
// fault-injecting soak.  The TSan CI preset re-runs this binary, so the
// concurrency tests double as race detectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ptask/analysis/certifier.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/prometheus.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/sched/batch.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/client.hpp"
#include "ptask/serve/protocol.hpp"
#include "ptask/serve/schedule_cache.hpp"
#include "ptask/serve/server.hpp"

namespace ptask::serve {
namespace {

/// A small deterministic request (two-task chain on a CHiC slice).
ScheduleRequest tiny_request(const std::string& scheduler = "layer") {
  ScheduleRequest request;
  request.scheduler = scheduler;
  request.total_cores = 8;
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 2;
  request.machine = spec;
  core::MTask a("a", 1.0e8);
  a.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                core::CommScope::Group, 4096, 2});
  const core::TaskId ia = request.graph.add_task(a);
  const core::TaskId ib = request.graph.add_task(core::MTask("b", 2.0e8));
  request.graph.add_edge(ia, ib);
  return request;
}

/// Request built from a fuzz instance.
ScheduleRequest fuzz_request(const fuzz::Instance& instance,
                             const std::string& scheduler) {
  ScheduleRequest request;
  request.scheduler = scheduler;
  request.total_cores = instance.total_cores;
  request.machine = instance.machine;
  request.graph = instance.graph;
  return request;
}

std::string direct_schedule_bytes(const ScheduleRequest& request) {
  const cost::CostModel cost{arch::Machine(request.machine)};
  const auto scheduler =
      sched::SchedulerRegistry::instance().make(request.scheduler, cost);
  return serialize_schedule(scheduler->run(request.graph, request.total_cores));
}

std::uint64_t error_counter(std::string_view code) {
  return obs::metrics().counter("serve.error." + std::string(code)).value();
}

/// Server + connected client fixture (ephemeral port, default options).
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.num_workers = 8;
    options.max_request_bytes = 1u << 20;
    server_ = std::make_unique<Server>(options);
    server_->start();
    client_.connect("127.0.0.1", server_->port());
  }

  void TearDown() override {
    client_.close();
    server_->stop();
  }

  std::unique_ptr<Server> server_;
  Client client_;
};

// ---- framing ----

TEST(ServeProtocol, FrameHeaderRoundTrips) {
  const std::string frame = encode_frame("hello");
  ASSERT_EQ(frame.size(), 9u);
  unsigned char header[4];
  std::copy(frame.begin(), frame.begin() + 4, header);
  EXPECT_EQ(decode_frame_length(header), 5u);
  EXPECT_EQ(frame.substr(4), "hello");

  const std::string big(300, 'x');
  const std::string big_frame = encode_frame(big);
  std::copy(big_frame.begin(), big_frame.begin() + 4, header);
  EXPECT_EQ(decode_frame_length(header), 300u);
}

// ---- request serialization / parsing ----

TEST(ServeProtocol, RequestRoundTripsCanonically) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 99ull}) {
    const fuzz::Instance instance = fuzz::random_instance(seed);
    const ScheduleRequest request = fuzz_request(instance, "layer");
    const std::string payload = serialize_request(request);
    const ScheduleRequest parsed = parse_request(payload);
    // Canonicality: re-serializing the parsed request reproduces the exact
    // bytes, so the cache key is stable across client and server.
    EXPECT_EQ(serialize_request(parsed), payload) << instance.name;
    EXPECT_EQ(parsed.graph.num_tasks(), request.graph.num_tasks());
    EXPECT_EQ(parsed.graph.num_edges(), request.graph.num_edges());
    EXPECT_EQ(parsed.total_cores, request.total_cores);
  }
}

TEST(ServeProtocol, MachineCoreProductIsBoundedLikeTotalCores) {
  // Each factor may be up to 2^20, but their product is capped at 2^24 (the
  // total_cores limit) and computed in 64 bits, so no factor combination
  // overflows MachineSpec::total_cores().
  const auto with_shape = [](int nodes, int procs, int cores) {
    ScheduleRequest request = tiny_request();
    request.machine.num_nodes = nodes;
    request.machine.procs_per_node = procs;
    request.machine.cores_per_proc = cores;
    return request;
  };
  const auto code_of = [](const std::string& payload) {
    try {
      (void)parse_request(payload);
    } catch (const ProtocolError& e) {
      return std::string(e.code());
    }
    return std::string("ok");
  };
  const ScheduleRequest at_limit = with_shape(1 << 10, 1 << 7, 1 << 7);
  EXPECT_EQ(parse_request(serialize_request(at_limit)).machine.total_cores(),
            1 << 24);
  EXPECT_EQ(code_of(serialize_request(with_shape(1 << 20, 1 << 4, 1))), "ok");
  EXPECT_EQ(code_of(serialize_request(with_shape((1 << 10) + 1, 1 << 7,
                                                 1 << 7))),
            kErrBadRequest);
  EXPECT_EQ(code_of(serialize_request(with_shape(1 << 20, 1 << 20, 1 << 20))),
            kErrBadRequest);
  EXPECT_EQ(code_of(serialize_request(with_shape(1 << 20, 1 << 11, 1))),
            kErrBadRequest);

  SubmitRequest submit;
  submit.total_cores = 8;
  submit.machine = with_shape(1 << 20, 1 << 20, 1 << 20).machine;
  submit.graph = tiny_request().graph;
  try {
    (void)parse_submit(obs::json::parse(serialize_submit(submit)));
    ADD_FAILURE() << "oversized machine accepted by parse_submit";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest);
  }
}

TEST(ServeProtocol, RequestPreservesTaskContentExactly) {
  const ScheduleRequest request = tiny_request();
  const ScheduleRequest parsed = parse_request(serialize_request(request));
  const core::MTask& a = parsed.graph.task(0);
  EXPECT_EQ(a.name(), "a");
  EXPECT_EQ(a.work_flop(), 1.0e8);  // bit-exact, not approximate
  ASSERT_EQ(a.comms().size(), 1u);
  EXPECT_EQ(a.comms()[0].kind, core::CollectiveKind::Allgather);
  EXPECT_EQ(a.comms()[0].scope, core::CommScope::Group);
  EXPECT_EQ(a.comms()[0].data_bytes, 4096u);
  EXPECT_EQ(a.comms()[0].repeat, 2);
}

TEST(ServeProtocol, NearCollisionRequestsGetDistinctKeys) {
  // Same shape, one weight differs by one part in 2^52: the canonical keys
  // must differ (the schedule cache can never alias them).
  ScheduleRequest a = tiny_request();
  ScheduleRequest b = tiny_request();
  const double work = b.graph.task(0).work_flop();
  b.graph.task(0).set_work_flop(
      std::nextafter(work, 2.0 * work));
  EXPECT_NE(canonical_key(a), canonical_key(b));
}

/// Every schedulable field of a one-comm, three-task request, so that a
/// test can change exactly one of them.
struct KeyFields {
  std::string scheduler = "layer";
  int total_cores = 8;
  bool certify = false;
  arch::MachineSpec machine = tiny_request().machine;
  std::string task_name = "a";
  double work = 1.0e8;
  int max_cores = 4;
  bool marker = false;
  core::CollectiveOp comm{core::CollectiveKind::Allgather,
                          core::CommScope::Group, 4096, 2};
  std::pair<core::TaskId, core::TaskId> edge{0, 1};
};

ScheduleRequest request_from(const KeyFields& fields) {
  ScheduleRequest request;
  request.scheduler = fields.scheduler;
  request.total_cores = fields.total_cores;
  request.certify = fields.certify;
  request.machine = fields.machine;
  core::MTask task(fields.task_name, fields.work);
  task.set_max_cores(fields.max_cores);
  task.set_marker(fields.marker);
  task.add_comm(fields.comm);
  request.graph.add_task(task);
  request.graph.add_task(core::MTask("b", 2.0e8));
  request.graph.add_task(core::MTask("c", 3.0e8));
  request.graph.add_edge(fields.edge.first, fields.edge.second);
  return request;
}

TEST(ServeProtocol, EverySchedulableFieldChangesTheCanonicalKey) {
  // A key that forgot a field would serve one request's schedule for
  // another.  Each row changes one field by one step (doubles by one ULP);
  // `batch` marks the fields of the batching-compatibility prefix.
  const auto up = [](double& value) {
    value = std::nextafter(value, std::numeric_limits<double>::infinity());
  };
  struct Row {
    const char* field;
    bool batch;
    std::function<void(KeyFields&)> change;
  };
  const std::vector<Row> rows = {
      {"scheduler", true, [](KeyFields& f) { f.scheduler = "cpa"; }},
      {"total_cores", true, [](KeyFields& f) { ++f.total_cores; }},
      {"certify", true, [](KeyFields& f) { f.certify = true; }},
      {"machine.name", true, [](KeyFields& f) { f.machine.name += 'x'; }},
      {"machine.num_nodes", true, [](KeyFields& f) { ++f.machine.num_nodes; }},
      {"machine.procs_per_node", true,
       [](KeyFields& f) { ++f.machine.procs_per_node; }},
      {"machine.cores_per_proc", true,
       [](KeyFields& f) { ++f.machine.cores_per_proc; }},
      {"machine.core_flops", true,
       [&](KeyFields& f) { up(f.machine.core_flops); }},
      {"machine.core_efficiency", true,
       [&](KeyFields& f) { up(f.machine.core_efficiency); }},
      {"machine.omp_region_overhead_s", true,
       [&](KeyFields& f) { up(f.machine.omp_region_overhead_s); }},
      {"intra_processor.latency_s", true,
       [&](KeyFields& f) { up(f.machine.intra_processor.latency_s); }},
      {"intra_processor.bandwidth_Bps", true,
       [&](KeyFields& f) { up(f.machine.intra_processor.bandwidth_Bps); }},
      {"intra_node.latency_s", true,
       [&](KeyFields& f) { up(f.machine.intra_node.latency_s); }},
      {"intra_node.bandwidth_Bps", true,
       [&](KeyFields& f) { up(f.machine.intra_node.bandwidth_Bps); }},
      {"inter_node.latency_s", true,
       [&](KeyFields& f) { up(f.machine.inter_node.latency_s); }},
      {"inter_node.bandwidth_Bps", true,
       [&](KeyFields& f) { up(f.machine.inter_node.bandwidth_Bps); }},
      {"task.name", false, [](KeyFields& f) { f.task_name = "b"; }},
      {"task.work", false, [&](KeyFields& f) { up(f.work); }},
      {"task.max_cores", false, [](KeyFields& f) { ++f.max_cores; }},
      {"task.marker", false, [](KeyFields& f) { f.marker = true; }},
      {"comm.kind", false,
       [](KeyFields& f) { f.comm.kind = core::CollectiveKind::Allreduce; }},
      {"comm.scope", false,
       [](KeyFields& f) { f.comm.scope = core::CommScope::Orthogonal; }},
      {"comm.bytes", false, [](KeyFields& f) { ++f.comm.data_bytes; }},
      {"comm.repeat", false, [](KeyFields& f) { ++f.comm.repeat; }},
      {"edge", false, [](KeyFields& f) { f.edge = {0, 2}; }},
  };
  std::size_t base_batch = 0;
  const std::string base = canonical_key(request_from({}), &base_batch);
  ASSERT_GT(base_batch, 0u);
  ASSERT_LT(base_batch, base.size());
  for (const Row& row : rows) {
    KeyFields fields;
    row.change(fields);
    std::size_t batch = 0;
    const std::string key = canonical_key(request_from(fields), &batch);
    EXPECT_NE(key, base) << row.field;
    const bool same_batch = batch == base_batch &&
                            key.compare(0, batch, base, 0, base_batch) == 0;
    EXPECT_EQ(same_batch, !row.batch) << row.field;
  }
  // The annotations never reach the key.
  ScheduleRequest annotated = request_from({});
  annotated.request_id = "cli-1";
  annotated.family = "layered";
  EXPECT_EQ(canonical_key(annotated), base);
}

TEST(ServeProtocol, ScheduleSerializationIsDeterministic) {
  const ScheduleRequest request = tiny_request("portfolio");
  const std::string first = direct_schedule_bytes(request);
  const std::string second = direct_schedule_bytes(request);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // And it parses as JSON with the documented members.
  const obs::json::Value document = obs::json::parse(first);
  ASSERT_TRUE(document.is_object());
  EXPECT_NE(document.find("strategy"), nullptr);
  EXPECT_NE(document.find("makespan"), nullptr);
  EXPECT_NE(document.find("slots"), nullptr);
  EXPECT_NE(document.find("contraction"), nullptr);
}

// ---- schedule cache ----

TEST(ScheduleCache, SingleFlightComputesOnce) {
  ScheduleCache cache;
  std::atomic<int> computations{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<ScheduleCache::Entry> results(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.get_or_compute("key", [&] {
        computations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return std::string("value");
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computations.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (const ScheduleCache::Entry& entry : results) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(*entry, "value");
  }
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.value_bytes(), 5u);
}

TEST(ScheduleCache, FailedComputationIsRetriable) {
  ScheduleCache cache;
  EXPECT_THROW(cache.get_or_compute(
                   "key", []() -> std::string { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The failure was not cached: the next call computes again and succeeds.
  const ScheduleCache::Entry entry =
      cache.get_or_compute("key", [] { return std::string("ok"); });
  EXPECT_EQ(*entry, "ok");
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ScheduleCache, DistinctKeysDistinctEntries) {
  ScheduleCache cache;
  const ScheduleCache::Entry a =
      cache.get_or_compute("a", [] { return std::string("A"); });
  const ScheduleCache::Entry b =
      cache.get_or_compute("b", [] { return std::string("B"); });
  EXPECT_NE(*a, *b);
  EXPECT_EQ(cache.entries(), 2u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  // Counters survive clear().
  EXPECT_EQ(cache.misses(), 2u);
}

// ---- protocol error paths (one positive + one negative per code) ----

TEST_F(ServeTest, Pts001MalformedJson) {
  const std::uint64_t before = error_counter(kErrMalformedJson);
  const std::string response = client_.call("{this is not json");
  EXPECT_FALSE(response_ok(response));
  EXPECT_EQ(response_error_code(response), kErrMalformedJson);
  EXPECT_EQ(error_counter(kErrMalformedJson), before + 1);
}

TEST(ServeRobustness, Pts001DeeplyNestedFrameLeavesTheDaemonServing) {
  // 2 MiB of '[' fits the default 4 MiB frame limit; an unbounded recursive
  // parse of it overflows the worker's stack.
  ServerOptions options;
  options.num_workers = 2;
  Server server(options);
  server.start();
  ASSERT_LT(2u << 20, options.max_request_bytes);
  Client client;
  client.connect("127.0.0.1", server.port());
  const std::uint64_t before = error_counter(kErrMalformedJson);
  const std::string response = client.call(std::string(2u << 20, '['));
  EXPECT_EQ(response_error_code(response), kErrMalformedJson);
  EXPECT_EQ(error_counter(kErrMalformedJson), before + 1);
  EXPECT_TRUE(response_ok(client.call("{\"type\":\"ping\"}")));
  server.stop();
}

TEST_F(ServeTest, Pts001NegativeValidJsonIsNotMalformed) {
  const std::uint64_t before = error_counter(kErrMalformedJson);
  const std::string response = client_.call(serialize_request(tiny_request()));
  EXPECT_TRUE(response_ok(response));
  EXPECT_EQ(error_counter(kErrMalformedJson), before);
}

TEST_F(ServeTest, Pts002BadRequestMissingFields) {
  const std::uint64_t before = error_counter(kErrBadRequest);
  const std::string response =
      client_.call("{\"scheduler\":\"layer\",\"total_cores\":4}");
  EXPECT_EQ(response_error_code(response), kErrBadRequest);
  EXPECT_EQ(error_counter(kErrBadRequest), before + 1);
}

TEST_F(ServeTest, Pts002BadRequestEdgeOutOfRange) {
  ScheduleRequest request = tiny_request();
  std::string payload = serialize_request(request);
  // Rewrite the edge list to point outside the task array.
  const std::string needle = "\"edges\":[[0,1]]";
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(), "\"edges\":[[0,9]]");
  EXPECT_EQ(response_error_code(client_.call(payload)), kErrBadRequest);
}

TEST_F(ServeTest, Pts002BadRequestCycle) {
  ScheduleRequest request = tiny_request();
  std::string payload = serialize_request(request);
  const std::string needle = "\"edges\":[[0,1]]";
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(), "\"edges\":[[0,1],[1,0]]");
  EXPECT_EQ(response_error_code(client_.call(payload)), kErrBadRequest);
}

TEST_F(ServeTest, Pts002NegativeCompleteRequestPasses) {
  const std::uint64_t before = error_counter(kErrBadRequest);
  EXPECT_TRUE(response_ok(client_.call(serialize_request(tiny_request()))));
  EXPECT_EQ(error_counter(kErrBadRequest), before);
}

TEST_F(ServeTest, Pts003UnknownScheduler) {
  const std::uint64_t before = error_counter(kErrUnknownScheduler);
  ScheduleRequest request = tiny_request();
  request.scheduler = "no-such-strategy";
  const std::string response = client_.call(serialize_request(request));
  EXPECT_EQ(response_error_code(response), kErrUnknownScheduler);
  EXPECT_EQ(error_counter(kErrUnknownScheduler), before + 1);
}

TEST_F(ServeTest, Pts003NegativeEveryRegisteredSchedulerIsAccepted) {
  for (const std::string& name : sched::SchedulerRegistry::instance().names()) {
    const std::string response =
        client_.call(serialize_request(tiny_request(name)));
    EXPECT_TRUE(response_ok(response)) << name << ": " << response;
  }
}

TEST_F(ServeTest, Pts004EmptyGraph) {
  const std::uint64_t before = error_counter(kErrEmptyGraph);
  ScheduleRequest request = tiny_request();
  request.graph = core::TaskGraph();
  const std::string response = client_.call(serialize_request(request));
  EXPECT_EQ(response_error_code(response), kErrEmptyGraph);
  EXPECT_EQ(error_counter(kErrEmptyGraph), before + 1);
}

TEST_F(ServeTest, Pts004NegativeSingleTaskGraphPasses) {
  ScheduleRequest request;
  request.scheduler = "layer";
  request.total_cores = 4;
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 1;
  request.machine = spec;
  request.graph.add_task(core::MTask("only", 1.0e7));
  EXPECT_TRUE(response_ok(client_.call(serialize_request(request))));
}

TEST_F(ServeTest, Pts005OversizedRequest) {
  const std::uint64_t before = error_counter(kErrTooLarge);
  // Header announcing 2 MiB on a server limited to 1 MiB: structured error,
  // then the server hangs up (no resynchronization inside the stream).
  const unsigned char header[4] = {0x00, 0x20, 0x00, 0x00};
  client_.send_raw(std::string_view(
      reinterpret_cast<const char*>(header), sizeof(header)));
  const std::optional<std::string> response = client_.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_error_code(*response), kErrTooLarge);
  EXPECT_EQ(error_counter(kErrTooLarge), before + 1);
  EXPECT_FALSE(client_.read_response().has_value());  // connection closed
}

TEST_F(ServeTest, Pts005NegativeFrameWithinLimitPasses) {
  const std::uint64_t before = error_counter(kErrTooLarge);
  EXPECT_TRUE(response_ok(client_.call(serialize_request(tiny_request()))));
  EXPECT_EQ(error_counter(kErrTooLarge), before);
}

TEST_F(ServeTest, TruncatedFrameNeverCrashesTheServer) {
  // Announce 64 bytes, deliver 10, hang up.  The server must treat it as a
  // disconnect and keep serving other connections.
  const unsigned char header[4] = {0x00, 0x00, 0x00, 0x40};
  client_.send_raw(std::string_view(
      reinterpret_cast<const char*>(header), sizeof(header)));
  client_.send_raw("0123456789");
  client_.close();
  Client fresh;
  fresh.connect("127.0.0.1", server_->port());
  EXPECT_TRUE(response_ok(fresh.call(serialize_request(tiny_request()))));
}

// ---- schedule cache: bounded LRU ----

TEST(ScheduleCache, LruCapEvictsTheLeastRecentlyUsedReadyEntry) {
  ScheduleCache cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  int computed_a = 0;
  int computed_b = 0;
  int computed_c = 0;
  const auto get = [&](const std::string& key, int& counter) {
    return cache.get_or_compute(key, [&] {
      ++counter;
      return "v-" + key;
    });
  };
  get("a", computed_a);
  get("b", computed_b);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  get("a", computed_a);  // touch: b becomes least recently used
  get("c", computed_c);  // over the cap: b is evicted
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  get("a", computed_a);
  EXPECT_EQ(computed_a, 1);  // a was touched, so it survived
  get("b", computed_b);
  EXPECT_EQ(computed_b, 2);  // b was evicted and had to be recomputed
}

TEST(ScheduleCache, UnboundedByDefaultNeverEvicts) {
  ScheduleCache cache;
  EXPECT_EQ(cache.max_entries(), 0u);
  for (int i = 0; i < 50; ++i) {
    cache.get_or_compute("key" + std::to_string(i),
                         [] { return std::string("v"); });
  }
  EXPECT_EQ(cache.entries(), 50u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ScheduleCache, EvictionPreservesSingleFlight) {
  // An in-flight computation must never be evicted (only completed entries
  // sit on the LRU list), so concurrent requesters still coalesce onto one
  // computation while the capped cache churns around them.
  ScheduleCache cache(1);
  std::atomic<int> computations{0};
  std::atomic<bool> started{false};
  constexpr int kThreads = 6;
  std::vector<ScheduleCache::Entry> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  threads.emplace_back([&] {
    results[0] = cache.get_or_compute("slow", [&] {
      computations.fetch_add(1);
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return std::string("slow-value");
    });
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {  // churn far past the cap of 1
    cache.get_or_compute("churn" + std::to_string(i),
                         [] { return std::string("x"); });
  }
  for (int t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          cache.get_or_compute("slow", [&] {
            computations.fetch_add(1);
            return std::string("slow-value");
          });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computations.load(), 1);
  for (const ScheduleCache::Entry& entry : results) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(*entry, "slow-value");
  }
  EXPECT_GE(cache.evictions(), 3u);
}

// ---- stats / ping ----

TEST_F(ServeTest, PingAndStatsRespond) {
  EXPECT_TRUE(response_ok(client_.call("{\"type\":\"ping\"}")));
  const std::string stats = client_.stats();
  EXPECT_TRUE(response_ok(stats));
  const obs::json::Value document = obs::json::parse(stats);
  const obs::json::Value* body = document.find("stats");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->find("requests"), nullptr);
  EXPECT_NE(body->find("cache"), nullptr);
  EXPECT_NE(body->find("latency_us"), nullptr);
  EXPECT_NE(body->find("in_flight"), nullptr);
}

// ---- cache semantics through the wire ----

TEST_F(ServeTest, RepeatedRequestIsServedFromCacheByteIdentically) {
  const std::string payload = serialize_request(tiny_request("portfolio"));
  const std::string first = client_.call(payload);
  ASSERT_TRUE(response_ok(first));
  EXPECT_EQ(server_->cache().misses(), 1u);
  const std::string second = client_.call(payload);
  // The cached schedule bytes are bit-identical; only the per-request
  // correlation ID (minted fresh per response) may differ.
  EXPECT_EQ(response_schedule_json(first), response_schedule_json(second));
  EXPECT_FALSE(response_schedule_json(first).empty());
  EXPECT_NE(response_request_id(first), response_request_id(second));
  EXPECT_EQ(server_->cache().hits(), 1u);
}

TEST_F(ServeTest, ReadyCacheHitsAreAnsweredWithoutTheQueue) {
  // A hit on a completed entry is answered on the reactor thread: the cache
  // counts it, the admission queue never sees it.
  const std::string payload = serialize_request(tiny_request("portfolio"));
  ASSERT_TRUE(response_ok(client_.call(payload)));  // the one miss
  obs::Counter& hits = obs::metrics().counter("serve.cache.hit");
  obs::Counter& enqueued = obs::metrics().counter("serve.queue.enqueued");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t enqueued_before = enqueued.value();
  constexpr std::uint64_t kRepeats = 25;
  for (std::uint64_t i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE(response_ok(client_.call(payload)));
  }
  EXPECT_EQ(hits.value(), hits_before + kRepeats);
  EXPECT_EQ(enqueued.value(), enqueued_before);
  EXPECT_EQ(server_->cache().hits(), kRepeats);
  EXPECT_EQ(server_->cache().misses(), 1u);
}

/// `response` with its "request_id" member removed.
std::string without_request_id(const std::string& response) {
  std::string id_member = ",\"request_id\":";
  append_json_string(id_member, response_request_id(response));
  std::string out = response;
  const std::size_t at = out.find(id_member);
  if (at != std::string::npos) out.erase(at, id_member.size());
  return out;
}

TEST_F(ServeTest, PipelinedHitsAreAnsweredInOrder) {
  // After one warm request, 5,000 identical hit frames arrive in a single
  // send.  The reactor answers buffered frames in a loop (no recursion per
  // frame), in order, each byte-identical modulo its minted request id.
  const std::string payload = serialize_request(tiny_request());
  const std::string warm = client_.call(payload);
  ASSERT_TRUE(response_ok(warm)) << warm;
  const std::string expected = without_request_id(warm);

  constexpr int kFrames = 5000;
  std::string burst;
  const std::string frame = encode_frame(payload);
  burst.reserve(frame.size() * kFrames);
  for (int i = 0; i < kFrames; ++i) burst += frame;
  // The responses flow back while the burst is still being written, so the
  // send runs on its own thread and this one reads.
  std::atomic<bool> sent{true};
  std::thread sender([&] {
    try {
      client_.send_raw(burst);
    } catch (const std::exception&) {
      sent = false;
    }
  });
  std::uint64_t last_sequence = 0;
  int matched = 0;
  for (int i = 0; i < kFrames; ++i) {
    const std::optional<std::string> response = client_.read_response();
    if (!response.has_value()) break;
    if (without_request_id(*response) == expected) ++matched;
    // Minted ids end in a process-wide sequence number: increasing
    // sequence numbers mean the responses came back in request order.
    const std::string id = response_request_id(*response);
    const std::uint64_t sequence =
        std::stoull(id.substr(id.find_last_of('-') + 1));
    EXPECT_GT(sequence, last_sequence) << "response " << i;
    last_sequence = sequence;
  }
  sender.join();
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(matched, kFrames);
  EXPECT_TRUE(response_ok(client_.call("{\"type\":\"ping\"}")));
}

TEST_F(ServeTest, ConcurrentIdenticalRequestsAtMostOneMiss) {
  // N threads submit the identical graph concurrently: every response must
  // carry byte-identical schedule bytes and the schedule is computed at
  // most once (single-flight cache).  The TSan CI preset re-runs this.
  const std::string payload = serialize_request(tiny_request("portfolio"));
  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      client.connect("127.0.0.1", server_->port());
      responses[static_cast<std::size_t>(t)] = client.call(payload);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& response : responses) {
    ASSERT_TRUE(response_ok(response));
    EXPECT_EQ(response_schedule_json(response),
              response_schedule_json(responses[0]));
  }
  EXPECT_FALSE(response_schedule_json(responses[0]).empty());
  EXPECT_EQ(server_->cache().misses(), 1u);
  EXPECT_EQ(server_->cache().hits(), static_cast<std::uint64_t>(kThreads - 1));
}

// ---- opt-in certification (PTS006, certificate_hash) ----

/// Registers a deliberately infeasible scheduler ("broken-cert-test"): every
/// task lands on core 0 over [0, 1), so precedence and occupancy are both
/// violated and the independent certifier must reject the result.
void register_broken_scheduler() {
  class BrokenScheduler final : public sched::Scheduler {
   public:
    std::string_view name() const override { return "broken-cert-test"; }
    sched::Schedule run(const core::TaskGraph& g,
                        int total_cores) const override {
      sched::Schedule s;
      s.strategy = std::string(name());
      s.layered.total_cores = total_cores;
      s.layered.contraction.contracted = g;
      for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
        s.layered.contraction.members.push_back({id});
        s.layered.contraction.representative.push_back(id);
      }
      s.gantt.total_cores = total_cores;
      s.gantt.slots.assign(static_cast<std::size_t>(g.num_tasks()),
                           sched::TaskSlot{{0}, 0.0, 1.0});
      s.gantt.makespan = 1.0;
      s.allocation.assign(static_cast<std::size_t>(g.num_tasks()), 1);
      return s;
    }
  };
  sched::SchedulerRegistry::instance().register_strategy(
      "broken-cert-test",
      [](const cost::CostModel&) { return std::make_unique<BrokenScheduler>(); });
}

TEST(ServeProtocol, CertifyFlagRoundTripsAndKeysTheCacheSeparately) {
  ScheduleRequest plain = tiny_request();
  ScheduleRequest certified = tiny_request();
  certified.certify = true;
  // "certify":true is emitted only when set, so legacy payloads stay stable.
  const std::string plain_payload = serialize_request(plain);
  const std::string certified_payload = serialize_request(certified);
  EXPECT_EQ(plain_payload.find("certify"), std::string::npos);
  EXPECT_NE(certified_payload.find("\"certify\":true"), std::string::npos);
  EXPECT_TRUE(parse_request(certified_payload).certify);
  EXPECT_FALSE(parse_request(plain_payload).certify);
  EXPECT_EQ(serialize_request(parse_request(certified_payload)),
            certified_payload);
  // Distinct canonical keys: a certified cache hit was certified at miss
  // time, never aliased with an unaudited entry.
  EXPECT_NE(canonical_key(plain), canonical_key(certified));
  EXPECT_FALSE(describe_error(kErrCertification).empty());
}

TEST_F(ServeTest, CertifiedResponseCarriesAMatchingCertificateHash) {
  ScheduleRequest request = tiny_request("layer");
  request.certify = true;
  const std::string response = client_.call(serialize_request(request));
  ASSERT_TRUE(response_ok(response)) << response;
  const std::string schedule_json = response_schedule_json(response);
  // The envelope slice stays byte-exact despite the certificate suffix.
  ScheduleRequest uncertified = tiny_request("layer");
  EXPECT_EQ(schedule_json, direct_schedule_bytes(uncertified));
  const std::string hash = response_certificate_hash(response);
  ASSERT_EQ(hash.size(), 18u) << hash;
  EXPECT_EQ(hash, analysis::hash_hex(analysis::fnv1a64(schedule_json)));
  // An uncertified response has no hash member.
  const std::string plain = client_.call(serialize_request(uncertified));
  EXPECT_TRUE(response_certificate_hash(plain).empty());
}

TEST_F(ServeTest, Pts006CertificationFailureIsNeverCached) {
  register_broken_scheduler();
  ScheduleRequest request = tiny_request("broken-cert-test");
  request.certify = true;
  const std::uint64_t before = error_counter(kErrCertification);
  const std::string response = client_.call(serialize_request(request));
  EXPECT_FALSE(response_ok(response));
  EXPECT_EQ(response_error_code(response), kErrCertification);
  EXPECT_EQ(error_counter(kErrCertification), before + 1);
  // The rejection is not cached: an identical retry re-certifies (and is
  // rejected again) instead of serving a poisoned entry.
  EXPECT_EQ(response_error_code(client_.call(serialize_request(request))),
            kErrCertification);
  EXPECT_EQ(error_counter(kErrCertification), before + 2);
}

TEST_F(ServeTest, Pts006NegativeCertificationIsStrictlyOptIn) {
  register_broken_scheduler();
  const std::uint64_t before = error_counter(kErrCertification);
  // Without "certify":true even an infeasible schedule is served (the
  // pre-certifier contract), so certification cannot break legacy clients.
  const std::string response =
      client_.call(serialize_request(tiny_request("broken-cert-test")));
  EXPECT_TRUE(response_ok(response)) << response;
  EXPECT_EQ(error_counter(kErrCertification), before);
}

TEST_F(ServeTest, Pts006NegativeEveryRealSchedulerCertifies) {
  const std::uint64_t before = error_counter(kErrCertification);
  for (const std::string& name : sched::SchedulerRegistry::instance().names()) {
    if (name == "broken-cert-test") continue;
    ScheduleRequest request = tiny_request(name);
    request.certify = true;
    const std::string response = client_.call(serialize_request(request));
    EXPECT_TRUE(response_ok(response)) << name << ": " << response;
    EXPECT_FALSE(response_certificate_hash(response).empty()) << name;
  }
  EXPECT_EQ(error_counter(kErrCertification), before);
}

// ---- request correlation (request IDs) ----

TEST_F(ServeTest, ClientRequestIdIsEchoedVerbatimOnSuccess) {
  ScheduleRequest request = tiny_request();
  request.request_id = "cli-ok-1";
  const std::string response = client_.call(serialize_request(request));
  ASSERT_TRUE(response_ok(response)) << response;
  EXPECT_EQ(response_request_id(response), "cli-ok-1");
}

TEST(ServeProtocol, AnnotationsAreExcludedFromTheCanonicalKey) {
  ScheduleRequest plain = tiny_request();
  ScheduleRequest annotated = tiny_request();
  annotated.request_id = "cli-key";
  annotated.family = "layered";
  // Same cache identity, different wire bytes: the annotations travel but
  // never alias or split cache entries.
  EXPECT_EQ(canonical_key(plain), canonical_key(annotated));
  EXPECT_NE(serialize_request(plain), serialize_request(annotated));
  // And they round-trip through parse_request.
  const ScheduleRequest parsed = parse_request(serialize_request(annotated));
  EXPECT_EQ(parsed.request_id, "cli-key");
  EXPECT_EQ(parsed.family, "layered");
  EXPECT_EQ(serialize_request(parsed), serialize_request(annotated));
}

TEST_F(ServeTest, RequestIdNeverSplitsTheCacheAndResponsesMatchModuloId) {
  ScheduleRequest a = tiny_request("portfolio");
  a.request_id = "cli-a";
  ScheduleRequest b = tiny_request("portfolio");
  b.request_id = "cli-b";
  const std::string ra = client_.call(serialize_request(a));
  const std::string rb = client_.call(serialize_request(b));
  ASSERT_TRUE(response_ok(ra));
  ASSERT_TRUE(response_ok(rb));
  // One miss, one hit: the distinct IDs did not split the cache key.
  EXPECT_EQ(server_->cache().misses(), 1u);
  EXPECT_EQ(server_->cache().hits(), 1u);
  EXPECT_EQ(response_request_id(ra), "cli-a");
  EXPECT_EQ(response_request_id(rb), "cli-b");
  // The responses are byte-identical modulo the ID member.
  std::string rb_as_a = rb;
  const std::string needle = "\"request_id\":\"cli-b\"";
  const std::size_t at = rb_as_a.find(needle);
  ASSERT_NE(at, std::string::npos);
  rb_as_a.replace(at, needle.size(), "\"request_id\":\"cli-a\"");
  EXPECT_EQ(ra, rb_as_a);
}

TEST_F(ServeTest, ClientRequestIdIsEchoedOnEveryErrorPath) {
  // PTS001: the payload never parses, but best-effort extraction still
  // recovers the ID for correlation.
  std::string response =
      client_.call("{\"request_id\":\"cli-e1\", this is not json");
  EXPECT_EQ(response_error_code(response), kErrMalformedJson);
  EXPECT_EQ(response_request_id(response), "cli-e1");

  // PTS002: valid JSON, incomplete request.
  response = client_.call(
      "{\"request_id\":\"cli-e2\",\"scheduler\":\"layer\",\"total_cores\":4}");
  EXPECT_EQ(response_error_code(response), kErrBadRequest);
  EXPECT_EQ(response_request_id(response), "cli-e2");

  // PTS003: unknown scheduler.
  ScheduleRequest unknown = tiny_request("no-such-strategy");
  unknown.request_id = "cli-e3";
  response = client_.call(serialize_request(unknown));
  EXPECT_EQ(response_error_code(response), kErrUnknownScheduler);
  EXPECT_EQ(response_request_id(response), "cli-e3");

  // PTS004: empty graph.
  ScheduleRequest empty = tiny_request();
  empty.graph = core::TaskGraph();
  empty.request_id = "cli-e4";
  response = client_.call(serialize_request(empty));
  EXPECT_EQ(response_error_code(response), kErrEmptyGraph);
  EXPECT_EQ(response_request_id(response), "cli-e4");

  // PTS006: certification failure.
  register_broken_scheduler();
  ScheduleRequest broken = tiny_request("broken-cert-test");
  broken.certify = true;
  broken.request_id = "cli-e6";
  response = client_.call(serialize_request(broken));
  EXPECT_EQ(response_error_code(response), kErrCertification);
  EXPECT_EQ(response_request_id(response), "cli-e6");
}

TEST_F(ServeTest, Pts005ResponseCarriesAMintedRequestId) {
  // The oversized frame's payload is never read, so the client ID cannot be
  // echoed -- the documented exception; the error still carries a minted ID.
  const unsigned char header[4] = {0x00, 0x20, 0x00, 0x00};
  client_.send_raw(std::string_view(
      reinterpret_cast<const char*>(header), sizeof(header)));
  const std::optional<std::string> response = client_.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_error_code(*response), kErrTooLarge);
  const std::string id = response_request_id(*response);
  EXPECT_EQ(id.rfind("s-", 0), 0u) << "not a minted ID: " << id;
}

TEST_F(ServeTest, MintedRequestIdsAreUniqueAcrossAConcurrentBurst) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  const std::string payload = serialize_request(tiny_request());
  std::vector<std::vector<std::string>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      client.connect("127.0.0.1", server_->port());
      for (int i = 0; i < kPerThread; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(
            response_request_id(client.call(payload)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> unique;
  for (const std::vector<std::string>& thread_ids : ids) {
    for (const std::string& id : thread_ids) {
      ASSERT_FALSE(id.empty());
      EXPECT_EQ(id.rfind("s-", 0), 0u) << id;
      unique.insert(id);
    }
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// ---- stats payload round-trip (hostile metric names, histogram buckets) ----

TEST_F(ServeTest, StatsEscapesMetricNamesAndEmitsHistogramBuckets) {
  // Metric names containing JSON-hostile characters must not break the
  // stats payload.
  const std::string weird_counter = "serve.test.\"quoted\\name\"";
  const std::string weird_histogram = "serve.test.\"quoted\\histo\"";
  obs::metrics().counter(weird_counter).add();
  obs::metrics().histogram(weird_histogram).observe(7);
  ASSERT_TRUE(response_ok(client_.call(serialize_request(tiny_request()))));

  const std::string stats = client_.stats();
  const obs::json::Value document = obs::json::parse(stats);  // must not throw
  const obs::json::Value* body = document.find("stats");
  ASSERT_NE(body, nullptr);
  const obs::json::Value* counters = body->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find(weird_counter), nullptr);
  const obs::json::Value* histograms = body->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::json::Value* weird = histograms->find(weird_histogram);
  ASSERT_NE(weird, nullptr);
  // Histograms carry count, percentile estimates, and the log-bucket
  // boundaries as [upper_bound, count] pairs.
  ASSERT_NE(weird->find("count"), nullptr);
  EXPECT_GE(weird->find("count")->number, 1.0);
  EXPECT_NE(weird->find("p50"), nullptr);
  EXPECT_NE(weird->find("p99"), nullptr);
  const obs::json::Value* buckets = weird->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  ASSERT_FALSE(buckets->array.empty());
  // 7 lands in bucket [4, 8) whose inclusive upper bound is 7.
  EXPECT_EQ(buckets->array[0].array[0].number, 7.0);
  EXPECT_EQ(buckets->array[0].array[1].number, 1.0);
  // The headline latency summary has the same shape.
  const obs::json::Value* latency = body->find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_NE(latency->find("p50"), nullptr);
  EXPECT_NE(latency->find("buckets"), nullptr);
}

// ---- metrics endpoint (Prometheus exposition) ----

TEST_F(ServeTest, MetricsEndpointServesAConsistentExposition) {
  const std::string payload = serialize_request(tiny_request("portfolio"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(response_ok(client_.call(payload)));
  }
  const std::string response = client_.metrics();
  ASSERT_TRUE(response_ok(response));
  EXPECT_FALSE(response_request_id(response).empty());
  const std::string exposition = response_metrics_text(response);
  ASSERT_FALSE(exposition.empty());

  const obs::PromHistogram latency = obs::parse_prometheus_histogram(
      exposition, "ptask_serve_latency_us");
  ASSERT_TRUE(latency.found);
  EXPECT_GE(latency.count, 3u);  // registry is process-global: >=, not ==
  ASSERT_FALSE(latency.buckets.empty());
  // Cumulative buckets: bounds strictly increasing, counts monotone
  // non-decreasing, terminated by +Inf == _count.
  for (std::size_t i = 1; i < latency.buckets.size(); ++i) {
    EXPECT_GT(latency.buckets[i].first, latency.buckets[i - 1].first);
    EXPECT_GE(latency.buckets[i].second, latency.buckets[i - 1].second);
  }
  EXPECT_TRUE(std::isinf(latency.buckets.back().first));
  EXPECT_EQ(latency.buckets.back().second, latency.count);

  // Phase histograms sum consistently with the request latency: every
  // latency observation passed through the parse and cache phases (both
  // also observe on error paths, hence >=).
  const obs::PromHistogram parse = obs::parse_prometheus_histogram(
      exposition, "ptask_serve_phase_parse_us");
  const obs::PromHistogram cache = obs::parse_prometheus_histogram(
      exposition, "ptask_serve_phase_cache_us");
  ASSERT_TRUE(parse.found);
  ASSERT_TRUE(cache.found);
  EXPECT_GE(parse.count, latency.count);
  EXPECT_GE(cache.count, latency.count);

  // Exposition percentiles are monotone in q (same log-bucket estimator as
  // Histogram::percentile).
  const double p50 = obs::prometheus_percentile(latency, 0.5);
  const double p99 = obs::prometheus_percentile(latency, 0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p99, 0.0);

  // Per-strategy breakdown exists for the strategy we used.
  EXPECT_NE(exposition.find("ptask_serve_strategy_portfolio_requests_total"),
            std::string::npos);
}

// ---- slow-request log ----

TEST(ServeSlowLog, ThresholdGatedStructuredLogCapturesSlowRequests) {
  const std::string path =
      ::testing::TempDir() + "ptask_slow_log_test.jsonl";
  std::remove(path.c_str());
  ServerOptions options;
  options.slow_threshold_us = 1;  // effectively everything is slow
  options.slow_log_path = path;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  ScheduleRequest request = tiny_request();
  request.request_id = "slow-1";
  ASSERT_TRUE(response_ok(client.call(serialize_request(request))));
  server.stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::string line;
  bool saw_slow_request = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const obs::json::Value entry = obs::json::parse(line);  // JSON lines
    ASSERT_TRUE(entry.is_object());
    ASSERT_NE(entry.find("request_id"), nullptr);
    ASSERT_NE(entry.find("total_us"), nullptr);
    ASSERT_NE(entry.find("phases"), nullptr);
    ASSERT_NE(entry.find("cache"), nullptr);
    if (entry.find("request_id")->string != "slow-1") continue;
    saw_slow_request = true;
    EXPECT_EQ(entry.find("kind")->string, "schedule");
    EXPECT_EQ(entry.find("scheduler")->string, "layer");
    EXPECT_EQ(entry.find("cache")->string, "miss");
    EXPECT_TRUE(entry.find("error")->is_null());
    EXPECT_GT(entry.find("total_us")->number, 0.0);
    const obs::json::Value* phases = entry.find("phases");
    EXPECT_NE(phases->find("parse_us"), nullptr);
    EXPECT_NE(phases->find("schedule_us"), nullptr);
  }
  EXPECT_TRUE(saw_slow_request);
  std::remove(path.c_str());
}

TEST(ServeSlowLog, RequestsUnderTheThresholdAreNotLogged) {
  const std::string path =
      ::testing::TempDir() + "ptask_slow_log_quiet_test.jsonl";
  std::remove(path.c_str());
  ServerOptions options;
  options.slow_threshold_us = 60'000'000;  // one minute: nothing qualifies
  options.slow_log_path = path;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(response_ok(client.call(serialize_request(tiny_request()))));
  server.stop();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;  // the file exists (truncated at start)
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_TRUE(line.empty()) << "unexpected slow-log entry: " << line;
  }
  std::remove(path.c_str());
}

// ---- live trace endpoint ----

TEST(ServeTraceEndpoint, LiveTraceCarriesPerRequestSpanTrees) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PTASK_OBS=OFF)";
  }
  obs::tracer().set_enabled(true);
  obs::tracer().take();  // drop spans accumulated by earlier tests
  Server server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  ScheduleRequest request = tiny_request();
  request.request_id = "trace-me";
  ASSERT_TRUE(response_ok(client.call(serialize_request(request))));
  const std::string response = client.trace();
  obs::tracer().set_enabled(false);
  ASSERT_TRUE(response_ok(response));
  const std::string trace_json = response_trace_json(response);
  ASSERT_FALSE(trace_json.empty());
  const obs::json::Value document = obs::json::parse(trace_json);
  EXPECT_TRUE(document.is_object());
  // The request's span tree: a root named after the request ID plus the
  // phase spans recorded on the same worker track.
  EXPECT_NE(trace_json.find("serve.request trace-me"), std::string::npos);
  EXPECT_NE(trace_json.find("serve.recv"), std::string::npos);
  EXPECT_NE(trace_json.find("serve.parse"), std::string::npos);
  EXPECT_NE(trace_json.find("serve.cache.lookup"), std::string::npos);
  EXPECT_NE(trace_json.find("serve.schedule[layer]"), std::string::npos);
  EXPECT_NE(trace_json.find("serve.serialize"), std::string::npos);
  server.stop();
}

TEST(ServeOptions, CacheMaxEntriesBoundsTheServerCache) {
  ServerOptions options;
  options.cache_max_entries = 1;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const std::string first = serialize_request(tiny_request("layer"));
  const std::string second = serialize_request(tiny_request("cpa"));
  ASSERT_TRUE(response_ok(client.call(first)));
  ASSERT_TRUE(response_ok(client.call(second)));  // evicts the first entry
  EXPECT_EQ(server.cache().entries(), 1u);
  EXPECT_EQ(server.cache().evictions(), 1u);
  const std::uint64_t misses_before = server.cache().misses();
  ASSERT_TRUE(response_ok(client.call(first)));  // recomputed, not a hit
  EXPECT_EQ(server.cache().misses(), misses_before + 1);
  // The stats response reports the bound and the eviction count.
  const obs::json::Value document = obs::json::parse(client.stats());
  const obs::json::Value* cache = document.find("stats")->find("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(cache->find("evictions"), nullptr);
  EXPECT_EQ(cache->find("evictions")->number, 2.0);
  ASSERT_NE(cache->find("max_entries"), nullptr);
  EXPECT_EQ(cache->find("max_entries")->number, 1.0);
  server.stop();
}

// ---- differential oracle across the five fuzz families ----

TEST_F(ServeTest, ServedSchedulesMatchDirectPipelineRunsAcrossFamilies) {
  // For every graph family, find a couple of instances and require the
  // served schedule bytes to equal a direct in-process run of the same
  // strategy -- the end-to-end bit-identity contract of the service.
  std::map<fuzz::GraphFamily, int> covered;
  std::uint64_t seed = 1;
  const int per_family = 2;
  while (covered.size() < 5u ||
         std::any_of(covered.begin(), covered.end(),
                     [&](const auto& kv) { return kv.second < per_family; })) {
    const fuzz::Instance instance = fuzz::random_instance(seed++);
    if (covered[instance.family] >= per_family) continue;
    if (instance.graph.num_tasks() > 300) continue;  // keep the test quick
    ++covered[instance.family];
    for (const std::string scheduler : {"layer", "portfolio"}) {
      const ScheduleRequest request = fuzz_request(instance, scheduler);
      const std::string response = client_.call(serialize_request(request));
      ASSERT_TRUE(response_ok(response))
          << instance.name << " via " << scheduler << ": " << response;
      EXPECT_EQ(response_schedule_json(response),
                direct_schedule_bytes(request))
          << instance.name << " via " << scheduler;
    }
  }
}

// ---- graceful shutdown ----

TEST(ServeShutdown, StopDrainsAndJoinsWithOpenConnections) {
  Server server;
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  // A served request, then the connection stays open while we stop.
  ASSERT_TRUE(response_ok(client.call(serialize_request(tiny_request()))));
  server.stop();  // must not hang on the idle open connection
  EXPECT_FALSE(server.running());
  // And the socket is really gone: a new connect must fail.
  Client again;
  EXPECT_THROW(again.connect("127.0.0.1", server.port()), std::runtime_error);
}

TEST(ServeShutdown, StartStopStartWorks) {
  Server server;
  server.start();
  const int first_port = server.port();
  server.stop();
  server.start();
  EXPECT_GT(server.port(), 0);
  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_TRUE(response_ok(client.call("{\"type\":\"ping\"}")));
  server.stop();
  (void)first_port;
}

// ---- bounded soak with protocol fault injection ----

TEST(ServeSoak, FaultInjectedSoakNeverCrashesOrServesStaleBytes) {
  // A scaled-down in-process version of the loadgen soak (the 10k-request
  // run lives in the serve_loadgen_smoke CTest entry and the CI smoke job):
  // a mixed stream of valid repeat-heavy traffic and protocol garbage, with
  // every valid response checked for byte-stability against the first
  // response for that instance -- a stale or aliased cache entry fails here.
  ServerOptions options;
  options.max_request_bytes = 1u << 20;
  options.num_workers = 4;
  Server server(options);
  server.start();

  // Unique pool: 12 instances across families, repeat-heavy traffic.
  std::vector<std::string> payloads;
  std::uint64_t seed = 101;
  while (payloads.size() < 12u) {
    const fuzz::Instance instance = fuzz::random_instance(seed++);
    if (instance.graph.num_tasks() > 150) continue;
    payloads.push_back(
        serialize_request(fuzz_request(instance, "layer")));
  }

  const char* env_requests = std::getenv("PTASK_SERVE_SOAK_REQUESTS");
  const int total_requests =
      env_requests != nullptr ? std::atoi(env_requests) : 600;
  constexpr int kThreads = 4;
  std::vector<std::string> first_response(payloads.size());
  std::mutex first_mutex;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      fuzz::Rng rng(0xabcdef * static_cast<std::uint64_t>(t + 1));
      Client client;
      client.connect("127.0.0.1", server.port());
      for (int i = 0; i < total_requests / kThreads; ++i) {
        try {
          if (rng.chance(0.1)) {
            // Garbage traffic: malformed JSON or a truncated frame.
            if (rng.chance(0.5)) {
              const std::string response = client.call("{broken");
              if (response_error_code(response) != kErrMalformedJson) {
                failures.fetch_add(1);
              }
            } else {
              const unsigned char header[4] = {0x00, 0x00, 0x01, 0x00};
              client.send_raw(std::string_view(
                  reinterpret_cast<const char*>(header), sizeof(header)));
              client.send_raw("short");
              client.connect("127.0.0.1", server.port());
            }
            continue;
          }
          const std::size_t index = static_cast<std::size_t>(
              rng.uniform(0, static_cast<int>(payloads.size()) - 1));
          const std::string response = client.call(payloads[index]);
          if (!response_ok(response)) {
            failures.fetch_add(1);
            continue;
          }
          // Byte-stability modulo the per-response correlation ID: compare
          // the schedule bytes, not the envelope.
          const std::string schedule = response_schedule_json(response);
          const std::lock_guard<std::mutex> lock(first_mutex);
          std::string& expected = first_response[index];
          if (expected.empty()) {
            expected = schedule;
          } else if (expected != schedule) {
            failures.fetch_add(1);  // stale or aliased cache entry
          }
        } catch (const std::exception&) {
          // Connection hiccup: reconnect and continue the soak.
          try {
            client.connect("127.0.0.1", server.port());
          } catch (const std::exception&) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // Repeat-heavy mix over 12 unique instances: the cache hit rate must
  // clear the service-contract floor by a wide margin.
  const std::uint64_t hits = server.cache().hits();
  const std::uint64_t misses = server.cache().misses();
  ASSERT_GT(hits + misses, 0u);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.5);
  EXPECT_LE(misses, payloads.size());
  server.stop();
}

// ---- incremental sessions (submit / extend / close) ----

/// Submit request seeded from an arrival stream's initial batch.
SubmitRequest submit_from(const fuzz::ArrivalStream& stream) {
  SubmitRequest request;
  request.total_cores = stream.instance.total_cores;
  request.machine = stream.instance.machine;
  request.graph = stream.initial;
  request.release_time = stream.initial_release;
  return request;
}

/// The "session" member of a session response ("" when absent).
std::string session_id_of(std::string_view response) {
  const obs::json::Value document = obs::json::parse(response);
  if (const obs::json::Value* session = document.find("session")) {
    if (session->is_string()) return session->string;
  }
  return {};
}

TEST(ServeProtocol, SessionRequestsRoundTrip) {
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(5, 3);
  SubmitRequest submit = submit_from(stream);
  submit.request_id = "req-1";
  submit.family = "layered";
  const SubmitRequest parsed =
      parse_submit(obs::json::parse(serialize_submit(submit)));
  EXPECT_EQ(parsed.total_cores, submit.total_cores);
  EXPECT_EQ(parsed.graph.num_tasks(), submit.graph.num_tasks());
  EXPECT_EQ(parsed.graph.num_edges(), submit.graph.num_edges());
  EXPECT_EQ(parsed.release_time, submit.release_time);
  EXPECT_EQ(parsed.request_id, "req-1");
  EXPECT_EQ(parsed.family, "layered");

  ASSERT_FALSE(stream.deltas.empty());
  ExtendRequest extend;
  extend.session = "sess-x";
  extend.delta = stream.deltas.front();
  extend.request_id = "req-2";
  const ExtendRequest extend_parsed =
      parse_extend(obs::json::parse(serialize_extend(extend)));
  EXPECT_EQ(extend_parsed.session, "sess-x");
  EXPECT_EQ(extend_parsed.request_id, "req-2");
  EXPECT_EQ(extend_parsed.delta.release_time, extend.delta.release_time);
  EXPECT_EQ(extend_parsed.delta.edges, extend.delta.edges);
  ASSERT_EQ(extend_parsed.delta.tasks.size(), extend.delta.tasks.size());
  for (std::size_t i = 0; i < extend.delta.tasks.size(); ++i) {
    const sched::ArrivingTask& sent = extend.delta.tasks[i];
    const sched::ArrivingTask& got = extend_parsed.delta.tasks[i];
    EXPECT_EQ(got.task.name(), sent.task.name());
    EXPECT_EQ(got.task.work_flop(), sent.task.work_flop());
    EXPECT_EQ(got.release_time, sent.release_time);
    EXPECT_EQ(got.priority, sent.priority);
  }

  CloseRequest close;
  close.session = "sess-x";
  close.request_id = "req-3";
  const CloseRequest close_parsed =
      parse_close(obs::json::parse(serialize_close(close)));
  EXPECT_EQ(close_parsed.session, "sess-x");
  EXPECT_EQ(close_parsed.request_id, "req-3");
}

TEST_F(ServeTest, SessionLifecycleMatchesADirectIncrementalRun) {
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(7, 4);
  const cost::CostModel cost{arch::Machine(stream.instance.machine)};
  sched::IncrementalScheduler direct(cost);
  direct.reset(stream.initial, stream.instance.total_cores,
               stream.initial_release);

  const std::string submitted =
      client_.call(serialize_submit(submit_from(stream)));
  ASSERT_TRUE(response_ok(submitted));
  const std::string session = session_id_of(submitted);
  ASSERT_FALSE(session.empty());
  EXPECT_EQ(response_schedule_json(submitted),
            serialize_schedule(direct.current()));
  // The repair stats ride along in the response envelope.
  const obs::json::Value document = obs::json::parse(submitted);
  const obs::json::Value* stats = document.find("incremental");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->find("total_layers"), nullptr);
  EXPECT_EQ(stats->find("settled_prefix")->number, 0.0);

  for (const sched::GraphDelta& delta : stream.deltas) {
    ExtendRequest extend;
    extend.session = session;
    extend.delta = delta;
    const std::string response = client_.call(serialize_extend(extend));
    ASSERT_TRUE(response_ok(response));
    EXPECT_EQ(response_schedule_json(response),
              serialize_schedule(direct.extend(delta)));
  }
  // The session converged on the one-shot schedule of the whole graph.
  EXPECT_EQ(serialize_schedule(direct.current()),
            serialize_schedule(direct.run(fuzz::materialize(stream),
                                          stream.instance.total_cores)));

  EXPECT_EQ(server_->num_sessions(), 1u);
  CloseRequest close;
  close.session = session;
  const std::string closed = client_.call(serialize_close(close));
  EXPECT_TRUE(response_ok(closed));
  EXPECT_EQ(server_->num_sessions(), 0u);

  // The closed session id is gone: further traffic on it is PTS007.
  ExtendRequest stale;
  stale.session = session;
  stale.delta.release_time = 1.0e9;
  EXPECT_EQ(response_error_code(client_.call(serialize_extend(stale))),
            kErrSession);
}

TEST_F(ServeTest, Pts007UnknownSession) {
  ExtendRequest extend;
  extend.session = "sess-no-such";
  const std::string response = client_.call(serialize_extend(extend));
  EXPECT_EQ(response_error_code(response), kErrSession);

  CloseRequest close;
  close.session = "sess-no-such";
  EXPECT_EQ(response_error_code(client_.call(serialize_close(close))),
            kErrSession);
}

TEST_F(ServeTest, Pts007InvalidDeltaLeavesTheSessionUsable) {
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(11, 3);
  ASSERT_FALSE(stream.deltas.empty());
  const std::string submitted =
      client_.call(serialize_submit(submit_from(stream)));
  ASSERT_TRUE(response_ok(submitted));
  const std::string session = session_id_of(submitted);

  // An edge to a task id the session has never seen: parses fine (edge
  // semantics are checked against the accumulated graph), then the repair
  // rejects it as PTS007 without touching session state.
  ExtendRequest bogus;
  bogus.session = session;
  bogus.delta.release_time = stream.deltas.front().release_time;
  bogus.delta.edges.emplace_back(0, 999999);
  EXPECT_EQ(response_error_code(client_.call(serialize_extend(bogus))),
            kErrSession);

  // The untouched session still replays the valid stream bit-identically.
  const cost::CostModel cost{arch::Machine(stream.instance.machine)};
  sched::IncrementalScheduler direct(cost);
  direct.reset(stream.initial, stream.instance.total_cores,
               stream.initial_release);
  for (const sched::GraphDelta& delta : stream.deltas) {
    ExtendRequest extend;
    extend.session = session;
    extend.delta = delta;
    const std::string response = client_.call(serialize_extend(extend));
    ASSERT_TRUE(response_ok(response));
    EXPECT_EQ(response_schedule_json(response),
              serialize_schedule(direct.extend(delta)));
  }
}

TEST(ServeSessions, Pts007WhenTheSessionCapIsReached) {
  ServerOptions options;
  options.max_sessions = 2;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(3, 2);

  const std::string first = client.call(serialize_submit(submit_from(stream)));
  const std::string second =
      client.call(serialize_submit(submit_from(stream)));
  ASSERT_TRUE(response_ok(first));
  ASSERT_TRUE(response_ok(second));
  EXPECT_EQ(server.num_sessions(), 2u);

  const std::string third = client.call(serialize_submit(submit_from(stream)));
  EXPECT_EQ(response_error_code(third), kErrSession);
  EXPECT_EQ(server.num_sessions(), 2u);

  // Closing a session frees its slot.
  CloseRequest close;
  close.session = session_id_of(first);
  ASSERT_TRUE(response_ok(client.call(serialize_close(close))));
  EXPECT_TRUE(response_ok(client.call(serialize_submit(submit_from(stream)))));
  server.stop();
}

TEST_F(ServeTest, SessionTrafficNeverTouchesTheScheduleCache) {
  const std::uint64_t hits = server_->cache().hits();
  const std::uint64_t misses = server_->cache().misses();
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(13, 3);

  const std::string submitted =
      client_.call(serialize_submit(submit_from(stream)));
  ASSERT_TRUE(response_ok(submitted));
  const std::string session = session_id_of(submitted);
  for (const sched::GraphDelta& delta : stream.deltas) {
    ExtendRequest extend;
    extend.session = session;
    extend.delta = delta;
    ASSERT_TRUE(response_ok(client_.call(serialize_extend(extend))));
  }
  CloseRequest close;
  close.session = session;
  ASSERT_TRUE(response_ok(client_.call(serialize_close(close))));

  // Session responses are never cached (they depend on mutable session
  // state), so the whole-schedule cache saw zero traffic.
  EXPECT_EQ(server_->cache().hits(), hits);
  EXPECT_EQ(server_->cache().misses(), misses);
  EXPECT_EQ(server_->cache().entries(), 0u);
}

TEST_F(ServeTest, SessionGaugeAndCountersAreExposed) {
  const std::uint64_t submits_before =
      obs::metrics().counter("serve.incremental.submits").value();
  const fuzz::ArrivalStream stream = fuzz::arrival_stream(17, 2);
  const std::string submitted =
      client_.call(serialize_submit(submit_from(stream)));
  ASSERT_TRUE(response_ok(submitted));

  const obs::json::Value stats = obs::json::parse(client_.stats());
  const obs::json::Value* body = stats.find("stats");
  ASSERT_NE(body, nullptr);
  ASSERT_NE(body->find("sessions"), nullptr);
  EXPECT_EQ(body->find("sessions")->number, 1.0);
  EXPECT_GE(obs::metrics().counter("serve.incremental.submits").value(),
            submits_before + 1);

  const std::string exposition = response_metrics_text(client_.metrics());
  EXPECT_NE(exposition.find("ptask_serve_sessions 1"), std::string::npos);

  CloseRequest close;
  close.session = session_id_of(submitted);
  ASSERT_TRUE(response_ok(client_.call(serialize_close(close))));
  const obs::json::Value after = obs::json::parse(client_.stats());
  EXPECT_EQ(after.find("stats")->find("sessions")->number, 0.0);
}

TEST(ServeSessions, DistinctSessionsExtendConcurrentlyAndStayIsolated) {
  ServerOptions options;
  options.num_workers = 8;
  Server server(options);
  server.start();
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures, t] {
      try {
        const fuzz::ArrivalStream stream =
            fuzz::arrival_stream(100 + static_cast<std::uint64_t>(t), 4);
        const cost::CostModel cost{arch::Machine(stream.instance.machine)};
        sched::IncrementalScheduler direct(cost);
        direct.reset(stream.initial, stream.instance.total_cores,
                     stream.initial_release);
        Client client;
        client.connect("127.0.0.1", server.port());
        const std::string submitted =
            client.call(serialize_submit(submit_from(stream)));
        if (!response_ok(submitted) ||
            response_schedule_json(submitted) !=
                serialize_schedule(direct.current())) {
          failures.fetch_add(1);
          return;
        }
        const std::string session = session_id_of(submitted);
        for (const sched::GraphDelta& delta : stream.deltas) {
          ExtendRequest extend;
          extend.session = session;
          extend.delta = delta;
          const std::string response = client.call(serialize_extend(extend));
          if (!response_ok(response) ||
              response_schedule_json(response) !=
                  serialize_schedule(direct.extend(delta))) {
            failures.fetch_add(1);
          }
          // Interleave cached whole-schedule traffic with the extends so
          // TSan sees session state and the schedule cache used together.
          const std::string cached = client.schedule(tiny_request());
          if (!response_ok(cached)) failures.fetch_add(1);
        }
        CloseRequest close;
        close.session = session;
        if (!response_ok(client.call(serialize_close(close)))) {
          failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.num_sessions(), 0u);
  server.stop();
}

// ---- admission control (PTS008) ----

/// A compute-heavy request that keeps the single worker busy for many
/// milliseconds -- long enough for concurrently sent requests to pile up
/// behind it deterministically.
ScheduleRequest heavy_request() {
  // Fuzz seed 406: a 26-task series-parallel graph on 104 cores -- far
  // more cores than tasks, so CPR widens allocations through about 3,500
  // trial schedules and the portfolio run takes 15-25 ms in the default
  // (RelWithDebInfo) build on a 4-core x86-64 VM (the slowest shape in the
  // loadgen pool, and deterministic by seed).  A 16-request burst of tiny
  // requests lands well within that.
  return fuzz_request(fuzz::random_instance(406), "portfolio");
}

TEST(ServeOverload, Pts008QueueFullCarriesRetryAfterAndCountsRejections) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.overload_retry_after_ms = 77;
  Server server(options);
  server.start();
  const std::uint64_t rejected_before = obs::metrics()
                                            .counter("serve.queue.rejected")
                                            .value();

  // One heavy request parks the worker; with one queue slot, a concurrent
  // burst must overflow.  Every response is either a schedule or a PTS008.
  std::thread heavy([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    EXPECT_TRUE(response_ok(client.call(serialize_request(heavy_request()))));
  });
  // Only start the burst once the worker has picked the heavy job up --
  // otherwise the burst can win the race for the single queue slot and the
  // heavy request itself gets the rejection.
  while (server.in_flight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  constexpr int kBurst = 16;
  std::atomic<int> overloaded{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  const std::string payload = serialize_request(tiny_request());
  for (int t = 0; t < kBurst; ++t) {
    threads.emplace_back([&] {
      Client client;
      client.connect("127.0.0.1", server.port());
      const std::string response = client.call(payload);
      if (response_error_code(response) == kErrOverloaded) {
        overloaded.fetch_add(1);
        // The rejection carries the configured backoff hint.
        EXPECT_EQ(response_retry_after_ms(response), 77);
      } else if (!response_ok(response)) {
        unexpected.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  heavy.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GE(overloaded.load(), 1) << "burst never tripped admission control";
  EXPECT_GE(obs::metrics().counter("serve.queue.rejected").value(),
            rejected_before + static_cast<std::uint64_t>(overloaded.load()));
  // The server survived the burst and still answers.
  Client after;
  after.connect("127.0.0.1", server.port());
  EXPECT_TRUE(response_ok(after.call("{\"type\":\"ping\"}")));
  server.stop();
}

TEST_F(ServeTest, Pts008NegativeSequentialTrafficIsNeverRejected) {
  // One request in flight at a time can never overflow the (default 1024)
  // admission queue: no PTS008, and the rejected counter stays flat.
  const std::uint64_t rejected_before = obs::metrics()
                                            .counter("serve.queue.rejected")
                                            .value();
  const std::string payload = serialize_request(tiny_request());
  for (int i = 0; i < 16; ++i) {
    const std::string response = client_.call(payload);
    EXPECT_TRUE(response_ok(response)) << response;
    EXPECT_NE(response_error_code(response), kErrOverloaded);
  }
  EXPECT_EQ(obs::metrics().counter("serve.queue.rejected").value(),
            rejected_before);
  EXPECT_EQ(response_retry_after_ms("{\"ok\":true}"), -1);
}

TEST(ServeOverload, MaxQueueOneBurstStaysBoundedAndCrashFree) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  Server server(options);
  server.start();

  // Mixed burst (schedules, pings, malformed frames) against the tightest
  // possible queue: every reply is a well-formed response, the reported
  // depth never exceeds the bound, and the server drains cleanly.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::atomic<int> malformed_responses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      client.connect("127.0.0.1", server.port());
      for (int i = 0; i < kPerThread; ++i) {
        std::string payload;
        switch ((t + i) % 3) {
          case 0: payload = serialize_request(tiny_request()); break;
          case 1: payload = "{\"type\":\"ping\"}"; break;
          default: payload = "{broken json!"; break;
        }
        const std::string response = client.call(payload);
        try {
          (void)obs::json::parse(response);
        } catch (const std::exception&) {
          malformed_responses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(malformed_responses.load(), 0);

  Client observer;
  observer.connect("127.0.0.1", server.port());
  const obs::json::Value stats = obs::json::parse(observer.stats());
  const obs::json::Value* queue = stats.find("stats")->find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_LE(queue->find("depth")->number, queue->find("max")->number);
  EXPECT_EQ(queue->find("max")->number, 1.0);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---- drain-aware, prompt shutdown ----

TEST(ServeShutdown, StopAnswersAlreadyAdmittedRequests) {
  ServerOptions options;
  options.num_workers = 1;
  Server server(options);
  server.start();

  // Park the worker behind a heavy request, queue a few light ones, then
  // stop() mid-flight: every admitted request must still get its response
  // (the queue closes to new arrivals but drains what it accepted).
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    if (response_ok(client.call(serialize_request(heavy_request())))) {
      answered.fetch_add(1);
    } else {
      failed.fetch_add(1);
    }
  });
  const std::string light = serialize_request(tiny_request());
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      Client client;
      client.connect("127.0.0.1", server.port());
      const std::string response = client.call(light);
      // Admitted requests are answered; ones racing the shutdown may see
      // the connection close instead, which the client surfaces as a
      // throw -- both are orderly, only malformed replies count as failure.
      if (!response.empty() && response_ok(response)) answered.fetch_add(1);
    });
  }
  // Give the burst a moment to be admitted, then shut down mid-compute.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
  for (std::thread& thread : threads) thread.join();
  EXPECT_GE(answered.load(), 1);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_FALSE(server.running());
}

TEST(ServeShutdown, StopIsPromptWithIdleOpenConnections) {
  // The old acceptor/worker loops polled a stop flag every 100ms; the
  // reactor wakes on an eventfd instead, so stopping an idle server with
  // open connections is near-immediate.
  Server server;
  server.start();
  Client a;
  Client b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  ASSERT_TRUE(response_ok(a.call("{\"type\":\"ping\"}")));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double stop_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_ms, 500.0) << "stop() took " << stop_ms << "ms";
}

TEST(ServeShutdown, StatsAfterStopKeepQueueTotals) {
  // ptask_served dumps render_stats() once more after the drain; the
  // admission totals must survive stop() instead of resetting to zero.
  Server server;
  server.start();
  {
    Client client;
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(response_ok(client.call(serialize_request(tiny_request()))));
  }
  server.stop();
  const obs::json::Value stats = obs::json::parse(server.render_stats());
  const obs::json::Value* queue = stats.find("stats")->find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->find("enqueued")->number, 1.0);
  EXPECT_EQ(queue->find("depth")->number, 0.0);
}

// ---- compatible-request batching ----

TEST(ServeBatch, SharedPricingKeepsBatchMembersByteIdentical) {
  // Unit-level bit-identity: for every fuzz family, several graphs run
  // through one BatchScheduler must serialize exactly like fresh unbatched
  // runs, also when the same graph runs through it again.
  std::map<fuzz::GraphFamily, int> covered;
  std::uint64_t seed = 20;
  const int per_family = 2;
  while (covered.size() < 5u ||
         std::any_of(covered.begin(), covered.end(),
                     [&](const auto& kv) { return kv.second < per_family; })) {
    const fuzz::Instance instance = fuzz::random_instance(seed++);
    if (covered[instance.family] >= per_family) continue;
    if (instance.graph.num_tasks() > 200) continue;  // keep the test quick
    ++covered[instance.family];
    const cost::CostModel base{arch::Machine(instance.machine)};
    for (const std::string strategy : {"layer", "portfolio"}) {
      const sched::BatchScheduler batch(strategy, base);
      const auto direct =
          sched::SchedulerRegistry::instance().make(strategy, base);
      const std::string batched = serialize_schedule(
          batch.run(instance.graph, instance.total_cores));
      const std::string unbatched = serialize_schedule(
          direct->run(instance.graph, instance.total_cores));
      EXPECT_EQ(batched, unbatched) << instance.name << " via " << strategy;
      EXPECT_EQ(serialize_schedule(
                    batch.run(instance.graph, instance.total_cores)),
                unbatched)
          << instance.name << " via " << strategy << ", repeated";
    }
  }
}

TEST(ServeBatch, CoalescedWireRequestsMatchDirectRunsAndShareOneRun) {
  ServerOptions options;
  options.num_workers = 1;
  options.batch_max = 8;
  options.batch_window_us = 50000;  // generous: senders start within 50ms
  Server server(options);
  server.start();

  // Compatible requests (same scheduler/cores/machine, distinct graphs)
  // sent concurrently against one worker coalesce into a shared batch; the
  // responses must be byte-identical to direct unbatched runs regardless.
  const std::uint64_t coalesced_before =
      obs::metrics().counter("serve.batch.coalesced").value();
  std::vector<ScheduleRequest> requests;
  const arch::MachineSpec machine = tiny_request().machine;
  for (int i = 0; i < 4; ++i) {
    ScheduleRequest request = tiny_request();
    request.machine = machine;
    core::MTask extra("extra" + std::to_string(i), 3.0e8 + 1.0e7 * i);
    request.graph.add_task(extra);
    requests.push_back(std::move(request));
  }
  std::vector<std::string> responses(requests.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([&, i] {
      Client client;
      client.connect("127.0.0.1", server.port());
      responses[i] = client.call(serialize_request(requests[i]));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(response_ok(responses[i])) << responses[i];
    EXPECT_EQ(response_schedule_json(responses[i]),
              direct_schedule_bytes(requests[i]))
        << "batched response " << i << " diverged from the direct run";
  }
  EXPECT_GE(obs::metrics().counter("serve.batch.coalesced").value(),
            coalesced_before + 2)
      << "concurrent compatible requests never coalesced";
  server.stop();
}

}  // namespace
}  // namespace ptask::serve
