#pragma once
/// \file schedule_cache.hpp
/// Sharded whole-schedule memo of the scheduling service.
///
/// The key is the request's *canonical key*, a binary encoding of its
/// scheduler name, core count, certify flag, machine spec, and the full
/// graph including every task weight (see `serve::canonical_key`), so two
/// requests share an entry iff their content is identical.  The full key
/// string is compared on lookup (the hash only picks the shard and bucket),
/// so near-collision requests -- same shape, one weight different -- can
/// never alias.
///
/// Entries are *single-flight*: when N threads ask for the same absent key
/// concurrently, exactly one runs the compute function while the others
/// block on a shared future and then return the identical bytes.  That
/// bounds a burst of identical requests to at most one cache miss, the
/// property the concurrent-correctness test (and the TSan CI preset) pins.
/// A compute function that throws propagates the exception to every waiter
/// and removes the entry, so a later request retries instead of caching a
/// failure.
///
/// Values are immutable shared strings (the serialized schedule body), so a
/// hit hands out the exact bytes the miss computed -- cached responses are
/// bit-identical to uncached ones by construction.  Hits and misses are
/// counted per instance and in the global metrics registry
/// (`serve.cache.hit` / `serve.cache.miss`).
///
/// The cache is optionally *bounded*: with `max_entries > 0`, completed
/// entries past the cap are evicted least-recently-used (every publish and
/// every ready hit refreshes recency).  Only READY entries live on the LRU
/// list, so an in-flight single-flight placeholder can never be evicted --
/// a burst of identical requests still costs exactly one compute even while
/// eviction is churning the rest of the cache.  Evictions are counted per
/// instance and as `serve.cache.evictions`.  Handed-out values are shared
/// pointers, so evicting an entry never invalidates bytes a response is
/// still writing.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ptask::serve {

class ScheduleCache {
 public:
  static constexpr std::size_t kShards = 16;

  using Entry = std::shared_ptr<const std::string>;

  /// `max_entries` == 0 means unbounded (no LRU bookkeeping at all).
  explicit ScheduleCache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// Returns the cached value for `key`, computing it via `compute` when
  /// absent.  Concurrent callers with the same key block until the single
  /// in-flight computation finishes.  Exceptions from `compute` propagate
  /// to all waiters and evict the placeholder entry.
  Entry get_or_compute(const std::string& key,
                       const std::function<std::string()>& compute);

  /// Returns the completed value for `key` without blocking, or nullptr
  /// when the key is absent or its computation is still in flight.  Never
  /// inserts a placeholder.  A returned value counts as a hit and refreshes
  /// the entry's recency; a nullptr counts nothing (the caller goes on to
  /// get_or_compute, which does the counting).
  Entry find_ready(const std::string& key);

  /// Hit/miss accounting (a miss is counted once per computed entry).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Completed entries dropped by the LRU cap (0 when unbounded).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// The configured cap (0 = unbounded).
  std::size_t max_entries() const { return max_entries_; }

  /// Number of completed entries (in-flight placeholders excluded).
  std::size_t entries() const;
  /// Total bytes of completed cached values.
  std::size_t value_bytes() const;

  /// Drops every completed entry (in-flight computations finish and insert
  /// normally; counters are kept).
  void clear();

 private:
  struct Slot {
    std::shared_future<Entry> future;
    bool ready = false;  ///< set once the computing thread stored the value
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Slot> entries;
  };

  Shard& shard_for(const std::string& key);

  /// Moves `key` to the most-recently-used position (inserting it if new).
  /// Called only while holding no locks; takes the LRU mutex alone.
  void touch(const std::string& key);
  /// Evicts least-recently-used ready entries until the cap is met.  Takes
  /// the LRU mutex and a shard mutex strictly in sequence, never nested.
  void enforce_cap();

  std::size_t max_entries_ = 0;
  std::vector<Shard> shards_{kShards};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};

  /// LRU bookkeeping (only used when bounded): `lru_` front is most recent,
  /// `lru_pos_` maps a key to its list node.  Only READY entries appear.
  mutable std::mutex lru_mutex_;
  std::list<std::string> lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> lru_pos_;
};

}  // namespace ptask::serve
