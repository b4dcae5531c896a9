#include "ptask/serve/schedule_cache.hpp"

#include <iterator>

#include "ptask/obs/metrics.hpp"

namespace ptask::serve {

ScheduleCache::Shard& ScheduleCache::shard_for(const std::string& key) {
  const std::size_t hash = std::hash<std::string>{}(key);
  return shards_[hash % kShards];
}

ScheduleCache::Entry ScheduleCache::get_or_compute(
    const std::string& key, const std::function<std::string()>& compute) {
  static obs::Counter& hit_counter = obs::metrics().counter("serve.cache.hit");
  static obs::Counter& miss_counter =
      obs::metrics().counter("serve.cache.miss");

  Shard& shard = shard_for(key);
  std::promise<Entry> promise;
  std::shared_future<Entry> future;
  bool owner = false;
  bool ready_hit = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.add();
      future = it->second.future;
      ready_hit = it->second.ready;
    } else {
      owner = true;
      future = promise.get_future().share();
      shard.entries.emplace(key, Slot{future, false});
    }
  }
  if (!owner) {
    // A hit on a completed entry refreshes its LRU recency (outside the
    // shard lock; the LRU mutex is never nested inside a shard mutex).  A
    // hit on an in-flight placeholder is not on the LRU list yet -- the
    // owner adds it when it publishes.
    if (ready_hit) touch(key);
    // Another thread owns the computation: wait for its result.  get() on
    // the shared future rethrows the computing thread's exception.
    return future.get();
  }

  // This thread created the placeholder: run the computation (outside the
  // shard lock) and publish the result -- or the exception -- to every
  // waiter.
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter.add();
  try {
    Entry value = std::make_shared<const std::string>(compute());
    promise.set_value(value);
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end()) it->second.ready = true;
    }
    // Now that the entry is READY it becomes evictable: register its
    // recency and apply the cap.
    touch(key);
    enforce_cap();
    return value;
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.entries.erase(key);
    }
    throw;
  }
}

ScheduleCache::Entry ScheduleCache::find_ready(const std::string& key) {
  static obs::Counter& hit_counter = obs::metrics().counter("serve.cache.hit");
  Shard& shard = shard_for(key);
  Entry value;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end() || !it->second.ready) return nullptr;
    value = it->second.future.get();  // ready: the value is already set
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter.add();
  touch(key);
  return value;
}

void ScheduleCache::touch(const std::string& key) {
  if (max_entries_ == 0) return;
  const std::lock_guard<std::mutex> lock(lru_mutex_);
  const auto it = lru_pos_.find(key);
  if (it != lru_pos_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(key);
    lru_pos_[key] = lru_.begin();
  }
}

void ScheduleCache::enforce_cap() {
  if (max_entries_ == 0) return;
  static obs::Counter& eviction_counter =
      obs::metrics().counter("serve.cache.evictions");
  while (true) {
    std::string victim;
    {
      const std::lock_guard<std::mutex> lock(lru_mutex_);
      if (lru_.size() <= max_entries_) return;
      victim = std::move(lru_.back());
      lru_.pop_back();
      lru_pos_.erase(victim);
    }
    // The shard lock is taken only after the LRU lock is released.  Only a
    // READY entry is dropped: a concurrent clear()/eviction may have
    // removed it already, and an in-flight placeholder under the same key
    // (recomputed after a clear) must not lose its single flight.
    Shard& shard = shard_for(victim);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(victim);
    if (it != shard.entries.end() && it->second.ready) {
      shard.entries.erase(it);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      eviction_counter.add();
    }
  }
}

std::size_t ScheduleCache::entries() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, slot] : shard.entries) {
      if (slot.ready) ++total;
    }
  }
  return total;
}

std::size_t ScheduleCache::value_bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, slot] : shard.entries) {
      if (slot.ready) total += slot.future.get()->size();
    }
  }
  return total;
}

void ScheduleCache::clear() {
  {
    const std::lock_guard<std::mutex> lock(lru_mutex_);
    lru_.clear();
    lru_pos_.clear();
  }
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      it = it->second.ready ? shard.entries.erase(it) : std::next(it);
    }
  }
}

}  // namespace ptask::serve
