// Bounded-memory exact-compare caches for the scenario server.
//
// Keys are canonical strings (serve/query.hpp renders every semantic query
// field into one unambiguous text form), compared exactly: a structural
// difference of one byte is a miss, so a stale hit is impossible. Values
// are immutable (shared_ptr<const V>) and always bit-identical to what
// recomputation would produce, which is what lets the server promise
// byte-identical answers at any cache state: a hit only changes *when* the
// answer is ready, never what it says.
//
// Memory is bounded per cache: every insert carries a cost estimate in
// bytes and eviction is FIFO in first-insertion order until the budget
// holds. FIFO (not LRU) keeps eviction independent of read patterns, so a
// sweep that cycles through more state than fits degrades predictably
// instead of thrashing on recency. Values larger than the whole budget are
// not admitted (counted in `rejected`).
//
// Thread-safe; hit/miss/eviction counters are surfaced through the server's
// `stats` control query and the per-cache `stats()` snapshot.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace gpucomm::serve {

struct CacheStats {
  std::string name;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Values too large for the byte budget, never admitted.
  std::uint64_t rejected = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
};

template <typename V>
class ExactCache {
 public:
  ExactCache(std::string name, std::size_t capacity_bytes)
      : name_(std::move(name)), capacity_(capacity_bytes) {}

  /// Lookup; counts a hit or a miss. nullptr on miss.
  std::shared_ptr<const V> find(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second.value;
  }

  /// Insert under FIFO eviction. Re-inserting an existing key replaces the
  /// value in place (keeping its eviction position). A value whose cost
  /// exceeds the whole budget is rejected.
  void insert(const std::string& key, std::shared_ptr<const V> value, std::size_t cost_bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (cost_bytes > capacity_) {
      ++rejected_;
      return;
    }
    const auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second.cost;
      it->second.value = std::move(value);
      it->second.cost = cost_bytes;
      bytes_ += cost_bytes;
      evict_locked();
      return;
    }
    order_.push_back(key);
    Entry e;
    e.value = std::move(value);
    e.cost = cost_bytes;
    e.order = std::prev(order_.end());
    map_.emplace(key, std::move(e));
    bytes_ += cost_bytes;
    ++insertions_;
    evict_locked();
  }

  CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    CacheStats s;
    s.name = name_;
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.rejected = rejected_;
    s.entries = map_.size();
    s.bytes = bytes_;
    s.capacity_bytes = capacity_;
    return s;
  }

  const std::string& name() const { return name_; }

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    std::size_t cost = 0;
    std::list<std::string>::iterator order;
  };

  void evict_locked() {
    while (bytes_ > capacity_ && !order_.empty()) {
      const std::string& victim = order_.front();
      const auto it = map_.find(victim);
      bytes_ -= it->second.cost;
      map_.erase(it);
      order_.pop_front();
      ++evictions_;
    }
  }

  std::string name_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  /// First-insertion order; front is the next eviction victim.
  std::list<std::string> order_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace gpucomm::serve
