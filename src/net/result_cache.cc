#include "net/result_cache.h"

#include <functional>
#include <utility>

namespace pictdb::net {

ResultCache::ResultCache(size_t capacity_bytes, size_t shards)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_bytes_(shards == 0 ? capacity_bytes
                                        : capacity_bytes / shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

void ResultCache::EraseLocked(
    Shard* shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard->bytes -= it->second.payload.size() + it->first.size();
  shard->lru.erase(it->second.lru_pos);
  shard->map.erase(it);
}

bool ResultCache::Lookup(const std::string& key, std::string* payload_out) {
  if (capacity_bytes_ == 0 || key.empty()) return false;
  Shard& shard = ShardFor(key);
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second.epoch != epoch) {
    // Stale epoch: reclaim lazily and report a miss.
    EraseLocked(&shard, it);
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Refresh recency: splice the key to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  *payload_out = it->second.payload;
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::Insert(const std::string& key, const std::string& payload,
                         uint64_t epoch) {
  if (capacity_bytes_ == 0 || key.empty()) return;
  const size_t entry_bytes = payload.size() + key.size();
  if (entry_bytes > shard_capacity_bytes_) return;  // would evict the world
  // A bump racing past this check still leaves the entry stamped with
  // the old epoch, which Lookup treats as stale.
  if (epoch != this->epoch()) return;
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) EraseLocked(&shard, it);
  shard.lru.push_front(key);
  Entry entry;
  entry.payload = payload;
  entry.epoch = epoch;
  entry.lru_pos = shard.lru.begin();
  shard.map.emplace(key, std::move(entry));
  shard.bytes += entry_bytes;
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
    auto victim = shard.map.find(shard.lru.back());
    EraseLocked(&shard, victim);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::BumpEpoch() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats s;
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    s.hits += shard->hits.load(std::memory_order_relaxed);
    s.misses += shard->misses.load(std::memory_order_relaxed);
    s.insertions += shard->insertions.load(std::memory_order_relaxed);
    s.evictions += shard->evictions.load(std::memory_order_relaxed);
    MutexLock lock(&shard->mu);
    s.bytes += shard->bytes;
    s.entries += shard->map.size();
  }
  return s;
}

}  // namespace pictdb::net
