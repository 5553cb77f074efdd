#include "read/table_cache.h"

#include <algorithm>

#include "lsm/filename.h"
#include "util/coding.h"

namespace talus {
namespace read {

TableCache::TableCache(Env* env, std::string dbpath, LruCache* block_cache,
                       size_t capacity)
    : env_(env),
      dbpath_(std::move(dbpath)),
      block_cache_(block_cache),
      capacity_(capacity),
      per_shard_capacity_(
          std::max<size_t>(1, (capacity + kNumShards - 1) / kNumShards)) {}

std::shared_ptr<SstReader> TableCache::GetReader(uint64_t file_number,
                                                 Status* status) {
  Shard& shard = ShardFor(file_number);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(file_number);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.reader;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Open outside the shard lock so a cold file's I/O never blocks hits on
  // other files in the same shard.
  std::unique_ptr<SstReader> opened;
  Status s = SstReader::Open(env_, SstFileName(dbpath_, file_number),
                             file_number, block_cache_, &opened);
  if (!s.ok()) {
    if (status != nullptr) *status = s;
    return nullptr;
  }
  opens_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<SstReader> reader(std::move(opened));

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(file_number);
  if (it != shard.map.end()) {
    return it->second.reader;  // Lost an open race; share the winner's.
  }
  shard.lru.push_front(file_number);
  shard.map[file_number] = Shard::Entry{reader, shard.lru.begin()};
  while (shard.map.size() > per_shard_capacity_) {
    const uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return reader;
}

void TableCache::Evict(uint64_t file_number) {
  Shard& shard = ShardFor(file_number);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(file_number);
    if (it != shard.map.end()) {
      shard.lru.erase(it->second.lru_pos);
      shard.map.erase(it);
    }
  }
  // Block-cache keys start with the varint file number (SstReader);
  // varints are prefix-free, so this prefix matches exactly the deleted
  // file's blocks, which then stop charging the cache.
  std::string prefix;
  PutVarint64(&prefix, file_number);
  block_cache_->EraseByPrefix(prefix);
}

TableCache::Stats TableCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.opens = opens_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.capacity = capacity_;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.open_readers += shard.map.size();
  }
  return stats;
}

}  // namespace read
}  // namespace talus
