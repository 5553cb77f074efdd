// TableCache: capacity-bounded, internally sharded cache of open SstReaders
// keyed by file number (DESIGN.md §2.7). Replaces the DB's unbounded,
// DB-mutex-guarded readers_ map so point lookups and scans open and probe
// SST files without the engine lock.
//
// Handles are shared_ptr pins: a reader held by an in-flight Get or a live
// iterator survives both capacity eviction and Evict() on file deletion —
// eviction only drops the cache's own reference. Opens happen outside the
// shard lock; when two threads race to open the same file, the loser's
// reader is discarded and the winner's is shared.
#ifndef TALUS_READ_TABLE_CACHE_H_
#define TALUS_READ_TABLE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/lru_cache.h"
#include "env/env.h"
#include "table/sst_reader.h"

namespace talus {
namespace read {

class TableCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t opens = 0;      // Files actually opened (≤ misses under races).
    uint64_t evictions = 0;  // Cache references dropped by capacity pressure.
    size_t open_readers = 0;  // Gauge: readers currently cached.
    size_t capacity = 0;
  };

  /// `capacity` bounds the number of cached open readers. The bound is
  /// enforced per shard (ceil(capacity / shards), at least one each), so
  /// under skewed file-number distribution the total may briefly sit below
  /// `capacity`; Stats::capacity always reports the configured value.
  /// `block_cache` must not be null: every reader loads its data blocks
  /// through it (SstReader::Open).
  TableCache(Env* env, std::string dbpath, LruCache* block_cache,
             size_t capacity);
  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// Returns a pinned reader for `file_number`, opening the file on miss.
  /// nullptr on failure (*status set when provided).
  std::shared_ptr<SstReader> GetReader(uint64_t file_number,
                                       Status* status = nullptr);

  /// Drops the cached reader (in-flight pins stay valid) and scrubs the
  /// file's blocks from the block cache. Called when a file is deleted.
  void Evict(uint64_t file_number);

  Stats GetStats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used file number.
    std::list<uint64_t> lru;
    struct Entry {
      std::shared_ptr<SstReader> reader;
      std::list<uint64_t>::iterator lru_pos;
    };
    std::unordered_map<uint64_t, Entry> map;
  };

  static constexpr size_t kNumShards = 8;

  Shard& ShardFor(uint64_t file_number) {
    return shards_[file_number % kNumShards];
  }

  Env* const env_;
  const std::string dbpath_;
  LruCache* const block_cache_;
  const size_t capacity_;  // As configured; reported in Stats.
  const size_t per_shard_capacity_;
  std::array<Shard, kNumShards> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> opens_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace read
}  // namespace talus

#endif  // TALUS_READ_TABLE_CACHE_H_
