// SstReader: read side of the SST format. The index and filter blocks are
// pinned in memory at open (the engine-wide assumption that fence pointers
// and Bloom filters are memory resident — at most one data-block I/O per run
// per point lookup). Foreground data-block reads go through the shared block
// cache; compaction and flush-merge inputs stream past it (BlockFetch).
//
// Thread-safe after Open: Get() and NewIterator() only read the immutable
// index/filter state, pread the file, and touch the internally locked block
// cache, so any number of threads may use one reader concurrently
// (read/table_cache.h hands out shared pins).
#ifndef TALUS_TABLE_SST_READER_H_
#define TALUS_TABLE_SST_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/lru_cache.h"
#include "env/env.h"
#include "filter/bloom.h"
#include "format/block.h"
#include "lsm/dbformat.h"
#include "table/sst_format.h"

namespace talus {

class SstReader {
 public:
  /// Opens an SST. `block_cache` may be nullptr (no caching). file_number
  /// namespaces block-cache keys.
  static Status Open(Env* env, const std::string& fname, uint64_t file_number,
                     LruCache* block_cache, std::unique_ptr<SstReader>* reader);

  struct GetStats {
    bool filter_negative = false;  // Bloom filter excluded the run.
    bool block_read = false;       // A data block was fetched from disk.
    bool cache_hit = false;        // Served from block cache.
  };

  /// Point lookup for the newest entry visible at `lkey`. Returns true if
  /// this run decides the key (value found or tombstone). Sets *s to OK or
  /// NotFound accordingly. `fast_path` selects the allocation-free
  /// Block::PointGet search (DESIGN.md §7); false falls back to the
  /// two-iterator seek path. Results and GetStats are identical either way.
  bool Get(const LookupKey& lkey, std::string* value, Status* s,
           GetStats* stats = nullptr, bool fast_path = true);

  /// How an iterator obtains data blocks.
  enum class BlockFetch {
    kCached,  // Block-cache Lookup, Insert on a miss: Get and user scans.
    kStream,  // Past the cache, into one buffer the iterator reuses for
              // every block: compaction and flush-merge inputs, which read
              // each block once and would only evict foreground blocks.
  };

  /// Iterator over the whole file (internal keys). The reader must outlive
  /// it. A damaged data block surfaces through status() once the iterator
  /// has stepped onto it, even after it moved past.
  std::unique_ptr<Iterator> NewIterator(
      BlockFetch fetch = BlockFetch::kCached);

  uint64_t num_data_blocks_read() const {
    return data_blocks_read_.load(std::memory_order_relaxed);
  }

 private:
  SstReader() = default;

  Status ReadDataBlock(const BlockHandle& handle,
                       std::shared_ptr<Block>* block, bool* cache_hit);
  /// Uncached read of one data block. *contents points into *scratch or
  /// into memory the open file pins, and stays valid until the next read
  /// into *scratch.
  Status ReadBlockContents(const BlockHandle& handle, std::string* scratch,
                           Slice* contents);

  bool GetPointSearch(const LookupKey& lkey, std::string* value, Status* s,
                      GetStats* stats);
  bool GetViaIterators(const LookupKey& lkey, std::string* value, Status* s,
                       GetStats* stats);
  /// Shared tail: classify the entry PointGet/Seek positioned on.
  bool FinishGet(const LookupKey& lkey, const Slice& entry_key,
                 const Slice& entry_value, std::string* value, Status* s);

  class TwoLevelIterator;

  Env* env_ = nullptr;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_ = 0;
  LruCache* block_cache_ = nullptr;

  std::unique_ptr<Block> index_block_;
  std::string filter_data_;
  std::unique_ptr<BloomFilterReader> filter_;

  std::atomic<uint64_t> data_blocks_read_{0};
};

}  // namespace talus

#endif  // TALUS_TABLE_SST_READER_H_
