// MemTable: the in-memory write buffer. Entries are stored in a skiplist over
// length-prefixed internal keys; flushing iterates in internal-key order.
//
// Concurrency: one writer, many readers. Add() needs external
// synchronization — the commit-group leader is the only thread that calls
// it, and leadership passes through the WriteQueue mutex (DESIGN.md §2.9).
// Get() and iterators are safe without any lock concurrently with that
// writer: the skiplist publishes nodes with release-stores (skiplist.h),
// which is what lets the DB read path drop the mutex (DESIGN.md §2.7).
#ifndef TALUS_MEM_MEMTABLE_H_
#define TALUS_MEM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "lsm/dbformat.h"
#include "mem/skiplist.h"
#include "table/iterator.h"
#include "util/arena.h"

namespace talus {

class MemTable {
 public:
  MemTable();
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Adds an entry (kTypeValue) or a tombstone (kTypeDeletion), encoded
  /// straight into its arena slot. Single writer: see above.
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  /// If the memtable contains the newest entry for key visible at `lkey`'s
  /// sequence: returns true and sets *value (found) or *s to NotFound
  /// (tombstone). Returns false if the key is not in the memtable at all.
  bool Get(const LookupKey& lkey, std::string* value, Status* s);

  /// Iterator over internal keys; value() is the user value. The memtable
  /// must outlive the iterator.
  std::unique_ptr<Iterator> NewIterator();

  /// Approximate bytes used (arena blocks).
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  /// Sum of user key + value bytes added (logical payload size).
  uint64_t payload_bytes() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    InternalKeyComparator comparator;
    // Keys are length-prefixed internal keys allocated in the arena.
    int operator()(const char* a, const char* b) const;
  };

  using Table = SkipList<const char*, KeyComparator>;

  KeyComparator comparator_;
  Arena arena_;
  Table table_;
  // Relaxed atomics: bumped by the writer's Add()s and read by the flush
  // trigger and property/stat paths without a common lock.
  std::atomic<uint64_t> num_entries_{0};
  std::atomic<uint64_t> payload_bytes_{0};
};

}  // namespace talus

#endif  // TALUS_MEM_MEMTABLE_H_
