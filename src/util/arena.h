// Arena: bump-pointer allocator backing the memtable skiplist. All memory is
// freed at once when the arena is destroyed. Not thread-safe: only the
// memtable's single writer allocates (DESIGN.md §2.9). MemoryUsage() is the
// one call that may run concurrently with it, so that counter is atomic.
#ifndef TALUS_UTIL_ARENA_H_
#define TALUS_UTIL_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace talus {

class Arena {
 public:
  Arena() : alloc_ptr_(nullptr), alloc_bytes_remaining_(0), memory_usage_(0) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    assert(bytes > 0);
    if (bytes <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_;
      alloc_ptr_ += bytes;
      alloc_bytes_remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  /// Allocation with the alignment guarantees of malloc (8/16 bytes).
  char* AllocateAligned(size_t bytes) {
    const int align = (sizeof(void*) > 8) ? sizeof(void*) : 8;
    size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
    size_t slop = (current_mod == 0 ? 0 : align - current_mod);
    size_t needed = bytes + slop;
    char* result;
    if (needed <= alloc_bytes_remaining_) {
      result = alloc_ptr_ + slop;
      alloc_ptr_ += needed;
      alloc_bytes_remaining_ -= needed;
    } else {
      result = AllocateFallback(bytes);
    }
    assert((reinterpret_cast<uintptr_t>(result) & (align - 1)) == 0);
    return result;
  }

  /// Total memory allocated by the arena (block granularity).
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kBlockSize = 4096;

  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockSize / 4) {
      // Large objects get their own block to avoid wasting the current one.
      return AllocateNewBlock(bytes);
    }
    alloc_ptr_ = AllocateNewBlock(kBlockSize);
    alloc_bytes_remaining_ = kBlockSize;
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }

  char* AllocateNewBlock(size_t block_bytes) {
    // Default-initialized: callers write every byte they later read.
    blocks_.push_back(std::unique_ptr<char[]>(new char[block_bytes]));
    memory_usage_.fetch_add(block_bytes + sizeof(char*),
                            std::memory_order_relaxed);
    return blocks_.back().get();
  }

  char* alloc_ptr_;
  size_t alloc_bytes_remaining_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_;
};

}  // namespace talus

#endif  // TALUS_UTIL_ARENA_H_
