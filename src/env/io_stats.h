// IoStats: byte- and page-level I/O accounting plus the virtual clock used by
// the benchmark harness. Charging every method through the identical cost
// model is what makes the reproduced figures hardware-independent while
// preserving the paper's relative orderings (see DESIGN.md).
//
// Cost model (calibrated to NVMe-class asymmetry; one unit ~= 50 us):
//  * Writes are sequential in an LSM-tree (WAL appends, SST builds), so they
//    are charged pure bandwidth: write_page_cost per 4KiB, fractional.
//    At ~2 GB/s a 4KiB sequential write costs ~2 us.
//  * Reads are random block fetches: a fixed request cost (device latency,
//    ~25 us submission+seek) plus bandwidth per whole page (~50 us for 4KiB
//    end-to-end on a loaded device).
//  * The resulting ~30:1 random-read : sequential-write page-cost ratio is
//    what makes read amplification and write amplification trade off at
//    realistic rates; with a symmetric model every write-optimized scheme
//    would win every workload.
//  * CPU epsilons keep memory-only operations from having zero cost.
//
// Thread safety: lock-free. Every counter is an atomic and the virtual
// clock advances through a compare-exchange add, so the hot recording
// paths (one RecordCpu per Get/Scan, one RecordRead per data-block fetch)
// never serialize the otherwise mutex-free read path (DESIGN.md §2.7). In
// inline mode operations are single-threaded, so the accumulation order —
// and therefore every virtual-clock value — is bit-identical to the old
// mutex-guarded implementation.
#ifndef TALUS_ENV_IO_STATS_H_
#define TALUS_ENV_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace talus {

struct IoCostModel {
  double read_page_cost = 1.0;    // Per 4KiB page, random read (bandwidth).
  double write_page_cost = 0.05;  // Per 4KiB page written (sequential).
  double read_request_cost = 0.5;  // Per random read request (latency).
  // Per 4KiB page read sequentially (compaction scans stream at device
  // bandwidth, like writes).
  double seq_read_page_cost = 0.05;
  static constexpr uint64_t kPageSize = 4096;
};

class IoStats {
 public:
  void RecordRead(uint64_t bytes) {
    read_requests_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    if (sequential_ == this) {
      AdvanceClock(model_.seq_read_page_cost * static_cast<double>(bytes) /
                   static_cast<double>(IoCostModel::kPageSize));
    } else {
      AdvanceClock(model_.read_request_cost +
                   model_.read_page_cost * WholePages(bytes));
    }
  }

  /// RAII marker for streaming access (compaction merges): reads this
  /// thread records on `stats` inside the scope are charged sequential
  /// bandwidth instead of random-read latency. The marker is per-thread, so
  /// a pooled merge never discounts a concurrent foreground read.
  class SequentialScope {
   public:
    explicit SequentialScope(const IoStats* stats) : outer_(sequential_) {
      sequential_ = stats;
    }
    ~SequentialScope() { sequential_ = outer_; }
    SequentialScope(const SequentialScope&) = delete;
    SequentialScope& operator=(const SequentialScope&) = delete;

   private:
    const IoStats* outer_;  // The enclosing scope's stats, restored on exit.
  };
  void RecordWrite(uint64_t bytes) {
    write_requests_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    AdvanceClock(model_.write_page_cost * static_cast<double>(bytes) /
                 static_cast<double>(IoCostModel::kPageSize));
  }
  /// CPU-side work (memtable ops, filter probes) advances the clock a little
  /// so infinitely cheap operations do not yield infinite throughput.
  void RecordCpu(double units) { AdvanceClock(units); }

  /// Storage footprint tracking (space amplification). MemEnv reports every
  /// byte appended/removed; peak_storage_bytes is the paper's "peak disk
  /// space occupied during runtime".
  void RecordStorageGrowth(uint64_t bytes) {
    const uint64_t now =
        storage_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_storage_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_storage_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void RecordStorageShrink(uint64_t bytes) {
    uint64_t current = storage_bytes_.load(std::memory_order_relaxed);
    uint64_t next;
    do {
      next = bytes > current ? 0 : current - bytes;
    } while (!storage_bytes_.compare_exchange_weak(current, next,
                                                   std::memory_order_relaxed));
  }

  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t read_requests() const {
    return read_requests_.load(std::memory_order_relaxed);
  }
  uint64_t write_requests() const {
    return write_requests_.load(std::memory_order_relaxed);
  }
  uint64_t storage_bytes() const {
    return storage_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_storage_bytes() const {
    return peak_storage_bytes_.load(std::memory_order_relaxed);
  }

  /// Virtual time elapsed, in cost-model units.
  double clock() const { return clock_.load(std::memory_order_relaxed); }

  /// REQUIRES: no concurrent recording (benchmark setup only).
  void set_cost_model(const IoCostModel& m) { model_ = m; }
  IoCostModel cost_model() const { return model_; }

  void Reset() {
    bytes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
    read_requests_.store(0, std::memory_order_relaxed);
    write_requests_.store(0, std::memory_order_relaxed);
    clock_.store(0, std::memory_order_relaxed);
    // Storage footprint intentionally survives Reset(): files persist across
    // measurement phases; call ResetPeak() to re-arm peak tracking.
  }
  void ResetPeak() {
    peak_storage_bytes_.store(storage_bytes_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  }

 private:
  static double WholePages(uint64_t bytes) {
    return static_cast<double>((bytes + IoCostModel::kPageSize - 1) /
                               IoCostModel::kPageSize);
  }

  void AdvanceClock(double units) {
    double current = clock_.load(std::memory_order_relaxed);
    while (!clock_.compare_exchange_weak(current, current + units,
                                         std::memory_order_relaxed)) {
    }
  }

  // The IoStats this thread's innermost SequentialScope marks, if any.
  static inline thread_local const IoStats* sequential_ = nullptr;
  IoCostModel model_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> read_requests_{0};
  std::atomic<uint64_t> write_requests_{0};
  std::atomic<uint64_t> storage_bytes_{0};
  std::atomic<uint64_t> peak_storage_bytes_{0};
  std::atomic<double> clock_{0};
};

}  // namespace talus

#endif  // TALUS_ENV_IO_STATS_H_
