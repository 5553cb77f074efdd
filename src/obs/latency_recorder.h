// LatencyRecorder: lock-free, per-core-striped latency histograms for every
// hot operation in the engine (DESIGN.md §6). Each (stripe, op) cell is an
// independent set of relaxed atomic counters over the exponential bucket
// layout shared with util/Histogram, so recording from any number of threads
// never takes a lock and almost never shares a cache line; snapshots fold
// the stripes back into plain mergeable Histograms (percentiles come from
// the same interpolation every other histogram in the engine uses).
//
// Cost discipline: when DbOptions::enable_latency_stats is off the DB holds
// no recorder at all — the per-op fast path is a null-pointer test, no clock
// is read, and nothing allocates. When on, a record is two steady-clock
// reads plus a handful of relaxed atomic adds (measured <3% at 8 writers;
// DESIGN.md §6.5).
#ifndef TALUS_OBS_LATENCY_RECORDER_H_
#define TALUS_OBS_LATENCY_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/wall_clock.h"

namespace talus {
namespace obs {

/// Operations with first-class latency histograms. Order is the property /
/// exposition order; kNumOpTypes sizes every per-op array.
enum class OpType : uint8_t {
  kPut = 0,        // Whole write-path call (Put/Delete/Write), queue included.
  kGroupWait,      // Time a writer spent blocked in the write queue (0 if
                   // it led at once), until it led or its leader finished.
  kWalAppend,      // Leader's WAL append for one commit group.
  kWalSync,        // WAL fsync (only groups that actually synced).
  kGet,            // Whole point-lookup call.
  kScan,           // Whole Scan call.
  kIterSeek,       // Iterator Seek/SeekToFirst.
  kFlush,          // One memtable flush (merge + SST build).
  kCompaction,     // One compaction (plan + merge + install).
};
constexpr int kNumOpTypes = 9;

const char* OpTypeName(OpType op);

class LatencyRecorder {
 public:
  LatencyRecorder();
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Records one observation (relaxed atomics on this thread's stripe).
  void Record(OpType op, uint64_t micros);

  /// Folds every stripe of `op` into one Histogram (microsecond units).
  Histogram SnapshotOp(OpType op) const;
  /// SnapshotOp for all ops, indexed by OpType. The vector form is what
  /// metrics::MergeLatencyHistograms aggregates across shards.
  std::vector<Histogram> SnapshotAll() const;

  /// The "talus.latency" text: one line per op type,
  /// `op=<name> count=N p50_us=... p99_us=... p999_us=... max_us=... avg_us=...`.
  static std::string Format(const std::vector<Histogram>& per_op);
  std::string ToString() const { return Format(SnapshotAll()); }

 private:
  // Few enough stripes to keep the footprint small, enough that 8-16
  // concurrent recorders rarely collide on a cell.
  static constexpr int kStripes = 8;

  // One op's counters within one stripe. Buckets are the shared layout from
  // util/Histogram; min/max maintained by CAS (cold once they stabilize).
  struct alignas(64) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[Histogram::kNumBuckets] = {};
  };

  Cell& CellFor(OpType op);

  Cell cells_[kStripes][kNumOpTypes];
};

/// RAII timer: reads the clock only when a recorder is attached, records on
/// destruction. Safe to construct with a null recorder (disabled stats).
class ScopedOpTimer {
 public:
  ScopedOpTimer(LatencyRecorder* recorder, OpType op)
      : recorder_(recorder), op_(op),
        start_(recorder != nullptr ? NowMicros() : 0) {}
  ~ScopedOpTimer() {
    if (recorder_ != nullptr) recorder_->Record(op_, NowMicros() - start_);
  }
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  LatencyRecorder* recorder_;
  OpType op_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_LATENCY_RECORDER_H_
