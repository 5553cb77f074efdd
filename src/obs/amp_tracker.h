#ifndef TALUS_OBS_AMP_TRACKER_H_
#define TALUS_OBS_AMP_TRACKER_H_

// Per-level I/O accounting: the measured counterpart of the cost models in
// src/tuning/, and the engine's only store of its operation and I/O
// counters (DESIGN.md §6.6). It counts every user operation once: the
// puts and deletes each commit group applied (batch entries included),
// the point lookups and the scans. The write side counts the bytes each
// flush and compaction reads and writes, and the compactions, per level;
// the read side attributes every lookup probe (files touched, filter
// negatives and Bloom false positives, data blocks fetched and cache
// hits, the level that decided the key) to its level without taking a
// lock on the read path. Every flat I/O total the engine reports (in
// talus.stats, talus.cstats and the talus_*_total families) is a sum over
// these rows, and the measured workload mix (w, r, q) is a ratio of its
// operation counts (AmpSnapshot::Mix). Snapshots are linearizable enough
// for monitoring: each counter is read atomically, cross-counter skew is
// bounded by in-flight operations.
//
// Write-side events (flush/compaction install, committed groups) are
// rare, so they use plain relaxed atomics.  Read-side folding happens
// once per Get or Scan, so it uses the same cache-line-striped cell
// layout as LatencyRecorder to keep concurrent readers off each other's
// lines.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "tuning/workload_mix.h"

namespace talus {
namespace obs {

// Levels at or beyond the last slot fold into it; 16 levels hold any
// realistic tree (size ratio >= 2 over 2^64 bytes).
constexpr int kAmpMaxLevels = 16;

inline int AmpSlot(int level) {
  if (level < 0) return 0;
  if (level >= kAmpMaxLevels) return kAmpMaxLevels - 1;
  return level;
}

/// A point-in-time copy of every amp counter, plus live space per level
/// (filled by the owner from the current Version — the tracker itself
/// has no view of file metadata).  Value type: snapshots subtract to
/// form windows and add to form fleet-wide aggregates.
struct AmpSnapshot {
  struct Level {
    // Write side.
    uint64_t flush_bytes_written = 0;
    // Entry bytes a flush merged: the memtable's and those of a run it
    // merges into.
    uint64_t flush_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;  // Index = output level.
    uint64_t compaction_bytes_read = 0;
    uint64_t compactions = 0;
    // Read side.
    uint64_t files_probed = 0;
    uint64_t filter_negatives = 0;
    uint64_t bloom_false_positives = 0;
    uint64_t block_reads = 0;
    uint64_t cache_hits = 0;  // Data blocks the block cache served.
    uint64_t hits = 0;
    // Space (live Version at snapshot time; not windowed/merged-cumulative
    // semantics — Subtract leaves them at the "now" value).
    uint64_t live_sst_bytes = 0;
    uint64_t live_payload_bytes = 0;
  };

  Level levels[kAmpMaxLevels];
  int num_levels = 0;  // 1 + deepest slot ever touched
  uint64_t puts = 0;     // committed, batch entries included
  uint64_t deletes = 0;  // committed, batch entries included
  uint64_t lookups = 0;  // point lookups (Get)
  uint64_t scans = 0;
  uint64_t memtable_hits = 0;  // active + immutable memtables
  uint64_t misses = 0;
  uint64_t user_payload_bytes = 0;  // committed key+value bytes

  /// Updates, point lookups and scans: every operation counted.
  uint64_t Operations() const { return puts + deletes + lookups + scans; }
  /// The (w, r, q) fractions of §5.2: updates (puts and deletes), point
  /// lookups and scans over Operations(); 0.5/0.5/0 when there are none.
  WorkloadMix Mix() const;
  /// One per-level field summed over the levels.
  uint64_t Total(uint64_t Level::*field) const;
  uint64_t TotalBytesFlushed() const;
  uint64_t TotalBytesCompacted() const;
  // (flush + compaction bytes written) / user payload; 0 when no payload.
  double WriteAmp() const;
  // Files probed per point lookup; 0 when no lookups.
  double ReadAmp() const;
  // Data blocks fetched per point lookup (the model's R unit).
  double BlocksPerLookup() const;
  // Live SST bytes / live logical payload bytes across levels; 1 when the
  // tree is empty.  Memtable contents are excluded (documented in
  // DESIGN.md §6.6).
  double SpaceAmp() const;

  // Element-wise accumulate (fleet-wide aggregation across shards).
  void Add(const AmpSnapshot& other);
  // Saturating element-wise subtract (windowed deltas).  Space fields are
  // left at this snapshot's values: "live bytes now" is already a window
  // quantity.
  void Subtract(const AmpSnapshot& base);

  // The talus.amp text format: a summary line, then one line per level.
  // All byte counts are exact integers so tests can assert ground truth.
  std::string ToString() const;
  // The talus.cstats text: compactions and their bytes per output level,
  // through the deepest level any compaction wrote.
  std::string CompactionsToString() const;
};

/// Per-lookup probe attribution, filled on the caller's stack by the
/// read path and folded into the tracker once per Get: the only record a
/// lookup leaves in the engine's counters.
struct LookupProbe {
  static constexpr int kHitMemtable = -1;
  static constexpr int kMiss = -2;

  uint16_t files_probed[kAmpMaxLevels] = {};
  uint16_t filter_negatives[kAmpMaxLevels] = {};
  uint16_t bloom_false_positives[kAmpMaxLevels] = {};
  uint16_t block_reads[kAmpMaxLevels] = {};
  uint16_t cache_hits[kAmpMaxLevels] = {};
  int deepest_slot = -1;             // deepest slot with any activity
  int hit_level = kMiss;             // kHitMemtable, kMiss, or level index
};

class AmpTracker {
 public:
  AmpTracker() = default;

  AmpTracker(const AmpTracker&) = delete;
  AmpTracker& operator=(const AmpTracker&) = delete;

  // ---- Write side (rare; called with the DB mutex held — plain relaxed
  // atomics). ----
  void RecordFlush(int level, uint64_t bytes_read, uint64_t bytes_written);
  // One compaction installed at output `level`.
  void RecordCompaction(int level, uint64_t bytes_read,
                        uint64_t bytes_written);
  // One commit group's applied puts, deletes and key+value bytes.
  void RecordWrite(uint64_t puts, uint64_t deletes, uint64_t payload_bytes);

  // ---- Read side (hot; mutex-free, striped by thread). ----
  void RecordLookup(const LookupProbe& probe);
  void RecordScan();

  // Cumulative counters since construction.  Space fields are zero; the
  // owner fills them from the live Version.
  AmpSnapshot Snapshot() const;
  // Counters since the last AdvanceWindow() (or construction).
  AmpSnapshot WindowSnapshot() const;
  // Start a new window at "now".  Single-consumer (the drift monitor /
  // property reader); safe against concurrent recorders.
  void AdvanceWindow();

 private:
  static constexpr int kStripes = 8;

  struct alignas(64) ReadCell {
    std::atomic<uint64_t> files_probed[kAmpMaxLevels];
    std::atomic<uint64_t> filter_negatives[kAmpMaxLevels];
    std::atomic<uint64_t> bloom_false_positives[kAmpMaxLevels];
    std::atomic<uint64_t> block_reads[kAmpMaxLevels];
    std::atomic<uint64_t> cache_hits[kAmpMaxLevels];
    std::atomic<uint64_t> hits[kAmpMaxLevels];
    std::atomic<uint64_t> lookups;
    std::atomic<uint64_t> scans;
    std::atomic<uint64_t> memtable_hits;
    std::atomic<uint64_t> misses;
  };

  static int StripeForThisThread();

  // Every counter is value-initialized, so it starts at zero.
  ReadCell cells_[kStripes]{};

  std::atomic<uint64_t> flush_bytes_[kAmpMaxLevels]{};
  std::atomic<uint64_t> flush_bytes_read_[kAmpMaxLevels]{};
  std::atomic<uint64_t> compaction_bytes_written_[kAmpMaxLevels]{};
  std::atomic<uint64_t> compaction_bytes_read_[kAmpMaxLevels]{};
  std::atomic<uint64_t> compactions_[kAmpMaxLevels]{};
  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> user_payload_bytes_{0};
  std::atomic<int> max_slot_{-1};

  void NoteSlot(int slot);

  // Window base: a full snapshot taken at the last AdvanceWindow().
  mutable std::mutex window_mu_;
  AmpSnapshot window_base_;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_AMP_TRACKER_H_
