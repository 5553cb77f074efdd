// ShardedDB: the range-sharded engine frontend (DESIGN.md §3). Exposes the
// DB API over N range-partitioned shards, each a complete engine — own
// memtable, WAL, versions, table cache — while three things stay global:
//
//   * one exec::ThreadPool runs every shard's flushes and compactions (and
//     opens the shards in parallel at recovery),
//   * one exec::Ticker thread paces the fleet's stats sampling and every
//     shard's adaptive-tuning pass,
//   * one shard::SequenceAllocator issues sequence numbers, whose visible
//     watermark makes snapshots, scans, and iterators consistent ACROSS
//     shards: every read pins all shards at one global sequence.
//
// Write admission stays local: each shard's exec::StallController paces
// the writers that hit that shard's range, against that shard's own debt
// (DESIGN.md §3). A hot shard slows its own range, not the whole store.
//
// Put/Delete/Get route by key. A Write whose batch spans shards claims one
// contiguous sequence range, commits per-shard sub-batches at pre-assigned
// offsets inside it (DB::WriteAt, on the calling thread), and publishes
// the range once — so a successful multi-shard batch is atomic to every
// snapshot. Failure is weaker (see Write's contract): a crash or a
// per-shard error can leave the batch partially applied, exactly like a
// multi-store transaction without 2PC.
//
// shard_count == 1 behaves bit-identically to a standalone DB (same scan
// results, same talus.stats text) — the allocator degenerates to the
// single-engine last_sequence_ and GetProperty passes straight through.
//
// To serve a ShardedDB over the network, hand it to server::Server
// (src/server/server.h, DESIGN.md §8): the wire protocol fronts exactly
// this API — GET/PUT/DELETE/WRITE/SCAN/PROPERTY — and pipelined client
// writes coalesce into the same Write() batch path.
#ifndef TALUS_SHARD_SHARDED_DB_H_
#define TALUS_SHARD_SHARDED_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "exec/ticker.h"
#include "lsm/db.h"
#include "shard/sequence_allocator.h"
#include "shard/shard_router.h"

namespace talus {
namespace shard {

class ShardedDB {
 public:
  /// Opens (creating if missing) a sharded store at options.path with
  /// options.shard_count shards in shard-<i>/ subdirectories. Split points
  /// come from options.shard_split_points (else a uniform prefix split)
  /// and are fixed at creation: reopening with different ones fails.
  /// Shards are opened in parallel on the shared pool.
  static Status Open(const DbOptions& options,
                     std::unique_ptr<ShardedDB>* dbptr);
  ~ShardedDB();
  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// A batch spanning shards commits one contiguous sequence range,
  /// published once after every shard applied — so a SUCCESSFUL
  /// multi-shard Write is atomic to every snapshot. Sub-batches commit on
  /// the calling thread in shard order, and each is attempted even after
  /// an earlier one failed. Atomicity does not survive failure: a crash
  /// between sub-commits (per-shard WALs, no 2PC) or an error from one
  /// shard (the others' sub-batches are still committed) can leave the
  /// batch partially applied; the first error is returned so the caller
  /// knows.
  Status Write(const WriteBatch& batch);
  Status Get(const Slice& key, std::string* value);
  Status Get(const Slice& key, std::string* value, const Snapshot* snapshot);

  /// Pins every shard at one global sequence (the allocator watermark).
  const Snapshot* GetSnapshot();
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// Cross-shard merging iterator pinned at one global sequence; disjoint
  /// ranges make the merge a concatenation in shard order. Forward-only,
  /// must not outlive the ShardedDB.
  std::unique_ptr<Iterator> NewIterator();
  /// Collects up to `count` live entries with key >= start across shards,
  /// observing one consistent global snapshot.
  Status Scan(const Slice& start, size_t count,
              std::vector<std::pair<std::string, std::string>>* out);

  Status FlushMemTable();
  Status CompactAll();

  /// Same names as DB::GetProperty, combined across shards by each
  /// property's obs::PropertyMerge, plus "talus.shards": per shard, its
  /// range, data bytes and runs, then its own talus.stats. With one shard
  /// every property passes through bit-identically.
  bool GetProperty(const std::string& property, std::string* value);

  std::string DebugString() const;

  /// One metric snapshot per shard, each taken under that shard's mutex
  /// (DB::SnapshotMetrics); the fleet surfaces merge them by the metric
  /// catalog's rules (obs/metric_catalog.h).
  std::vector<obs::MetricSnapshot> SnapshotMetrics() const;
  /// Exact fleet-wide per-op latency merge, indexed by obs::OpType.
  std::vector<Histogram> GetLatencyHistograms() const;
  /// Prometheus exposition of every talus_* engine family, merged across
  /// shards by the catalog's rules (same families as DB::DumpPrometheus).
  /// HTTP `GET /metrics` serves it with the talus_server_* families added
  /// (server::Server::MetricsText, DESIGN.md §8; docs/OPERATIONS.md).
  std::string DumpPrometheus() const;
  /// Fleet-wide amplification accounting: field-wise sum of every shard's
  /// cumulative DB::GetAmpSnapshot() (live-space fields included).
  obs::AmpSnapshot AggregatedAmpSnapshot() const;
  /// The fleet-level stats snapshotter behind "talus.snapshots" (null
  /// unless stats_snapshot_interval_ms > 0). One snapshotter samples the
  /// whole store; the per-shard ones are disabled at Open.
  obs::StatsSnapshotter* stats_snapshotter() { return snapshotter_.get(); }
  /// One adaptive-tuning pass over every shard (DESIGN.md §9): each shard
  /// senses its own drift window, navigates, and retunes independently —
  /// a read-heavy shard can go leveled while its write-heavy neighbour
  /// goes tiered. The store's ticker calls exactly this every
  /// tune_interval_ms; tests and benches call it directly for a
  /// deterministic cadence. Decision state lives in the per-shard tuners
  /// (shard(i)->adaptive_tuner()).
  void TuneNow();
  /// The shared event ring every shard emits into (one globally ordered
  /// stream; cross-shard causality preserved).
  obs::EventRing* event_ring() { return ring_; }

  size_t shard_count() const { return shards_.size(); }
  DB* shard(size_t i) { return shards_[i].get(); }
  const ShardRouter& router() const { return router_; }
  /// Global visibility watermark (largest sequence applied everywhere).
  SequenceNumber VisibleSequence() const { return alloc_.visible(); }

 private:
  ShardedDB() = default;

  DB* Route(const Slice& key) { return shards_[router_.ShardFor(key)].get(); }
  /// Registers a snapshot at `sequence` in every shard; out lives until
  /// ReleaseChildren. Guards cross-shard pins against concurrent
  /// tombstone-GC (see NewIterator's implementation comment).
  void PinAllShards(SequenceNumber sequence,
                    std::vector<const Snapshot*>* children);
  void ReleaseChildren(const std::vector<const Snapshot*>& children);
  std::unique_ptr<Iterator> NewIteratorAt(SequenceNumber sequence);

  DbOptions options_;  // As passed (env, path, shard_count, ...).
  ShardRouter router_;
  SequenceAllocator alloc_;
  // Shared event ring, passed to every shard via DbOptions::event_ring.
  // Declared before shards_ so it outlives them: shard destructors still
  // emit (GC events) while draining. ring_ is owned_ring_ unless the caller
  // lent a ring through DbOptions::event_ring.
  std::unique_ptr<obs::EventRing> owned_ring_;
  obs::EventRing* ring_ = nullptr;
  // Declared before shards_ so shards (each waits for its own tasks on the
  // pool) are destroyed first, then the pool.
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<std::unique_ptr<DB>> shards_;
  // Fleet-level stats snapshotter; its SampleFn touches every shard and
  // the pool, so ~ShardedDB stops it right after the ticker, before
  // anything else is torn down.
  std::unique_ptr<obs::StatsSnapshotter> snapshotter_;
  // The store's one timer thread: the snapshot task and TuneNow across
  // all shards (shards are opened with zero intervals and run none).
  // Stopped first in ~ShardedDB: its tasks walk every shard.
  exec::Ticker ticker_;

  // Live cross-shard snapshots → their per-shard registrations.
  std::mutex snapshot_mu_;
  std::unordered_map<const Snapshot*, std::vector<const Snapshot*>>
      snapshot_children_;
};

}  // namespace shard
}  // namespace talus

#endif  // TALUS_SHARD_SHARDED_DB_H_
