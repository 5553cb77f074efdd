// DB: the talus storage engine facade. Every flush and compaction is one
// maintenance job through one pipeline — pick → plan → merge → install
// (RunJobLocked, DESIGN.md §2.1/§2.8); a flush is the job whose newest input
// is the memtable. Both modes run one maintenance order: a full memtable
// is switched onto an immutable queue with a fresh WAL, which queues the
// flush lane; the flush installs its manifest and deletes the flushed WAL,
// then queues the compaction lane. Merges run with the mutex released, and
// writers are paced by slowdown/stop backpressure (exec/stall_controller.h).
// The execution mode only picks who runs the lanes:
//
//  * ExecutionMode::kInline (default): no pool; the thread that queued a
//    lane runs it before its write, FlushMemTable or Open returns. This
//    (a) makes every single-writer experiment deterministic and (b)
//    surfaces compaction-induced write stalls directly in the
//    windowed-throughput metric — the same phenomenon the paper measures
//    through background-compaction backpressure.
//  * ExecutionMode::kBackground: a thread pool (exec/thread_pool.h) runs
//    them. Put/Delete/Write/Get/Scan/snapshots are safe to call from any
//    number of threads in either mode.
//
// Locking: one mutex guards the mutable DB state (memtables, version
// pointer, WAL, stats, snapshots, GC list). The read path does NOT hold it:
// Get/Scan/NewIterator pin a read::ReadView in one O(1) critical section and
// then run lock-free against the immutable Version, the lock-free-read
// memtables, and the sharded table cache (DESIGN.md §2.3/§2.7). The write
// path holds it only for two short critical sections per commit group:
// writers funnel through a group-commit queue (write/write_queue.h), and the
// group leader performs the WAL append, the amortized sync, and the memtable
// inserts with the mutex released (DESIGN.md §2.9). Every maintenance job
// plans and installs with the mutex held, and owns the runs its plan reads
// or rewrites until it installs, so an install never finds its inputs
// reshaped (DESIGN.md §2.1, §2.8).
#ifndef TALUS_LSM_DB_H_
#define TALUS_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "compaction/compaction_executor.h"
#include "compaction/compaction_plan.h"
#include "exec/stall_controller.h"
#include "exec/thread_pool.h"
#include "exec/ticker.h"
#include "lsm/manifest.h"
#include "lsm/options.h"
#include "lsm/version.h"
#include "lsm/write_batch.h"
#include "mem/memtable.h"
#include "obs/amp_tracker.h"
#include "obs/component_stats.h"
#include "obs/event_ring.h"
#include "obs/latency_recorder.h"
#include "obs/model_drift.h"
#include "obs/stats_snapshotter.h"
#include "policy/growth_policy.h"
#include "read/read_view.h"
#include "read/table_cache.h"
#include "tune/adaptive_tuner.h"
#include "wal/log_writer.h"
#include "write/write_queue.h"

namespace talus {

namespace obs {
struct MetricSnapshot;
}  // namespace obs
namespace shard {
class ShardedDB;
}  // namespace shard

/// Cumulative engine statistics (virtual-clock based where noted): the
/// job and stall counts. The operations — puts, deletes, gets and scans —
/// and the I/O they cause — bytes flushed and compacted, compactions,
/// lookups and what they probed — are counted once, by the amp tracker
/// (DB::GetAmpSnapshot, DESIGN.md §6.6). Every field is updated under the
/// DB mutex.
struct EngineStats {
  uint64_t flushes = 0;

  // Obsolete SSTs physically deleted after their deferred-GC pin count
  // dropped to zero (DESIGN.md §2.7).
  uint64_t obsolete_files_deleted = 0;

  // Longest time a caller with no pool spent running the lanes it queued
  // (its flush and compaction chain), in virtual clock units.
  double max_stall_clock = 0;

  // Maintenance lanes and write backpressure.
  uint64_t memtable_switches = 0;   // Active → immutable handoffs.
  // Stall time split by regime and stall entries split by cause, so
  // talus.stats says *why* writes stalled: memtable = immutable-memtable
  // debt, l0 = level-0 run debt. The totals below are sums of these parts.
  uint64_t stall_slowdown_micros = 0;
  uint64_t stall_stop_micros = 0;
  uint64_t stall_slowdowns_l0 = 0;
  uint64_t stall_stops_memtable = 0;
  uint64_t stall_stops_l0 = 0;
  uint64_t max_imm_queue_depth = 0; // High-water immutable-memtable count.

  /// Writes delayed by the slowdown regime, which only level-0 debt enters.
  uint64_t stall_slowdowns() const { return stall_slowdowns_l0; }
  /// Writes blocked until the debt retired.
  uint64_t stall_stops() const {
    return stall_stops_memtable + stall_stops_l0;
  }
  /// Wall time writers spent stalled, both regimes.
  uint64_t stall_micros() const {
    return stall_slowdown_micros + stall_stop_micros;
  }
};

/// Read view pinned at a point in time. Obtained from DB::GetSnapshot();
/// versions visible to a live snapshot survive compactions until the
/// snapshot is released.
class Snapshot {
 public:
  SequenceNumber sequence() const { return sequence_; }

 private:
  friend class DB;
  friend class shard::ShardedDB;  // Cross-shard snapshots (DESIGN.md §3).
  explicit Snapshot(SequenceNumber s) : sequence_(s) {}
  SequenceNumber sequence_;
};

class DB {
 public:
  static Status Open(const DbOptions& options, std::unique_ptr<DB>* dbptr);
  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// Applies the batch atomically (one WAL record, contiguous sequences).
  /// Batches naming an empty key fail with InvalidArgument as a whole —
  /// their commit group is unaffected (DESIGN.md §2.9).
  Status Write(const WriteBatch& batch);
  /// Sharding layer only (DESIGN.md §3): commits `batch` at a sequence
  /// range the caller pre-claimed from the shared SequenceAllocator
  /// ([base_seq, base_seq + batch.Count())). The range is NOT published to
  /// the allocator here — the caller publishes once every shard of a
  /// multi-shard batch has applied its part, making the batch atomic under
  /// the cross-shard visibility watermark. Requires
  /// DbOptions::sequence_allocator.
  Status WriteAt(const WriteBatch& batch, SequenceNumber base_seq);
  Status Get(const Slice& key, std::string* value);
  /// Point lookup against a pinned snapshot (nullptr = latest).
  Status Get(const Slice& key, std::string* value, const Snapshot* snapshot);

  /// Pins the current state for repeatable reads. Must be released.
  const Snapshot* GetSnapshot();
  /// Registers a snapshot at an externally-chosen sequence (the sharding
  /// layer pins every shard at one global sequence). Must be released like
  /// any snapshot.
  const Snapshot* GetSnapshotAt(SequenceNumber sequence);
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// Manual major compaction: merges every run into a single run at the
  /// bottommost non-empty level (reclaims tombstones and shadowed
  /// versions not pinned by snapshots). Drains pending maintenance first
  /// (FlushMemTable), then waits for the merge on the compaction lane.
  Status CompactAll();

  /// Introspection: the talus.* properties declared in the metric catalog
  /// (obs::FindProperty, obs/metric_catalog.h). Returns false for unknown
  /// names. talus.snapshots is empty without a snapshotter.
  bool GetProperty(const std::string& property, std::string* value);

  /// Collects up to `count` live entries with user key >= start, in order.
  /// Runs on a pinned ReadView without the DB mutex, so it observes a
  /// consistent snapshot while writers and background maintenance proceed.
  Status Scan(const Slice& start, size_t count,
              std::vector<std::pair<std::string, std::string>>* out);
  /// Scan's body over the iterator `open` returns, and the one place a
  /// scan is counted: its kScan latency, its CPU charge and the tracker's
  /// scan count. Sharding layer only besides Scan itself: a multi-shard
  /// ShardedDB::Scan passes the fleet's merged iterator to the shard that
  /// owns `start` (DESIGN.md §3).
  Status ScanFrom(const std::function<std::unique_ptr<Iterator>()>& open,
                  const Slice& start, size_t count,
                  std::vector<std::pair<std::string, std::string>>* out);

  /// Forward iterator over live user keys (tombstones and shadowed versions
  /// skipped). Prev() is not supported. The iterator owns a ReadView: it
  /// pins the memtables AND the on-disk files it reads, observes the
  /// snapshot current at creation time, and survives concurrent flushes and
  /// compactions (obsolete files are deleted only after release). Must not
  /// outlive the DB.
  std::unique_ptr<Iterator> NewIterator();
  /// NewIterator pinned at an explicit visibility bound instead of the
  /// engine's latest sequence: entries written after `sequence` are
  /// invisible. The sharding layer pins every shard's iterator at one
  /// global sequence so a cross-shard scan is a consistent snapshot.
  std::unique_ptr<Iterator> NewIteratorAt(SequenceNumber sequence);

  /// Pins {version, memtables, sequence} in one O(1) critical section. The
  /// returned view keeps every SST it references alive; releasing the last
  /// reference returns the pins and lets deferred GC reclaim files.
  std::shared_ptr<const read::ReadView> AcquireReadView();

  /// Forces a memtable flush (and any compactions it triggers), and blocks
  /// until both lanes are idle.
  Status FlushMemTable();

  /// Not synchronized: meaningful only while no background job is running,
  /// and the reference is valid only until the next flush or compaction
  /// installs a successor version.
  const Version& current_version() const { return *current_; }
  /// A copy taken under the mutex: safe to call while background jobs
  /// run. Quiesce (FlushMemTable) first for counts that include every
  /// accepted write.
  EngineStats stats() const;
  /// Snapshot of the write pipeline's group-commit counters (§2.9).
  obs::GroupCommitStats GetGroupCommitStats() const;
  /// Cumulative operation counts and per-level I/O counters (the amp
  /// tracker's snapshot) with live per-level space filled in from the
  /// current version (takes the mutex briefly). Subtract an earlier
  /// snapshot for a delta. The sharding layer merges these per-shard
  /// snapshots into fleet-wide talus.amp.
  obs::AmpSnapshot GetAmpSnapshot() const;
  /// Evaluates one drift window against the active policy's cost model:
  /// feeds the window's workload mix (its operation counts, or the
  /// lifetime ones when the window holds none) and windowed amp
  /// measurements into the model, emits a kAmpSample event (and
  /// kModelDrift when drift crosses the thresholds), then starts a new
  /// window.
  obs::DriftSample EvaluateModelDrift();
  /// Time-series snapshotter; null unless stats_snapshot_interval_ms > 0.
  obs::StatsSnapshotter* stats_snapshotter() { return snapshotter_.get(); }
  /// Event ring (owned or borrowed via DbOptions::event_ring); never null.
  obs::EventRing* event_ring() { return ring_; }
  /// SnapshotAll() of the recorder, indexed by obs::OpType. The sharding
  /// layer merges these per-shard vectors into fleet-wide talus.latency.
  std::vector<Histogram> GetLatencyHistograms() const;
  /// Prometheus text exposition of every talus_* engine family in the
  /// metric catalog (DESIGN.md §6.3–§6.4).
  std::string DumpPrometheus() const;
  /// This engine's metric values (obs/metric_catalog.h): the state the
  /// DB owns is copied in one critical section, the components with their
  /// own synchronization are read after it. Every stats surface renders
  /// from these snapshots.
  obs::MetricSnapshot SnapshotMetrics() const;
  /// SnapshotMetrics plus one drift evaluation, which consumes the drift
  /// window (EvaluateModelDrift). The JSONL sample's source.
  obs::MetricSnapshot SampleMetrics();
  /// Largest sequence this engine has committed (recovery/sharding
  /// bookkeeping; takes the mutex).
  SequenceNumber LastSequence() const;
  GrowthPolicy* policy() { return policy_.get(); }

  // ---- Adaptive tuning: the sense→act loop (src/tune/, DESIGN.md §9) ----
  /// Installs `config` as the live growth policy without downtime, as a
  /// compaction-lane request that this call waits for. Between two merges
  /// the lane swaps the policy in (the next drift window is priced under it),
  /// emits a kPolicyChange event, persists the config in the manifest (so
  /// a reopen with adaptive_tuning resumes under it), then runs catch-up
  /// compactions that converge the layout toward the new shape. Writers
  /// keep running: the merges release the mutex like every maintenance
  /// job, so the only write pressure is the usual backpressure.
  /// A config equal to the current one is a no-op. Scan results are
  /// unaffected — a policy shapes the tree, never its contents.
  Status ApplyPolicyConfig(const GrowthPolicyConfig& config);
  /// The config of the policy currently installed (reflects runtime
  /// retunes; takes the mutex).
  GrowthPolicyConfig CurrentPolicyConfig() const;
  /// One adaptive-tuning decision pass: consumes one drift window
  /// (EvaluateModelDrift, emitting kAmpSample/kModelDrift), runs the
  /// navigator, and applies a winning design via ApplyPolicyConfig. The
  /// DB's ticker calls this every tune_interval_ms; ShardedDB::TuneNow and
  /// tests call it directly. No-op default decision when adaptive tuning
  /// is off.
  tune::TuneDecision RetuneNow();
  /// Per-engine tuner state; null unless adaptive tuning is active.
  tune::AdaptiveTuner* adaptive_tuner() { return tuner_.get(); }
  Env* env() { return options_.env; }
  const DbOptions& options() const { return options_; }
  LruCache* block_cache() { return block_cache_.get(); }
  read::TableCache* table_cache() { return table_cache_.get(); }

  /// Live logical data size: latest-version key+value bytes across tree and
  /// memtable (upper bound — shadowed versions in overlapping runs counted
  /// once per run).
  uint64_t ApproximateDataBytes() const;

  std::string DebugString() const;

 private:
  DB(const DbOptions& options);

  /// An immutable memtable awaiting flush, with the WAL that covers it.
  struct ImmPartition {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
  };

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  /// Shared body of Put/Delete/Write: joins the writer queue, and — when
  /// this call wins leadership — commits a whole batch group: one short
  /// mutex section gates on stall/bg_error and claims the sequence range,
  /// then WAL append + amortized sync + memtable inserts run with the mutex
  /// released, and a second short section publishes last_sequence_, stats,
  /// and the flush trigger. Sequences are published only after durability
  /// and the inserts succeed, so a failed WAL append leaks nothing; the
  /// failure also latches wal_error_ (see its comment) so the range is
  /// never re-claimed.
  Status CommitGroup(const WriteBatch& my_batch);
  /// CommitGroup body over a caller-prepared writer (WriteAt sets the
  /// preassigned-sequence fields before joining the queue).
  Status CommitWriter(write::Writer* w);
  /// Applies wal_sync_mode: issues (or skips) the group's WAL sync. Leader
  /// only, mutex released; `now` is the append's end (NowMicros), which
  /// kInterval compares with the last sync. *synced reports whether an
  /// fsync was issued.
  Status MaybeSyncWal(wal::LogWriter* wal, uint64_t now, bool* synced);
  Status MaybeStallLocked(std::unique_lock<std::mutex>& lock);
  Status SwitchMemTableLocked();
  SequenceNumber SmallestLiveSnapshotLocked() const;
  uint64_t ApproximateDataBytesLocked() const;

  // ---- Read path (mutex-free after the view pin; DESIGN.md §2.7) ----
  std::shared_ptr<const read::ReadView> AcquireReadViewLocked();
  /// View pinned at an explicit visibility bound (cross-shard snapshots).
  std::shared_ptr<const read::ReadView> AcquireReadViewAtLocked(
      SequenceNumber sequence);
  /// shared_ptr deleter target: returns the view's pins and runs GC.
  void ReleaseReadView(const read::ReadView* view);
  Status GetFromView(const read::ReadView& view, const LookupKey& lkey,
                     std::string* value, obs::LookupProbe* probe);
  std::unique_ptr<Iterator> NewPinnedIterator(
      std::shared_ptr<const read::ReadView> view);

  // ---- Version lifecycle and obsolete-file GC ----
  /// Installs `next` as the current version (refs it, unrefs the old one).
  void InstallVersionLocked(std::unique_ptr<Version> next);
  /// Installs a padded copy when the current version has fewer than
  /// `min_levels` levels (versions are immutable; EnsureLevels on the
  /// current version would race lock-free readers).
  void EnsurePaddedLocked(size_t min_levels);
  /// Queues files dropped from the latest version for deferred deletion.
  void MarkObsoleteLocked(std::vector<FileMetaPtr> files);
  /// Physically deletes queued files whose last reference is the queue
  /// itself (no version, view, or iterator still points at them).
  Status CollectObsoleteLocked();

  /// Flushes `mem` (pinned by the caller) as one maintenance job. Per the
  /// policy's FlushMode it becomes a new front run of level 0 (tiering) or
  /// is merged with level 0's whole newest run, which keeps its run id
  /// (leveling). A leveling flush first lets a compaction lane that waits
  /// for level 0 pick, then waits for a merge that owns that run, then
  /// holds off the compaction lane's picks until it installs.
  /// The files it consumed go to *obsolete: the caller installs the
  /// manifest once the flushed WAL is retired, then queues them.
  Status FlushMemToL0Locked(MemTable* mem, std::unique_lock<std::mutex>& lock,
                            std::vector<FileMetaPtr>* obsolete);
  /// The compaction lane's chain: queued requests ahead of each policy pick.
  Status RunCompactionLoopLocked(std::unique_lock<std::mutex>& lock);

  // ---- Maintenance pipeline: plan → merge → install (DESIGN.md §2.1) ----
  /// Resolves `req` against the current version into an immutable plan
  /// (bits-per-key and smallest snapshot are captured here so the merge
  /// needs no DB state). A flush passes its memtable `mem`, which becomes
  /// the plan's newest input.
  Status PlanForRequestLocked(const CompactionRequest& req, MemTable* mem,
                              compaction::CompactionPlan* plan);
  /// The one maintenance path, shared by flushes (`mem` set) and every
  /// compaction: plan `req` → merge → install a successor version. The job
  /// owns the runs its plan reads or rewrites (merging_runs_) while the
  /// merge runs with the mutex released, and releases them on every exit
  /// with a bg_cv_ notify. *result is the merge accounting, and the files
  /// the install consumed are appended to *consumed (none for an empty
  /// plan). Callers own stats and manifest installs.
  Status RunJobLocked(std::unique_lock<std::mutex>& lock,
                      const CompactionRequest& req, MemTable* mem,
                      compaction::MergeResult* result,
                      std::vector<FileMetaPtr>* consumed);
  /// RunJobLocked for a compaction, then its stats, manifest install,
  /// policy callback and deferred GC of the consumed files.
  Status RunCompactionLocked(std::unique_lock<std::mutex>& lock,
                             const CompactionRequest& job);
  /// The compaction lane calls this before every pick: it waits while a
  /// leveling flush rewrites level 0's run (flush first).
  void WaitOutLevel0FlushLocked(std::unique_lock<std::mutex>& lock);
  /// Deletes merge outputs that never entered a version (failed merges or
  /// refused installs). They are invisible to every reader, so immediate
  /// removal is safe.
  void DeleteUninstalledOutputs(const std::vector<FileMetaPtr>& outputs);
  /// Output-file geometry shared by flush and compaction sorted-output
  /// passes.
  compaction::OutputShape OutputShapeForDb();

  Status InstallManifestLocked();
  Status NewWalLocked();
  Status RecoverWalsLocked(uint64_t oldest_wal,
                           std::vector<uint64_t>* replayed);
  uint64_t OldestLiveWalLocked() const;
  double BitsPerKeyForLevelLocked(int level) const;

  // ---- Maintenance lanes (DESIGN.md §2.1) ----
  /// The engine's two lanes of maintenance work. Each is idle, queued (with
  /// a pool, one pool task submitted for it) or running.
  enum class Lane : uint8_t { kIdle, kQueued, kRunning };
  /// Every lane change goes through here: it notifies bg_cv_, so stall
  /// waits, FlushMemTable and ~DB can wait on the states.
  void SetLaneLocked(Lane* lane, Lane state);
  /// Moves an idle lane to queued, submitting one pool task for it when
  /// there is a pool. A lane that is queued or running needs nothing: its
  /// loop re-checks for work under the mutex before it goes idle. A refused
  /// Submit leaves it idle.
  void QueueLaneLocked(Lane* lane);
  /// The body of a pool task: runs the engine's queued flush if there is
  /// one, else its queued compaction; a failure latches bg_error_.
  void RunQueuedLaneLocked(std::unique_lock<std::mutex>& lock);
  /// With no pool, runs queued lanes on this thread until none is queued
  /// and records the stall in max_stall_clock; returns bg_error_. With a
  /// pool, returns OK at once: the pool runs them.
  Status DrainLanesLocked(std::unique_lock<std::mutex>& lock);
  /// Work a caller asks the compaction lane for: a switch to `config` when
  /// `policy` is set, else a compact-all. `status` is set once it has run.
  struct LaneRequest {
    std::unique_ptr<GrowthPolicy> policy;
    GrowthPolicyConfig config;
    std::optional<Status> status;
  };
  /// Queues `req` on the compaction lane and waits until it has run; Busy
  /// at once if the lane cannot take it (a shut-down pool refused it).
  Status RunOnCompactionLaneLocked(std::unique_lock<std::mutex>& lock,
                                   LaneRequest* req);
  /// A request's body, run by the chain: a compact-all's one whole-tree
  /// merge, or a switch's swap, manifest write and catch-up merges.
  Status RunLaneRequestLocked(std::unique_lock<std::mutex>& lock,
                              LaneRequest* req);
  /// Drains imm_ oldest-first, one maintenance job per memtable.
  Status FlushImmutablesLocked(std::unique_lock<std::mutex>& lock);
  bool BackgroundIdleLocked() const {
    return flush_lane_ == Lane::kIdle && compaction_lane_ == Lane::kIdle;
  }

  DbOptions options_;
  std::unique_ptr<GrowthPolicy> policy_;
  std::unique_ptr<LruCache> block_cache_;
  std::unique_ptr<read::TableCache> table_cache_;

  // Guards every mutable field below unless noted otherwise.
  mutable std::mutex mutex_;
  // Signaled when background work completes (stalled writers, FlushMemTable
  // waiters re-check their conditions).
  std::condition_variable bg_cv_;

  std::shared_ptr<MemTable> mem_;
  std::deque<ImmPartition> imm_;  // Oldest first; back() is newest.
  std::unique_ptr<wal::LogWriter> wal_;
  uint64_t wal_number_ = 0;

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  // The writer queue has its own internal lock, taken either with no other
  // lock held or inside mutex_ (never the reverse).
  std::unique_ptr<write::WriteQueue> write_queue_;
  // Group-commit counters; updated and snapshotted under mutex_.
  obs::GroupCommitTracker write_stats_;
  // True while a group leader is appending to the WAL / inserting into
  // mem_ with the mutex released. FlushMemTable waits for it to clear
  // before switching or flushing the active memtable, so a mid-commit
  // insert is never flushed out from under its group.
  bool commit_in_flight_ = false;
  // kInterval sync bookkeeping. Leader-only: reads and writes happen off
  // the mutex but are serialized (and ordered) by queue leadership handoff.
  uint64_t last_wal_sync_micros_ = 0;
  // First write-path WAL append/sync failure; all subsequent writes fail
  // fast with it (reads and flushes of already-committed state continue).
  // Latching is what keeps sequences unique: a failed append may still
  // have persisted its record, so re-claiming the failed group's range
  // could otherwise put two records with the same base_seq in the WAL and
  // make recovery replay duplicate sequences.
  Status wal_error_;

  // Current version. Heap-allocated and refcounted: the DB holds one
  // reference, every ReadView one more. Mutations install a successor copy
  // (InstallVersionLocked) instead of editing in place, so lock-free
  // readers always walk an immutable object.
  Version* current_ = nullptr;
  // Obsolete SSTs awaiting deletion: each entry is the GC queue's own
  // reference; a file is deleted when that reference is the last one.
  std::vector<FileMetaPtr> gc_pending_;
  // Mirror of gc_pending_.size(): lets view release skip the mutex when
  // nothing is queued.
  std::atomic<size_t> gc_pending_count_{0};

  // Atomic so background SST builds can allocate file numbers while the
  // mutex is released.
  std::atomic<uint64_t> next_file_number_{1};
  uint64_t next_run_id_ = 1;
  uint64_t manifest_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  uint64_t flush_count_ = 0;

  // Sequences pinned by live snapshots (multiset: snapshots may coincide).
  std::multiset<SequenceNumber> snapshot_seqs_;

  EngineStats stats_;

  // ---- Observability (src/obs/, DESIGN.md §6) ----
  // Per-op latency histograms, always on: every op reads the clock twice
  // and adds to lock-free striped counters (DESIGN.md §6.5).
  obs::LatencyRecorder latency_;
  // ring_ points at owned_ring_ unless DbOptions::event_ring lends a shared
  // one (sharded stores). Emits happen inside and outside mutex_; the ring
  // has its own lock.
  std::unique_ptr<obs::EventRing> owned_ring_;
  obs::EventRing* ring_ = nullptr;
  // The only store of the engine's operation and I/O counters. Write-side
  // hooks run under mutex_; the tracker itself is lock-free.
  obs::AmpTracker amp_;
  // Prices the amp tracker's windows against the model of the design in
  // options_.policy; keeps only the mix-shift baseline.
  obs::ModelDriftMonitor drift_;
  // Null unless stats_snapshot_interval_ms > 0. Its samples read engine
  // state and may run on the shared pool, so ~DB stops it right after the
  // ticker, before anything else is torn down.
  std::unique_ptr<obs::StatsSnapshotter> snapshotter_;
  // Adaptive tuner decision state (null unless adaptive_tuning is active).
  std::unique_ptr<tune::AdaptiveTuner> tuner_;
  // Runs the snapshot and tune tasks at their intervals; no thread when
  // both are off (always, for a shard: its ShardedDB ticks instead).
  // Stopped first in ~DB.
  exec::Ticker ticker_;
  /// Fills the per-level live_sst/live_payload fields from current_.
  void FillLiveSpaceLocked(obs::AmpSnapshot* snap) const;

  // ---- Background execution (pool null under kInline) ----
  // The pool is either owned (standalone DB) or borrowed from the sharded
  // store (DbOptions::shared_pool); only an owned pool is shut down here.
  std::unique_ptr<exec::ThreadPool> owned_pool_;
  exec::ThreadPool* pool_ = nullptr;
  const exec::StallController stall_;
  // The engine's one record of its maintenance work (see Lane): at most one
  // flush drain and one compaction chain run at a time, and every merge
  // starts in one of them.
  Lane flush_lane_ = Lane::kIdle;
  Lane compaction_lane_ = Lane::kIdle;
  // Run ownership: the ids of the runs in-flight merges read or rewrite. A
  // run has at most one owner, because a leveling flush waits for the
  // merge that owns its target, and the compaction lane picks nothing
  // while level0_flush_ is set.
  std::multiset<uint64_t> merging_runs_;
  // Set while a leveling flush rewrites level 0's newest run.
  bool level0_flush_ = false;
  // Set while the compaction lane waits for level0_flush_ to clear; the
  // next flush lets it pick first.
  bool pick_waiting_ = false;
  // CompactAll and ApplyPolicyConfig requests, oldest first, owned by their
  // waiting callers; empty whenever the compaction lane is idle.
  std::deque<LaneRequest*> lane_requests_;
  // Set by ~DB: idle lanes stay idle, so the teardown wait ends.
  bool closing_ = false;
  // First maintenance failure; writers fail fast once set.
  Status bg_error_;
};

}  // namespace talus

#endif  // TALUS_LSM_DB_H_
