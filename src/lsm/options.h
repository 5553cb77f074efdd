// DbOptions: engine configuration. Defaults mirror the paper's experimental
// setting scaled to simulator size (DESIGN.md §4): 1KB entries, buffer =
// target file size, size ratio T = 6, 5 bits-per-key Bloom filters.
#ifndef TALUS_LSM_OPTIONS_H_
#define TALUS_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "filter/bloom.h"
#include "filter/filter_allocator.h"
#include "policy/policy_config.h"

namespace talus {

namespace exec {
class ThreadPool;
}  // namespace exec
namespace obs {
class EventRing;
}  // namespace obs
namespace shard {
class SequenceAllocator;
}  // namespace shard

/// When the write path fsyncs the WAL (DESIGN.md §2.9). Syncs are issued by
/// the group-commit leader, so one sync covers every batch in its group.
enum class WalSyncMode {
  /// Never sync on the write path (flush/manifest installs still sync).
  /// A power loss may drop the unsynced WAL tail, never consistency.
  kNone,
  /// One sync per commit group: full durability with the cost amortized
  /// across the group's batches (RocksDB group commit).
  kPerGroup,
  /// Sync at most once per wal_sync_interval_micros: bounded-staleness
  /// durability for ingest-heavy workloads. The bound holds while writes
  /// keep arriving (syncs ride the write path); the tail of a burst that
  /// goes idle stays unsynced until the next write or flush rotation.
  kInterval,
};

/// Who runs the engine's flush and compaction lanes (DESIGN.md §2.1);
/// the maintenance order and backpressure are the same in both modes.
enum class ExecutionMode {
  /// No pool: the thread that queued a lane runs it before its write,
  /// FlushMemTable or Open returns. Deterministic with one writer: every
  /// paper experiment reproduces bit-identically. The default.
  kInline,
  /// A background thread pool runs the lanes.
  kBackground,
};

struct DbOptions {
  Env* env = nullptr;  // Required.
  std::string path;    // Required: directory for SSTs, WAL, MANIFEST.

  uint64_t write_buffer_size = 1 << 20;  // B: memtable capacity in bytes.
  uint64_t target_file_size = 1 << 20;   // Max SST size (RocksDB-style).
  size_t block_size = 4096;

  size_t block_cache_bytes = 8 << 20;
  /// Max open SstReaders cached by the read path's table cache (pinned
  /// handles keep in-use readers alive past eviction). DESIGN.md §2.7.
  size_t table_cache_open_files = 512;

  double bloom_bits_per_key = 5.0;
  FilterLayout filter_layout = FilterLayout::kStatic;
  /// Filter wire format for newly written SSTs. Readers auto-detect per
  /// file, so this can change across restarts without breaking old files.
  /// kLegacy by default to keep the seed's on-disk bytes reproducible;
  /// kBlocked makes every filter probe a single-cache-line access.
  FilterVariant filter_variant = FilterVariant::kLegacy;

  /// When the write path fsyncs the WAL; see WalSyncMode. kNone by default
  /// like production systems.
  WalSyncMode wal_sync_mode = WalSyncMode::kNone;
  /// kInterval only: minimum microseconds between write-path WAL syncs.
  uint64_t wal_sync_interval_micros = 10000;

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  /// Byte budget for one commit group: the leader absorbs queued batches
  /// until their combined encoded size would exceed this (its own batch
  /// always commits). Larger groups amortize WAL appends and syncs further
  /// but lengthen the tail of the writers at the back of the group.
  /// The leader also applies every sub-batch of its group to the memtable,
  /// so one thread at a time inserts (DESIGN.md §2.9).
  uint64_t max_write_group_bytes = 1 << 20;

  GrowthPolicyConfig policy;

  // ---- Range sharding (shard::ShardedDB, DESIGN.md §3) ----
  /// Number of range-partitioned shards shard::ShardedDB::Open creates,
  /// each a full engine (own memtable, WAL, versions, table cache) behind
  /// one shared thread pool and one global sequence allocator. Plain
  /// DB::Open ignores it. 1 behaves bit-identically to the single engine.
  int shard_count = 1;
  /// Explicit split points (shard_count - 1 strictly ascending keys); shard
  /// i owns [point[i-1], point[i]). Empty = uniform split of the 8-byte
  /// key-prefix space (see shard::ShardRouter::DefaultBoundaries — pass
  /// explicit points when keys share a long common prefix). Fixed at store
  /// creation and persisted in the SHARD manifest.
  std::vector<std::string> shard_split_points;
  // Internal wiring, set by ShardedDB::Open on the per-shard options it
  // derives. User code leaves these untouched.
  shard::SequenceAllocator* sequence_allocator = nullptr;  // Global seqs.
  size_t shard_index = 0;  // This engine's index within the sharded store.
  /// Borrowed pool shared by every shard's background jobs; the DB neither
  /// owns nor shuts it down. Null = the DB creates its own.
  exec::ThreadPool* shared_pool = nullptr;

  // ---- Maintenance execution and write backpressure ----
  ExecutionMode execution_mode = ExecutionMode::kInline;
  /// kBackground's flush/compaction threads. Deliberately separate from
  /// the network layer's request workers (server::ServerOptions::
  /// worker_threads) so request execution and engine maintenance cannot
  /// starve each other; a served DB should run kBackground (DESIGN.md §8).
  int num_background_threads = 2;
  /// Immutable memtables allowed before writers stop. Like every stall
  /// threshold it holds in both modes; idle lanes never stall a writer
  /// (DESIGN.md §2.4).
  size_t max_immutable_memtables = 2;
  /// Level-0 run counts triggering write slowdown / stop.
  size_t l0_slowdown_runs = 12;
  size_t l0_stop_runs = 20;
  /// Delay injected per write while in the slowdown regime.
  uint64_t slowdown_delay_micros = 1000;

  // ---- Observability (src/obs/, DESIGN.md §6) ----
  /// When non-empty, every engine event is appended to this file as one
  /// JSON object per line (the talus.events taxonomy) for postmortem stall
  /// reconstruction; Open fails with IOError if it cannot be created.
  /// Ignored when event_ring is supplied (the owner of the shared ring
  /// decides where its trace goes).
  std::string trace_file_path;
  /// Borrowed shared event ring (ShardedDB passes its own to every shard so
  /// cross-shard events land in one ordered stream). Null = the DB owns a
  /// private ring of obs::EventRing::kDefaultCapacity events.
  obs::EventRing* event_ring = nullptr;
  /// When > 0, an obs::StatsSnapshotter samples amp, latency and drift
  /// stats every this many milliseconds into a bounded in-memory ring
  /// (talus.snapshots) and, when stats_snapshot_path is set, an
  /// append-only JSONL time-series file. 0 disables the snapshotter. The
  /// store's one exec::Ticker thread sets the cadence; the samples run on
  /// the background pool. ShardedDB runs one fleet-level snapshotter on
  /// its own ticker instead of per-shard ones.
  uint64_t stats_snapshot_interval_ms = 0;
  /// Snapshotter JSONL output file ("" = in-memory ring only); Open fails
  /// with IOError if it cannot be created.
  std::string stats_snapshot_path;

  // ---- Adaptive tuning (src/tune/, DESIGN.md §9) ----
  /// Close the paper's sense→act loop: a tune::AdaptiveTuner periodically
  /// re-solves the vertical cost model against the windowed measured mix
  /// and amplification, and — when the predicted win exceeds the tuner's
  /// hysteresis band (tune::TunerConfig) — switches the growth policy or
  /// retunes its size ratio at runtime via DB::ApplyPolicyConfig, emitting
  /// kPolicyChange. Requires a vertical-scheme policy (the family the cost
  /// model solves and the only shapes with a cheap live-migration path);
  /// ignored otherwise.
  /// A tuned store persists its current policy config in the manifest and
  /// re-resolves it on reopen, so a store reopened with adaptive_tuning
  /// keeps its tuned design rather than failing the policy-name check.
  bool adaptive_tuning = false;
  /// Cadence of the tuner's decision loop, run inline on the store's one
  /// exec::Ticker thread (shared with the snapshotter, never the pool).
  /// Under shard::ShardedDB the store's ticker runs every shard's pass
  /// (ShardedDB::TuneNow). 0 = no tune task: decisions happen only via
  /// explicit DB::RetuneNow() calls (tests drive this directly).
  uint64_t tune_interval_ms = 1000;
  /// Drift windows with fewer operations than this are skipped by the
  /// tuner: a thin window's mix estimate is noise, not workload.
  uint64_t tune_min_window_ops = 256;
};

}  // namespace talus

#endif  // TALUS_LSM_OPTIONS_H_
