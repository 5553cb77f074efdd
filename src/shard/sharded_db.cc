#include "shard/sharded_db.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>

#include "obs/metric_catalog.h"
#include "shard/shard_iterator.h"
#include "shard/shard_manifest.h"
#include "util/wall_clock.h"

namespace talus {
namespace shard {

namespace {

// Routes a batch's operations into per-shard sub-batches, preserving each
// shard's op order (same-key ops always land in the same shard, so
// overwrite semantics survive the split).
class BatchSplitter : public WriteBatch::Handler {
 public:
  BatchSplitter(const ShardRouter* router, size_t shard_count)
      : router_(router), batches(shard_count) {}
  void Put(const Slice& key, const Slice& value) override {
    batches[router_->ShardFor(key)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    batches[router_->ShardFor(key)].Delete(key);
  }

  size_t UsedShards() const {
    size_t used = 0;
    for (const auto& b : batches) used += b.empty() ? 0 : 1;
    return used;
  }

  const ShardRouter* router_;
  std::vector<WriteBatch> batches;
};

}  // namespace

Status ShardedDB::Open(const DbOptions& options,
                       std::unique_ptr<ShardedDB>* dbptr) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("env and path are required");
  }
  if (options.shard_count < 1 || options.shard_count > 1024) {
    return Status::InvalidArgument("shard_count must be in [1, 1024]");
  }
  auto db = std::unique_ptr<ShardedDB>(new ShardedDB());
  db->options_ = options;
  // One shared event ring for the whole store: every shard emits into it,
  // so cross-shard causality (a hot shard's stall vs. another's flush)
  // lands in one ordered stream — and one JSONL trace file.
  if (options.event_ring != nullptr) {
    db->ring_ = options.event_ring;
  } else {
    db->owned_ring_ =
        std::make_unique<obs::EventRing>(obs::EventRing::kDefaultCapacity);
    db->ring_ = db->owned_ring_.get();
    if (!options.trace_file_path.empty() &&
        !db->ring_->OpenTraceFile(options.trace_file_path)) {
      return Status::IOError("cannot open trace file",
                             options.trace_file_path);
    }
  }
  Env* env = options.env;
  Status s = env->CreateDirIfMissing(options.path);
  if (!s.ok()) return s;

  // Fix the split points: the requested ones for a fresh store, the SHARD
  // manifest's for an existing one — and the two must agree, because the
  // shard directories are physical key ranges.
  std::vector<std::string> requested =
      options.shard_split_points.empty()
          ? ShardRouter::DefaultBoundaries(options.shard_count)
          : options.shard_split_points;
  if (requested.size() != static_cast<size_t>(options.shard_count) - 1) {
    return Status::InvalidArgument(
        "shard_split_points must name shard_count - 1 split keys");
  }
  ShardManifest manifest;
  s = ReadShardManifest(env, options.path, &manifest);
  if (s.ok()) {
    if (manifest.boundaries != requested) {
      return Status::InvalidArgument(
          "store was created with different shard split points", options.path);
    }
  } else if (s.IsNotFound()) {
    manifest.boundaries = std::move(requested);
    s = WriteShardManifest(env, options.path, manifest);
    if (!s.ok()) return s;
  } else {
    return s;
  }
  s = ShardRouter::Create(manifest.boundaries, &db->router_);
  if (!s.ok()) return s;

  const size_t n = db->router_.shard_count();
  db->pool_ =
      std::make_unique<exec::ThreadPool>(options.num_background_threads);

  // Open the shards in parallel on the shared pool: recovery (WAL replay +
  // the recovered-memtable flush) dominates reopen time and the shards are
  // fully independent until the allocator is seeded below.
  db->shards_.resize(n);
  std::vector<Status> results(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = n;
  for (size_t i = 0; i < n; i++) {
    DbOptions shard_opts = options;
    shard_opts.path = ShardDirName(options.path, i);
    shard_opts.shard_count = 1;
    shard_opts.shard_split_points.clear();
    shard_opts.shard_index = i;
    shard_opts.sequence_allocator = &db->alloc_;
    shard_opts.shared_pool = db->pool_.get();
    shard_opts.event_ring = db->ring_;
    // The store's ticker (below) runs one fleet-level snapshotter and
    // every shard's tuning pass; zero intervals leave a shard's own ticker
    // without tasks, hence without a thread. Each shard keeps its own
    // tuner (decision state, counters).
    shard_opts.stats_snapshot_interval_ms = 0;
    shard_opts.stats_snapshot_path.clear();
    shard_opts.tune_interval_ms = 0;
    auto open_one = [&db, &results, &mu, &cv, &remaining, i, shard_opts] {
      Status os = DB::Open(shard_opts, &db->shards_[i]);
      std::lock_guard<std::mutex> lock(mu);
      results[i] = std::move(os);
      if (--remaining == 0) cv.notify_all();
    };
    if (!db->pool_->Submit(open_one)) open_one();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  for (const Status& rs : results) {
    if (!rs.ok()) return rs;
  }

  // Seed the global sequence authority past everything any shard recovered.
  SequenceNumber last = 0;
  for (const auto& sh : db->shards_) {
    last = std::max(last, sh->LastSequence());
  }
  db->alloc_.Reset(last);

  ShardedDB* raw = db.get();
  if (options.stats_snapshot_interval_ms > 0) {
    obs::StatsSnapshotter::Options snap_opts;
    snap_opts.jsonl_path = options.stats_snapshot_path;
    s = obs::StatsSnapshotter::Open(
        db->pool_.get(), snap_opts,
        [raw] {
          // Each shard's drift evaluation emits its own kAmpSample /
          // kModelDrift into the shared ring.
          std::vector<obs::MetricSnapshot> snaps;
          for (auto& sh : raw->shards_) snaps.push_back(sh->SampleMetrics());
          return obs::RenderJsonSample(snaps, NowMicros());
        },
        &db->snapshotter_);
    if (!s.ok()) return s;
    db->ticker_.Add(options.stats_snapshot_interval_ms,
                    [raw] { raw->snapshotter_->SampleAsync(); });
  }
  if (options.adaptive_tuning) {
    db->ticker_.Add(options.tune_interval_ms, [raw] { raw->TuneNow(); });
  }
  db->ticker_.Start();

  *dbptr = std::move(db);
  return Status::OK();
}

void ShardedDB::TuneNow() {
  for (auto& sh : shards_) sh->RetuneNow();
}

ShardedDB::~ShardedDB() {
  // The ticker's tasks and the snapshotter's SampleFn walk every shard;
  // stop both before any shard (or the pool) goes away.
  ticker_.Stop();
  if (snapshotter_ != nullptr) snapshotter_->Stop();
  // Stray snapshots (the caller should have released them) must drop their
  // per-shard registrations before the shards go away.
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    for (auto& entry : snapshot_children_) {
      for (size_t i = 0; i < entry.second.size(); i++) {
        shards_[i]->ReleaseSnapshot(entry.second[i]);
      }
      delete entry.first;
    }
    snapshot_children_.clear();
  }
  shards_.clear();  // Each shard waits for its own tasks on the pool.
  if (pool_ != nullptr) pool_->Shutdown();
}

Status ShardedDB::Put(const Slice& key, const Slice& value) {
  return Route(key)->Put(key, value);
}

Status ShardedDB::Delete(const Slice& key) { return Route(key)->Delete(key); }

Status ShardedDB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  if (batch.HasEmptyKey()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  if (shards_.size() == 1) return shards_[0]->Write(batch);

  BatchSplitter splitter(&router_, shards_.size());
  Status s = batch.Iterate(&splitter);
  if (!s.ok()) return s;
  if (splitter.UsedShards() == 1) {
    // Single-shard batch: the shard's own group commit claims and
    // publishes normally.
    for (size_t i = 0; i < shards_.size(); i++) {
      if (!splitter.batches[i].empty()) return shards_[i]->Write(batch);
    }
  }

  // Multi-shard batch: claim ONE contiguous range for every sub-batch and
  // publish it once after all shards applied. The watermark cannot enter
  // the range until the publish, so a cross-shard snapshot sees the whole
  // batch or none of it. The sub-batches commit on the calling thread, in
  // shard order, each through its shard's group commit, so a batch costs
  // no thread creation, stacks, malloc arenas or context switches. A
  // commit that stalls waits on this thread; the flushes it waits for run
  // on the shared pool. Every sub-batch is attempted even after one
  // fails. On error the range is still published
  // (burned): the failing shard latched its error and an unpublished hole
  // would wedge the watermark — but the other shards' sub-batches ARE
  // committed, so a failed multi-shard Write can leave the batch partially
  // applied (see the header contract).
  const uint64_t total = batch.Count();
  const SequenceNumber base = alloc_.Claim(total);
  SequenceNumber next = base;
  Status result;
  for (size_t i = 0; i < shards_.size(); i++) {
    const WriteBatch& sub = splitter.batches[i];
    if (sub.empty()) continue;
    Status ws = shards_[i]->WriteAt(sub, next);
    next += sub.Count();
    if (result.ok()) result = ws;
  }
  alloc_.Publish(base, total);
  return result;
}

Status ShardedDB::Get(const Slice& key, std::string* value) {
  return Route(key)->Get(key, value);
}

Status ShardedDB::Get(const Slice& key, std::string* value,
                      const Snapshot* snapshot) {
  return Route(key)->Get(key, value, snapshot);
}

void ShardedDB::PinAllShards(SequenceNumber sequence,
                             std::vector<const Snapshot*>* children) {
  children->reserve(shards_.size());
  for (auto& sh : shards_) {
    children->push_back(sh->GetSnapshotAt(sequence));
  }
}

void ShardedDB::ReleaseChildren(
    const std::vector<const Snapshot*>& children) {
  for (size_t i = 0; i < children.size(); i++) {
    shards_[i]->ReleaseSnapshot(children[i]);
  }
}

const Snapshot* ShardedDB::GetSnapshot() {
  // Two-phase pin (see NewIteratorAt for why the placeholder is needed).
  std::vector<const Snapshot*> placeholder;
  PinAllShards(0, &placeholder);
  const SequenceNumber seq = alloc_.visible();
  std::vector<const Snapshot*> children;
  PinAllShards(seq, &children);
  ReleaseChildren(placeholder);
  auto* snap = new Snapshot(seq);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_children_[snap] = std::move(children);
  return snap;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  std::vector<const Snapshot*> children;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    auto it = snapshot_children_.find(snapshot);
    if (it == snapshot_children_.end()) return;
    children = std::move(it->second);
    snapshot_children_.erase(it);
  }
  ReleaseChildren(children);
  delete snapshot;
}

std::unique_ptr<Iterator> ShardedDB::NewIteratorAt(SequenceNumber sequence) {
  // Guard the pin window: between choosing `sequence` and pinning a
  // shard's ReadView, a concurrent compaction in that shard could plan
  // with a GC horizon above `sequence` and drop shadowed versions the
  // chain is entitled to see. A placeholder snapshot at sequence 0 —
  // registered in every shard BEFORE `sequence` was chosen by the caller
  // (GetSnapshot) or here — forces every plan in the window to keep
  // everything; plans from before the placeholder use a horizon no larger
  // than the watermark at that earlier time, which monotonicity keeps at
  // or below `sequence`. Once every view is pinned the placeholder is
  // dropped: pinned views read immutable state.
  std::vector<const Snapshot*> pins;
  PinAllShards(sequence, &pins);
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(shards_.size());
  for (auto& sh : shards_) {
    children.push_back(sh->NewIteratorAt(sequence));
  }
  ReleaseChildren(pins);
  return std::make_unique<ShardChainIterator>(&router_, std::move(children));
}

std::unique_ptr<Iterator> ShardedDB::NewIterator() {
  if (shards_.size() == 1) return shards_[0]->NewIterator();
  std::vector<const Snapshot*> placeholder;
  PinAllShards(0, &placeholder);
  const SequenceNumber seq = alloc_.visible();
  auto iter = NewIteratorAt(seq);
  ReleaseChildren(placeholder);
  return iter;
}

Status ShardedDB::Scan(const Slice& start, size_t count,
                       std::vector<std::pair<std::string, std::string>>* out) {
  if (shards_.size() == 1) return shards_[0]->Scan(start, count, out);
  // The shard that owns `start` counts the scan, once, however many shards
  // the fleet's merged iterator crosses.
  return Route(start)->ScanFrom([this] { return NewIterator(); }, start,
                                count, out);
}

Status ShardedDB::FlushMemTable() {
  // Sequential on the caller's thread: a shard's FlushMemTable blocks on
  // background jobs that need pool threads, so fanning the waits out over
  // the same pool could deadlock.
  Status result;
  for (auto& sh : shards_) {
    Status s = sh->FlushMemTable();
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

Status ShardedDB::CompactAll() {
  Status result;
  for (auto& sh : shards_) {
    Status s = sh->CompactAll();
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

std::vector<obs::MetricSnapshot> ShardedDB::SnapshotMetrics() const {
  std::vector<obs::MetricSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(sh->SnapshotMetrics());
  return out;
}

bool ShardedDB::GetProperty(const std::string& property, std::string* value) {
  value->clear();
  if (property == "talus.shards") {
    // One line per shard: its range, size and runs, then its talus.stats.
    for (const obs::MetricSnapshot& sh : SnapshotMetrics()) {
      *value += "shard=" + std::to_string(sh.shard_index) + " range=" +
                router_.RangeLabel(sh.shard_index) +
                " data_bytes=" + std::to_string(sh.data_bytes) +
                " runs=" + std::to_string(sh.num_runs) + " " +
                obs::RenderStats({sh}) + "\n";
    }
    return true;
  }
  if (property == "talus.snapshots") {
    // The fleet snapshotter's ring, not a shard's: per-shard snapshotters
    // are disabled at Open, so even with one shard this is the only ring
    // with samples in it.
    if (snapshotter_ != nullptr) *value = snapshotter_->RingText();
    return true;
  }
  // One shard: the engine's own output, bit-identical to a standalone DB.
  // (talus.latency and talus.events included: the shard's ring IS the
  // shared ring, and its recorder holds every observation.)
  if (shards_.size() == 1) return shards_[0]->GetProperty(property, value);

  const obs::PropertyDef* def = obs::FindProperty(property);
  if (def == nullptr) return false;
  switch (def->merge) {
    case obs::PropertyMerge::kCatalog:
      *value = obs::RenderStats(SnapshotMetrics());
      return true;
    case obs::PropertyMerge::kSum: {
      uint64_t total = 0;
      for (auto& sh : shards_) {
        std::string one;
        if (!sh->GetProperty(property, &one)) return false;
        total += std::strtoull(one.c_str(), nullptr, 10);
      }
      *value = std::to_string(total);
      return true;
    }
    case obs::PropertyMerge::kPerShard:
      if (property == "talus.amp") {
        // The fleet-wide merge first (what a dashboard scrapes).
        *value = "-- fleet cumulative --\n" +
                 AggregatedAmpSnapshot().ToString();
      }
      for (size_t i = 0; i < shards_.size(); i++) {
        std::string one;
        if (!shards_[i]->GetProperty(property, &one)) return false;
        *value += "-- shard " + std::to_string(i) + " --\n" + one;
        if (!one.empty() && one.back() != '\n') *value += '\n';
      }
      return true;
    case obs::PropertyMerge::kFleet:
      // talus.shards and talus.snapshots are answered above. Latency
      // merges exactly: the shards share one bucket layout (DESIGN.md
      // §6.3); events come from the ring every shard emits into.
      *value = property == "talus.events"
                   ? ring_->ToString()
                   : obs::LatencyRecorder::Format(GetLatencyHistograms());
      return true;
  }
  return false;
}

std::vector<Histogram> ShardedDB::GetLatencyHistograms() const {
  std::vector<Histogram> out(obs::kNumOpTypes);
  for (const auto& sh : shards_) {
    const std::vector<Histogram> one = sh->GetLatencyHistograms();
    for (size_t op = 0; op < out.size(); op++) out[op].Merge(one[op]);
  }
  return out;
}

std::string ShardedDB::DumpPrometheus() const {
  return obs::RenderPrometheus(SnapshotMetrics());
}

obs::AmpSnapshot ShardedDB::AggregatedAmpSnapshot() const {
  obs::AmpSnapshot out;
  for (const auto& sh : shards_) out.Add(sh->GetAmpSnapshot());
  return out;
}

std::string ShardedDB::DebugString() const {
  std::string out;
  for (size_t i = 0; i < shards_.size(); i++) {
    char head[64];
    std::snprintf(head, sizeof(head), "-- shard %zu --\n", i);
    out += head;
    out += shards_[i]->DebugString();
  }
  return out;
}

}  // namespace shard
}  // namespace talus
