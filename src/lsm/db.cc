#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <set>
#include <thread>

#include "compaction/compaction_install.h"
#include "compaction/compaction_planner.h"
#include "compaction/sorted_output.h"
#include "filter/bloom.h"
#include "lsm/filename.h"
#include "obs/metric_catalog.h"
#include "shard/sequence_allocator.h"
#include "table/merging_iterator.h"
#include "table/run_iterator.h"
#include "util/coding.h"
#include "util/wall_clock.h"
#include "wal/log_reader.h"

namespace talus {

namespace {

// CPU epsilons the virtual clock charges per applied write and per
// Get/Scan call (env/io_stats.h, DESIGN.md §4).
constexpr double kCpuCostPerWrite = 0.02;
constexpr double kCpuCostPerRead = 0.02;

// WAL record: base_seq fixed64 | concatenated WriteBatch reps. The group
// leader emits one record per commit group (CommitGroup), so every batch in
// the group — and every multi-op batch — commits atomically.
bool DecodeWalRecord(Slice input, SequenceNumber* base_seq,
                     WriteBatch* batch) {
  uint64_t s;
  if (!GetFixed64(&input, &s)) return false;
  *base_seq = s;
  return WriteBatch::FromRep(input, batch).ok();
}

// Publishes a committed (or failed-and-burned) group's own contiguous
// sequence claim to the shared allocator. Used by both the success and the
// WAL-failure path of CommitWriter — the range must reach the allocator
// either way, or the global watermark wedges. Preassigned writers' ranges
// are the sharding layer's to publish (write::Writer::preassigned).
void PublishGroupSequences(shard::SequenceAllocator* alloc,
                           SequenceNumber base_seq, uint64_t claim_count) {
  if (alloc != nullptr && claim_count > 0) {
    alloc->Publish(base_seq, claim_count);
  }
}

exec::StallConfig StallConfigFor(const DbOptions& options) {
  exec::StallConfig config;
  config.max_immutable_memtables = options.max_immutable_memtables;
  config.l0_slowdown_runs = options.l0_slowdown_runs;
  config.l0_stop_runs = options.l0_stop_runs;
  config.slowdown_delay_micros = options.slowdown_delay_micros;
  return config;
}

// Applies a batch to a memtable with sequences base, base+1, ...
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(MemTable* mem, SequenceNumber base)
      : mem_(mem), seq_(base) {}
  void Put(const Slice& key, const Slice& value) override {
    mem_->Add(seq_++, kTypeValue, key, value);
  }
  void Delete(const Slice& key) override {
    mem_->Add(seq_++, kTypeDeletion, key, Slice());
  }
  SequenceNumber next_sequence() const { return seq_; }

 private:
  MemTable* mem_;
  SequenceNumber seq_;
};

// User-facing iterator: walks internal keys, surfacing only the newest
// version of each user key visible at the view's sequence and skipping
// tombstones. Forward only. Owns its ReadView, so the memtables and SST
// files it reads stay alive and the result set is a consistent snapshot no
// matter what flushes, compactions, or writes happen concurrently.
class DbIterator final : public Iterator {
 public:
  DbIterator(std::shared_ptr<const read::ReadView> view,
             std::unique_ptr<Iterator> internal,
             obs::LatencyRecorder& recorder)
      : view_(std::move(view)),
        internal_(std::move(internal)),
        recorder_(recorder),
        sequence_(view_->sequence) {}

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    obs::ScopedOpTimer timer(recorder_, obs::OpType::kIterSeek);
    has_current_ = false;
    internal_->SeekToFirst();
    FindNextUserEntry();
  }
  void Seek(const Slice& user_key) override {
    obs::ScopedOpTimer timer(recorder_, obs::OpType::kIterSeek);
    has_current_ = false;
    std::string target;
    AppendInternalKey(&target, user_key, sequence_, kValueTypeForSeek);
    internal_->Seek(Slice(target));
    FindNextUserEntry();
  }
  void Next() override {
    assert(valid_);
    internal_->Next();
    FindNextUserEntry();
  }
  void SeekToLast() override { valid_ = false; }  // Forward-only.
  void Prev() override { assert(false); }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override { return internal_->status(); }

 private:
  void FindNextUserEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(internal_->key(), &parsed)) {
        internal_->Next();
        continue;
      }
      if (parsed.sequence > sequence_) {
        internal_->Next();  // Written after this view was pinned.
        continue;
      }
      if (has_current_ && parsed.user_key == Slice(key_)) {
        internal_->Next();  // Shadowed older version.
        continue;
      }
      key_.assign(parsed.user_key.data(), parsed.user_key.size());
      has_current_ = true;
      if (parsed.type == kTypeDeletion) {
        internal_->Next();  // Tombstone hides every older version too.
        continue;
      }
      value_.assign(internal_->value().data(), internal_->value().size());
      valid_ = true;
      return;
    }
  }

  // view_ is declared first so it is destroyed LAST: the internal iterator
  // (whose RunIterators hold FileMetaPtrs and reader pins) must release its
  // references before the view's deleter runs obsolete-file GC.
  std::shared_ptr<const read::ReadView> view_;
  std::unique_ptr<Iterator> internal_;
  obs::LatencyRecorder& recorder_;
  SequenceNumber sequence_ = 0;
  bool valid_ = false;
  bool has_current_ = false;
  std::string key_;
  std::string value_;
};

}  // namespace

DB::DB(const DbOptions& options)
    : options_(options), stall_(StallConfigFor(options)) {
  write_queue_ = std::make_unique<write::WriteQueue>();
  block_cache_ = std::make_unique<LruCache>(options_.block_cache_bytes);
  table_cache_ = std::make_unique<read::TableCache>(
      options_.env, options_.path, block_cache_.get(),
      options_.table_cache_open_files);
  if (options_.event_ring != nullptr) {
    // Borrowed ring (sharded store): its owner decides about tracing.
    ring_ = options_.event_ring;
  } else {
    owned_ring_ = std::make_unique<obs::EventRing>(
        obs::EventRing::kDefaultCapacity);
    ring_ = owned_ring_.get();
  }
  current_ = new Version();
  current_->Ref();
}

compaction::OutputShape DB::OutputShapeForDb() {
  compaction::OutputShape shape;
  shape.env = options_.env;
  shape.path = options_.path;
  shape.block_size = options_.block_size;
  shape.filter_variant = options_.filter_variant;
  shape.target_file_size = options_.target_file_size;
  shape.next_file_number = &next_file_number_;
  return shape;
}

DB::~DB() {
  // The ticker's tasks and the snapshotter's samples read live engine
  // state; quiesce both before anything else is torn down.
  ticker_.Stop();
  if (snapshotter_ != nullptr) snapshotter_->Stop();
  {
    // Every task this engine submitted runs to its end before any member
    // is destroyed, on a borrowed pool too (the sharded store's, which
    // outlives its shards): a lane is idle only once its task is done with
    // the engine, and closing_ keeps idle lanes idle.
    std::unique_lock<std::mutex> lock(mutex_);
    closing_ = true;
    bg_cv_.wait(lock, [this] { return BackgroundIdleLocked(); });
    // Best effort: anything still pinned (stray iterator outliving the DB
    // is undefined behavior anyway) stays on disk and is swept at the next
    // Open.
    CollectObsoleteLocked();
    if (current_ != nullptr && current_->Unref()) delete current_;
  }
  // A borrowed pool is the sharded store's to shut down, not ours.
  if (owned_pool_ != nullptr) owned_pool_->Shutdown();
}

Status DB::Open(const DbOptions& options, std::unique_ptr<DB>* dbptr) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("env and path are required");
  }
  auto db = std::unique_ptr<DB>(new DB(options));
  // A borrowed ring's owner decides about tracing.
  if (db->owned_ring_ != nullptr && !options.trace_file_path.empty() &&
      !db->ring_->OpenTraceFile(options.trace_file_path)) {
    return Status::IOError("cannot open trace file", options.trace_file_path);
  }
  Env* env = options.env;
  Status s = env->CreateDirIfMissing(options.path);
  if (!s.ok()) return s;

  PolicyContext ctx;
  ctx.buffer_bytes = options.write_buffer_size;
  ctx.amp = &db->amp_;
  GrowthPolicyConfig policy_config = options.policy;
  policy_config.bloom_bits_per_key = options.bloom_bits_per_key;
  db->policy_ = CreateGrowthPolicy(policy_config, ctx);
  if (db->policy_ == nullptr) {
    return Status::InvalidArgument("unknown growth policy");
  }

  ManifestData manifest;
  uint64_t manifest_number = 0;
  uint64_t old_wal = 0;
  s = ReadCurrentManifest(env, options.path, &manifest, &manifest_number);
  if (s.ok()) {
    if (options.adaptive_tuning && !manifest.policy_config.empty()) {
      // Re-resolution (DESIGN.md §9): a tuned store's live design may have
      // moved away from the statically configured one. The manifest's
      // persisted config is authoritative — rebuild the policy from it so
      // the name check below compares like with like.
      GrowthPolicyConfig persisted;
      if (!DecodeGrowthPolicyConfig(manifest.policy_config, &persisted)) {
        return Status::Corruption("bad growth policy config in manifest");
      }
      persisted.bloom_bits_per_key = options.bloom_bits_per_key;
      db->options_.policy = persisted;
      db->policy_ = CreateGrowthPolicy(persisted, ctx);
      if (db->policy_ == nullptr) {
        return Status::Corruption("unresolvable growth policy in manifest");
      }
    }
    if (manifest.policy_name != db->policy_->name()) {
      return Status::InvalidArgument(
          "db was created with a different growth policy",
          manifest.policy_name);
    }
    db->InstallVersionLocked(
        std::make_unique<Version>(std::move(manifest.version)));
    db->next_file_number_.store(manifest.next_file_number,
                                std::memory_order_relaxed);
    db->next_run_id_ = manifest.next_run_id;
    db->last_sequence_ = manifest.last_sequence;
    db->flush_count_ = manifest.flush_count;
    db->manifest_number_ = manifest_number;
    old_wal = manifest.wal_number;
    if (!db->policy_->DecodeState(manifest.policy_state)) {
      return Status::Corruption("bad growth policy state in manifest");
    }
  } else if (!s.IsNotFound()) {
    return s;
  }

  db->mem_ = std::make_shared<MemTable>();

  // Sweep orphaned files. An .sst absent from the manifest's version was
  // left by a crash between a manifest install and deferred GC, or by a
  // shutdown with pinned iterators. A .wal older than the oldest one the
  // manifest names was left by a failed flush that returned before it
  // retired its WAL; recovery never replays it. Nothing else runs yet, so
  // both are garbage.
  {
    std::vector<std::string> children;
    if (env->GetChildren(options.path, &children).ok()) {
      for (const auto& name : children) {
        uint64_t number = 0;
        std::string suffix;
        if (!ParseFileName(name, &number, &suffix)) continue;
        if (suffix == "sst" && !db->current_->ReferencesFile(number)) {
          env->RemoveFile(SstFileName(options.path, number));
        } else if (suffix == "wal" && number < old_wal) {
          env->RemoveFile(WalFileName(options.path, number));
        }
      }
    }
  }

  // Recovery runs on this thread in either mode, and so does its flush:
  // the pool is attached only once the DB is consistent, so the lanes run
  // on the thread that queued them, and nothing else can reach the DB yet.
  std::unique_lock<std::mutex> lock(db->mutex_);
  std::vector<uint64_t> replayed;
  if (old_wal != 0) {
    Status rs = db->RecoverWalsLocked(old_wal, &replayed);
    if (!rs.ok()) return rs;
  }

  if (db->mem_->num_entries() > 0) {
    // Recovered entries are only in memory and the old WALs. Switching the
    // memtable under the newest replayed WAL and flushing it retires that
    // WAL the usual way (new WAL, manifest, then the delete); the older
    // replayed WALs are deleted once the manifest stopped naming them.
    db->wal_number_ = replayed.back();
    Status fs = db->SwitchMemTableLocked();
    if (fs.ok()) fs = db->DrainLanesLocked(lock);
    if (!fs.ok()) return fs;
    for (size_t i = 0; i + 1 < replayed.size(); i++) {
      env->RemoveFile(WalFileName(options.path, replayed[i]));
    }
  } else {
    Status ws = db->NewWalLocked();
    if (!ws.ok()) return ws;
    ws = db->InstallManifestLocked();
    if (!ws.ok()) return ws;
    for (uint64_t w : replayed) {
      env->RemoveFile(WalFileName(options.path, w));
    }
  }
  lock.unlock();

  // The one place the execution mode is read: kBackground attaches a pool,
  // which from now on runs the lanes (DESIGN.md §2.1).
  if (options.execution_mode == ExecutionMode::kBackground) {
    if (options.shared_pool != nullptr) {
      db->pool_ = options.shared_pool;
    } else {
      db->owned_pool_ =
          std::make_unique<exec::ThreadPool>(options.num_background_threads);
      db->pool_ = db->owned_pool_.get();
    }
  }

  DB* raw = db.get();
  if (options.stats_snapshot_interval_ms > 0) {
    obs::StatsSnapshotter::Options snap_opts;
    snap_opts.jsonl_path = options.stats_snapshot_path;
    s = obs::StatsSnapshotter::Open(
        db->pool_, snap_opts,
        [raw] {
          return obs::RenderJsonSample({raw->SampleMetrics()}, NowMicros());
        },
        &db->snapshotter_);
    if (!s.ok()) return s;
    db->ticker_.Add(options.stats_snapshot_interval_ms,
                    [raw] { raw->snapshotter_->SampleAsync(); });
  }

  // The tuner only tunes the vertical family — the shapes the cost model
  // solves and the only ones with a cheap live-migration path between them.
  if (options.adaptive_tuning &&
      db->options_.policy.scheme == GrowthScheme::kVertical) {
    tune::TunerConfig tcfg;
    tcfg.min_window_ops = options.tune_min_window_ops;
    db->tuner_ = std::make_unique<tune::AdaptiveTuner>(tcfg);
    // Inline on the ticker thread, never the pool: a switching pass waits
    // for the compaction lane, which needs a pool thread (DESIGN.md §9.1).
    db->ticker_.Add(options.tune_interval_ms, [raw] { raw->RetuneNow(); });
  }
  db->ticker_.Start();

  *dbptr = std::move(db);
  return Status::OK();
}

Status DB::RecoverWalsLocked(uint64_t oldest_wal,
                             std::vector<uint64_t>* replayed) {
  // The manifest names the oldest WAL that may hold unflushed data. Several
  // WALs can be live at once (one per queued immutable memtable plus the
  // active one), so replay every WAL file at or above that number, in
  // order; sequence numbers keep replay idempotent with respect to
  // ordering.
  std::vector<std::string> children;
  Status s = options_.env->GetChildren(options_.path, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> wals;
  for (const auto& name : children) {
    uint64_t number = 0;
    std::string suffix;
    if (ParseFileName(name, &number, &suffix) && suffix == "wal" &&
        number >= oldest_wal) {
      wals.push_back(number);
    }
  }
  std::sort(wals.begin(), wals.end());

  for (uint64_t wal_number : wals) {
    const std::string fname = WalFileName(options_.path, wal_number);
    std::unique_ptr<SequentialFile> file;
    s = options_.env->NewSequentialFile(fname, &file);
    if (!s.ok()) return s;
    wal::LogReader reader(std::move(file));
    std::string record;
    while (reader.ReadRecord(&record)) {
      SequenceNumber base_seq;
      WriteBatch batch;
      if (!DecodeWalRecord(Slice(record), &base_seq, &batch)) {
        return Status::Corruption("bad WAL record", fname);
      }
      MemTableInserter inserter(mem_.get(), base_seq);
      Status bs = batch.Iterate(&inserter);
      if (!bs.ok()) return bs;
      const SequenceNumber last = base_seq + batch.Count() - 1;
      if (batch.Count() > 0 && last > last_sequence_) last_sequence_ = last;
    }
    // A torn tail is expected after a crash; everything before it is intact.
    replayed->push_back(wal_number);
  }
  return Status::OK();
}

Status DB::NewWalLocked() {
  wal_number_ = next_file_number_++;
  std::unique_ptr<WritableFile> file;
  Status s = options_.env->NewWritableFile(
      WalFileName(options_.path, wal_number_), &file);
  if (!s.ok()) return s;
  wal_ = std::make_unique<wal::LogWriter>(std::move(file));
  return Status::OK();
}

uint64_t DB::OldestLiveWalLocked() const {
  // WALs retire in order, so the oldest queued immutable memtable's WAL
  // bounds what recovery must replay.
  return imm_.empty() ? wal_number_ : imm_.front().wal_number;
}

Status DB::Put(const Slice& key, const Slice& value) {
  if (key.empty()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  WriteBatch batch;
  batch.Put(key, value);
  return CommitGroup(batch);
}

Status DB::Delete(const Slice& key) {
  if (key.empty()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  WriteBatch batch;
  batch.Delete(key);
  return CommitGroup(batch);
}

Status DB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  return CommitGroup(batch);
}

Status DB::MaybeSyncWal(wal::LogWriter* wal, uint64_t now, bool* synced) {
  switch (options_.wal_sync_mode) {
    case WalSyncMode::kNone:
      return Status::OK();
    case WalSyncMode::kPerGroup:
      *synced = true;
      return wal->Sync();
    case WalSyncMode::kInterval: {
      // The log is always dirty here (called right after a successful
      // append), so the only question is whether the interval elapsed.
      if (now - last_wal_sync_micros_ < options_.wal_sync_interval_micros) {
        return Status::OK();
      }
      last_wal_sync_micros_ = now;
      *synced = true;
      return wal->Sync();
    }
  }
  return Status::OK();
}

Status DB::CommitGroup(const WriteBatch& my_batch) {
  write::Writer w(&my_batch);
  return CommitWriter(&w);
}

Status DB::WriteAt(const WriteBatch& batch, SequenceNumber base_seq) {
  if (batch.empty()) return Status::OK();
  if (batch.HasEmptyKey()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  write::Writer w(&batch);
  w.preassigned = true;  // The sharding layer publishes the range.
  w.base_seq = base_seq;
  return CommitWriter(&w);
}

Status DB::CommitWriter(write::Writer* writer) {
  write::Writer& w = *writer;
  // kPut spans the whole call — queue wait, group commit, stall gate — which
  // is the latency the caller of Put/Delete/Write actually observed.
  obs::ScopedOpTimer put_timer(latency_, obs::OpType::kPut);
  const bool leader = write_queue_->JoinAndAwaitLeadership(&w);
  // join_micros is when the writer blocked in the queue; it stays 0 for a
  // writer that led at once, which waited 0 and reads no clock.
  latency_.Record(obs::OpType::kGroupWait,
                  w.join_micros == 0 ? 0 : NowMicros() - w.join_micros);
  // A follower was committed (or failed) by another leader.
  if (!leader) return w.status;

  // ---- Leader: gate + claim (first short mutex section). ----
  write::WriteGroup group;
  std::unique_lock<std::mutex> lock(mutex_);
  Status gate = wal_error_.ok() ? MaybeStallLocked(lock) : wal_error_;
  // Build the group only after the stall gate: writers that queued up while
  // the leader was stalled amortize into this one commit.
  write_queue_->BuildGroup(&w, options_.max_write_group_bytes, &group);
  if (!gate.ok()) {
    lock.unlock();
    for (write::Writer* wr : group.writers) wr->status = gate;
    write_queue_->ExitGroup(&group);
    return w.status;
  }

  // Claim the group's sequence range privately, in queue order. Nothing is
  // published yet: readers pin views at the pre-group visibility bound, so
  // the whole group becomes visible atomically at publish time — and if the
  // WAL append fails below, the claim simply evaporates (the sequence-leak
  // fix; under a shared allocator the range is burned instead, see the
  // failure branch). Malformed batches (empty keys) fail alone, not their
  // group. Preassigned writers (WriteAt) carry ranges the sharding layer
  // already claimed, so they stay out of this group's contiguous claim.
  shard::SequenceAllocator* alloc = options_.sequence_allocator;
  uint64_t claim_count = 0;
  uint64_t total_count = 0;
  for (write::Writer* wr : group.writers) {
    if (wr->batch->HasEmptyKey()) {
      wr->status = Status::InvalidArgument("empty keys are not supported");
      continue;
    }
    total_count += wr->batch->Count();
    if (!wr->preassigned) claim_count += wr->batch->Count();
  }
  const SequenceNumber base_seq = alloc != nullptr && claim_count > 0
                                      ? alloc->Claim(claim_count)
                                      : last_sequence_ + 1;
  SequenceNumber next_seq = base_seq;
  SequenceNumber max_seq = last_sequence_;
  for (write::Writer* wr : group.writers) {
    if (!wr->status.ok()) continue;
    if (!wr->preassigned) {
      wr->base_seq = next_seq;
      next_seq += wr->batch->Count();
    }
    if (wr->batch->Count() > 0) {
      max_seq = std::max(max_seq, wr->base_seq + wr->batch->Count() - 1);
    }
  }
  const uint64_t group_count = total_count;
  std::shared_ptr<MemTable> mem = mem_;
  wal::LogWriter* wal = wal_.get();
  commit_in_flight_ = true;
  lock.unlock();

  // ---- WAL append + one amortized sync (no mutex). ----
  // One record covers the whole group: recovery decodes the concatenated
  // batch reps and replays them at base_seq onward, reproducing exactly the
  // per-writer sequence assignment above.
  Status s;
  bool synced = false;
  if (group_count > 0) {
    const uint64_t wal_t0 = NowMicros();
    if (claim_count > 0) {
      std::string rec;
      PutFixed64(&rec, base_seq);
      for (write::Writer* wr : group.writers) {
        if (wr->status.ok() && !wr->preassigned) rec.append(wr->batch->rep());
      }
      s = wal->AddRecord(Slice(rec));
    }
    // Preassigned sub-batches get their own records: their ranges are
    // disjoint from the group's contiguous claim, and the record format
    // (base_seq + reps, replayed sequentially) already encodes that.
    for (write::Writer* wr : group.writers) {
      if (!s.ok()) break;
      if (!wr->status.ok() || !wr->preassigned) continue;
      std::string rec;
      PutFixed64(&rec, wr->base_seq);
      rec.append(wr->batch->rep());
      s = wal->AddRecord(Slice(rec));
    }
    // The append's end is the sync's start: one clock read between them.
    const uint64_t wal_t1 = NowMicros();
    latency_.Record(obs::OpType::kWalAppend, wal_t1 - wal_t0);
    if (s.ok()) {
      s = MaybeSyncWal(wal, wal_t1, &synced);
      // Only actual fsyncs are observations; skipped intervals would bury
      // the sync tail under zeros.
      if (synced) latency_.Record(obs::OpType::kWalSync, NowMicros() - wal_t1);
    }
  }

  // ---- Memtable inserts (no mutex). ----
  // The leader is the memtable's only writer (DESIGN.md §2.9).
  if (s.ok() && group_count > 0) {
    for (write::Writer* wr : group.writers) {
      if (!wr->status.ok()) continue;
      MemTableInserter inserter(mem.get(), wr->base_seq);
      wr->status = wr->batch->Iterate(&inserter);
    }
  }

  // ---- Publish (second short mutex section). ----
  lock.lock();
  commit_in_flight_ = false;
  if (!s.ok()) {
    // WAL failure: nothing was inserted and last_sequence_ never moved.
    // The error is latched — the append may have persisted its record even
    // though it reported failure (e.g. a sync failure after a successful
    // append), so letting a later group re-claim this range could put two
    // WAL records with the same base_seq on disk and make recovery replay
    // duplicate sequences. The whole group shares the error; the store
    // stays readable and reopens cleanly.
    if (wal_error_.ok()) wal_error_ = s;
    for (write::Writer* wr : group.writers) {
      if (wr->status.ok()) wr->status = s;
    }
    // Burn the claimed ranges: the latched error means they can never be
    // reused, and an unpublished hole would wedge the global watermark for
    // every other shard. Ranges the sharding layer claimed itself
    // (preassigned) are its to burn.
    PublishGroupSequences(alloc, base_seq, claim_count);
    bg_cv_.notify_all();
    lock.unlock();
    write_queue_->ExitGroup(&group);
    return w.status;
  }
  if (max_seq > last_sequence_) last_sequence_ = max_seq;
  // Publish once the inserts are complete: the global watermark may now
  // advance over this group, making it visible to cross-shard snapshots
  // atomically. Multi-shard sub-batches (preassigned) stay pending until
  // the sharding layer publishes their whole range.
  PublishGroupSequences(alloc, base_seq, claim_count);
  uint64_t committed = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t payload = 0;
  for (write::Writer* wr : group.writers) {
    if (!wr->status.ok()) continue;
    committed++;
    puts += wr->batch->Puts();
    deletes += wr->batch->Deletes();
    payload += wr->batch->PayloadBytes();
    options_.env->io_stats()->RecordCpu(kCpuCostPerWrite);
  }
  amp_.RecordWrite(puts, deletes, payload);
  write_stats_.OnGroupCommitted(group.writers.size(), committed,
                                group.queue_wait_micros, synced);
  if (mem_->payload_bytes() >= options_.write_buffer_size) {
    // The switch, and with no pool the flush and compactions it queues, are
    // attributed to the leader: followers' data is already durable in the
    // WAL and memtable. A failure latches bg_error_ for the next write.
    if (SwitchMemTableLocked().ok()) DrainLanesLocked(lock);
  }
  bg_cv_.notify_all();
  lock.unlock();
  write_queue_->ExitGroup(&group);
  return w.status;
}

Status DB::MaybeStallLocked(std::unique_lock<std::mutex>& lock) {
  bool already_slowed = false;
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const size_t l0_runs =
        current_->levels.empty() ? 0 : current_->levels[0].runs.size();
    exec::StallCause cause = exec::StallCause::kNone;
    const exec::StallDecision decision =
        stall_.Decide(imm_.size(), l0_runs, &cause);
    // Safety valve, both regimes: with both lanes idle no maintenance can
    // clear the debt (the policy's stable shape exceeds the configured
    // threshold, or a writer with no pool ran its lanes before returning),
    // so the writer proceeds instead of sleeping or deadlocking. Lanes
    // change under mutex_ with a bg_cv_ notify, so the stop wait below
    // never misses the last one going idle.
    if (decision == exec::StallDecision::kNone || BackgroundIdleLocked()) {
      return Status::OK();
    }
    const uint64_t cause_code = cause == exec::StallCause::kMemtable
                                    ? obs::kCauseMemtable
                                    : cause == exec::StallCause::kL0
                                          ? obs::kCauseL0
                                          : obs::kCauseNone;
    if (decision == exec::StallDecision::kStop) {
      if (cause == exec::StallCause::kMemtable) {
        stats_.stall_stops_memtable++;
      } else {
        stats_.stall_stops_l0++;
      }
      ring_->Emit(obs::EventType::kStallEnter, shard, cause_code, 1);
      const uint64_t start = NowMicros();
      bg_cv_.wait(lock, [this] {
        if (!bg_error_.ok()) return true;
        const size_t l0 =
            current_->levels.empty() ? 0 : current_->levels[0].runs.size();
        if (stall_.Decide(imm_.size(), l0) != exec::StallDecision::kStop) {
          return true;
        }
        return BackgroundIdleLocked();
      });
      const uint64_t waited = NowMicros() - start;
      stats_.stall_stop_micros += waited;
      ring_->Emit(obs::EventType::kStallExit, shard, cause_code, waited);
      continue;
    }
    if (decision == exec::StallDecision::kSlowdown && !already_slowed) {
      already_slowed = true;
      stats_.stall_slowdowns_l0++;
      ring_->Emit(obs::EventType::kStallEnter, shard, cause_code, 0);
      const uint64_t start = NowMicros();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(
          stall_.config().slowdown_delay_micros));
      lock.lock();
      const uint64_t waited = NowMicros() - start;
      stats_.stall_slowdown_micros += waited;
      ring_->Emit(obs::EventType::kStallExit, shard, cause_code, waited);
      continue;
    }
    return Status::OK();
  }
}

Status DB::SwitchMemTableLocked() {
  ring_->Emit(obs::EventType::kMemtableSwitch,
              static_cast<uint16_t>(options_.shard_index),
              mem_->payload_bytes(), 0);
  imm_.push_back(ImmPartition{mem_, wal_number_});
  stats_.memtable_switches++;
  if (imm_.size() > stats_.max_imm_queue_depth) {
    stats_.max_imm_queue_depth = imm_.size();
  }
  mem_ = std::make_shared<MemTable>();
  Status s = NewWalLocked();
  if (!s.ok()) {
    bg_error_ = s;
    return s;
  }
  QueueLaneLocked(&flush_lane_);
  return Status::OK();
}

void DB::SetLaneLocked(Lane* lane, Lane state) {
  *lane = state;
  bg_cv_.notify_all();
}

void DB::QueueLaneLocked(Lane* lane) {
  if (*lane != Lane::kIdle || closing_) return;
  auto task = [this] {
    std::unique_lock<std::mutex> lock(mutex_);
    RunQueuedLaneLocked(lock);
  };
  if (pool_ == nullptr || pool_->Submit(task)) {
    SetLaneLocked(lane, Lane::kQueued);
  }
}

void DB::RunQueuedLaneLocked(std::unique_lock<std::mutex>& lock) {
  // Flush first: a full immutable memtable blocks writers, while a pending
  // compaction only costs read amplification (RocksDB's HIGH/LOW pools).
  if (flush_lane_ == Lane::kQueued) {
    SetLaneLocked(&flush_lane_, Lane::kRunning);
    Status s = FlushImmutablesLocked(lock);
    if (!s.ok()) bg_error_ = s;
    SetLaneLocked(&flush_lane_, Lane::kIdle);
    if (s.ok()) QueueLaneLocked(&compaction_lane_);
  } else if (compaction_lane_ == Lane::kQueued) {
    SetLaneLocked(&compaction_lane_, Lane::kRunning);
    Status s = RunCompactionLoopLocked(lock);
    if (!s.ok()) bg_error_ = s;
    // Only a failed chain leaves requests queued: they fail with it.
    for (LaneRequest* req : lane_requests_) req->status = s;
    lane_requests_.clear();
    SetLaneLocked(&compaction_lane_, Lane::kIdle);
  }
}

Status DB::DrainLanesLocked(std::unique_lock<std::mutex>& lock) {
  if (pool_ != nullptr) return Status::OK();  // The pool runs them.
  // With no pool, the lanes this thread queued run here before it returns:
  // the caller's write stalls for exactly the flush and compaction chain.
  const double stall_start = options_.env->io_stats()->clock();
  while (flush_lane_ == Lane::kQueued || compaction_lane_ == Lane::kQueued) {
    RunQueuedLaneLocked(lock);
  }
  const double stall = options_.env->io_stats()->clock() - stall_start;
  if (stall > stats_.max_stall_clock) stats_.max_stall_clock = stall;
  return bg_error_;
}

Status DB::FlushImmutablesLocked(std::unique_lock<std::mutex>& lock) {
  while (!imm_.empty()) {
    // The front partition stays visible to readers (and its WAL stays named
    // by the manifest) until the flush result is installed below.
    ImmPartition part = imm_.front();
    std::vector<FileMetaPtr> obsolete;
    Status s = FlushMemToL0Locked(part.mem.get(), lock, &obsolete);
    if (!s.ok()) return s;
    imm_.pop_front();
    policy_->OnFlushCompleted(*current_);
    s = InstallManifestLocked();
    if (s.ok()) {
      MarkObsoleteLocked(std::move(obsolete));
      s = CollectObsoleteLocked();
    }
    if (!s.ok()) return s;
    options_.env->RemoveFile(WalFileName(options_.path, part.wal_number));
    bg_cv_.notify_all();  // Stalled writers re-check the shrunken queue.
  }
  return Status::OK();
}

SequenceNumber DB::SmallestLiveSnapshotLocked() const {
  // Sharded stores read at the global watermark, not this shard's own last
  // sequence, so the tombstone-GC horizon must not outrun it: a future
  // cross-shard read pins at visible(t') >= visible(now) (monotonic), so
  // keeping versions needed at visible(now) keeps everything any such read
  // can still ask for (registered snapshots handle the rest via the min).
  const SequenceNumber horizon =
      options_.sequence_allocator != nullptr
          ? options_.sequence_allocator->visible()
          : last_sequence_;
  if (snapshot_seqs_.empty()) return horizon;
  return std::min(*snapshot_seqs_.begin(), horizon);
}

const Snapshot* DB::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_seqs_.insert(last_sequence_);
  return new Snapshot(last_sequence_);
}

const Snapshot* DB::GetSnapshotAt(SequenceNumber sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_seqs_.insert(sequence);
  return new Snapshot(sequence);
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = snapshot_seqs_.find(snapshot->sequence());
  if (it != snapshot_seqs_.end()) snapshot_seqs_.erase(it);
  delete snapshot;
}

Status DB::FlushMemTable() {
  std::unique_lock<std::mutex> lock(mutex_);
  // A commit group may be inserting into mem_ with the mutex released;
  // switching or flushing mid-commit would flush a half-applied group.
  bg_cv_.wait(lock, [this] { return !commit_in_flight_; });
  if (!bg_error_.ok()) return bg_error_;
  if (mem_->num_entries() > 0) {
    Status s = SwitchMemTableLocked();
    if (!s.ok()) return s;
  }
  DrainLanesLocked(lock);
  bg_cv_.wait(lock, [this] { return BackgroundIdleLocked(); });
  return bg_error_;
}

Status DB::FlushMemToL0Locked(MemTable* mem,
                              std::unique_lock<std::mutex>& lock,
                              std::vector<FileMetaPtr>* obsolete) {
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  const uint64_t flush_t0 = NowMicros();
  ring_->Emit(obs::EventType::kFlushBegin, shard, mem->payload_bytes(), 0);
  EnsurePaddedLocked(
      static_cast<size_t>(std::max(1, policy_->RequiredLevels(*current_))));
  // A leveling flush rewrites level 0's newest run. It lets a compaction
  // lane that already waits for level 0 pick first, so a flush backlog
  // cannot starve merges of that run. Then it waits for any merge that
  // owns the run to install (which may empty level 0 and make this a new
  // front run), and from then until it installs, the compaction lane
  // picks nothing (flush first).
  auto leveling = [this] {
    return policy_->FlushMode(*current_) == MergeMode::kMergeIntoRun &&
           !current_->levels[0].empty();
  };
  bg_cv_.wait(lock, [&] {
    return !leveling() ||
           (!pick_waiting_ &&
            merging_runs_.count(current_->levels[0].runs[0].run_id) == 0);
  });
  level0_flush_ = leveling();
  CompactionRequest req;
  req.output_level = 0;
  req.reason = "flush";
  if (leveling()) req.output_run_id = current_->levels[0].runs[0].run_id;
  compaction::MergeResult result;
  Status s = RunJobLocked(lock, req, mem, &result, obsolete);
  level0_flush_ = false;
  bg_cv_.notify_all();
  if (!s.ok()) return s;

  stats_.flushes++;
  // A flush merge's reads, the memtable's entries and those of a run it
  // merges into, are flush work, not compaction work.
  amp_.RecordFlush(0, result.bytes_read, result.bytes_written);
  flush_count_++;
  const uint64_t dur = NowMicros() - flush_t0;
  ring_->Emit(obs::EventType::kFlushEnd, shard, result.bytes_written, dur);
  latency_.Record(obs::OpType::kFlush, dur);
  return Status::OK();
}

Status DB::RunCompactionLoopLocked(std::unique_lock<std::mutex>& lock) {
  // Bounded to catch policy bugs that would loop forever.
  for (int rounds = 0; rounds < 100000; rounds++) {
    if (!lane_requests_.empty()) {
      // Requests go ahead of the policy; bg_error_ fails one unrun.
      LaneRequest* req = lane_requests_.front();
      Status s = bg_error_.ok() ? RunLaneRequestLocked(lock, req) : bg_error_;
      lane_requests_.pop_front();
      req->status = s;
      bg_cv_.notify_all();
      if (!s.ok()) return s;
      continue;
    }
    WaitOutLevel0FlushLocked(lock);
    EnsurePaddedLocked(
        static_cast<size_t>(std::max(1, policy_->RequiredLevels(*current_))));
    const std::optional<CompactionRequest> job =
        policy_->PickCompaction(*current_);
    if (!job.has_value()) return Status::OK();
    Status s = RunCompactionLocked(lock, *job);
    if (!s.ok()) return s;
  }
  return Status::Corruption("compaction loop did not converge",
                            policy_->name());
}

Status DB::RunOnCompactionLaneLocked(std::unique_lock<std::mutex>& lock,
                                     LaneRequest* req) {
  lane_requests_.push_back(req);
  QueueLaneLocked(&compaction_lane_);
  if (compaction_lane_ == Lane::kIdle) {  // The pool refused its task.
    lane_requests_.pop_back();
    return Status::Busy("compaction lane refused the request");
  }
  DrainLanesLocked(lock);
  bg_cv_.wait(lock, [req] { return req->status.has_value(); });
  return *req->status;
}

Status DB::RunLaneRequestLocked(std::unique_lock<std::mutex>& lock,
                                LaneRequest* req) {
  // Every run of levels [first, last], merged in place into one at `last`.
  auto merge_levels = [this](int first, int last, std::string reason) {
    CompactionRequest merge;
    for (int level = first; level <= last; level++) {
      for (const SortedRun& run : current_->levels[level].runs) {
        merge.inputs.push_back({level, run.run_id, {}});
      }
    }
    merge.output_level = last;
    merge.placement = CompactionRequest::Placement::kReplaceInputs;
    merge.reason = std::move(reason);
    return merge;
  };
  if (req->policy == nullptr) {
    WaitOutLevel0FlushLocked(lock);
    const int bottom = current_->BottommostNonEmptyLevel();
    if (bottom < 0) return Status::OK();
    return RunCompactionLocked(lock,
                               merge_levels(0, bottom, "manual-compact-all"));
  }

  // The next drift window is priced under this design: EvaluateModelDrift
  // reads it from policy_.
  policy_ = std::move(req->policy);
  options_.policy = req->config;
  const bool tiered = policy_->FlushMode(*current_) == MergeMode::kNewRun;
  ring_->Emit(obs::EventType::kPolicyChange,
              static_cast<uint16_t>(options_.shard_index), tiered ? 1 : 0,
              static_cast<uint64_t>(req->config.size_ratio * 1000.0));
  // Persist the new design first: a crash after this point reopens under
  // the new policy with whatever layout the catch-up had reached.
  Status s = InstallManifestLocked();
  if (!s.ok() || tiered) {
    // Tiering-family target: any layout is a valid tiered layout; the
    // policy's run-count triggers take it from here.
    return s;
  }
  // A leveled target wants one run per level, but a previously tiered
  // level holds several and the leveling policy's byte triggers never
  // consolidate them: merge the shallowest multi-run level until none is.
  // Each merge leaves one run, and once the leveled policy is in, a flush
  // merges into level 0's run, so the loop ends.
  while (s.ok()) {
    WaitOutLevel0FlushLocked(lock);
    const std::vector<LevelState>& levels = current_->levels;
    const auto multi =
        std::find_if(levels.begin(), levels.end(),
                     [](const LevelState& l) { return l.runs.size() > 1; });
    if (multi == levels.end()) break;
    const int level = static_cast<int>(multi - levels.begin());
    s = RunCompactionLocked(
        lock, merge_levels(level, level,
                           "tune-catchup-L" + std::to_string(level)));
  }
  return s;
}

Status DB::PlanForRequestLocked(const CompactionRequest& req, MemTable* mem,
                                compaction::CompactionPlan* plan) {
  compaction::PlannerContext ctx;
  ctx.bits_per_key = BitsPerKeyForLevelLocked(req.output_level);
  ctx.smallest_snapshot = SmallestLiveSnapshotLocked();
  if (mem != nullptr) ctx.memtable = [mem] { return mem->NewIterator(); };
  return compaction::PlanCompaction(*current_, req, ctx, plan);
}

void DB::DeleteUninstalledOutputs(const std::vector<FileMetaPtr>& outputs) {
  // These files never entered a version, so no reader can hold a pin;
  // immediate deletion is safe (anything half-written by a failed merge is
  // swept as an orphan at the next Open).
  for (const auto& f : outputs) {
    options_.env->RemoveFile(SstFileName(options_.path, f->number));
  }
}

Status DB::RunJobLocked(std::unique_lock<std::mutex>& lock,
                        const CompactionRequest& req, MemTable* mem,
                        compaction::MergeResult* result,
                        std::vector<FileMetaPtr>* consumed) {
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  // ---- Plan (under the mutex). ----
  compaction::CompactionPlan plan;
  Status s = PlanForRequestLocked(req, mem, &plan);
  if (!s.ok() || plan.empty()) return s;  // An empty plan: nothing to do.
  const uint64_t level = static_cast<uint64_t>(plan.output_level);
  ring_->Emit(obs::EventType::kCompactionPlan, shard, level,
              plan.inputs.size());
  // The job owns the runs it reads or rewrites until it ends: no other job
  // plans against them meanwhile, so the install finds them as planned.
  std::vector<uint64_t> owned;
  for (const auto& in : plan.inputs) owned.push_back(in.run_id);
  if (plan.target_run_id.has_value()) owned.push_back(*plan.target_run_id);
  merging_runs_.insert(owned.begin(), owned.end());

  // ---- Merge (mutex released). ----
  // The plan's FileMetaPtr references pin every input SST (and the caller
  // pins `mem`): deferred GC never deletes a referenced file, so the merge
  // reads a frozen snapshot whatever installs concurrently.
  const compaction::OutputShape shape = OutputShapeForDb();
  const uint64_t t0 = NowMicros();
  lock.unlock();
  s = compaction::RunMerge(shape, table_cache_.get(), plan, result);
  lock.lock();
  for (uint64_t id : owned) merging_runs_.erase(merging_runs_.find(id));
  bg_cv_.notify_all();  // A flush waiting for one of these runs re-checks.

  // ---- Install (under the mutex). ----
  if (s.ok()) {
    ring_->Emit(obs::EventType::kCompactionMerge, shard, level,
                result->bytes_written);
    auto next = std::make_unique<Version>(*current_);
    s = compaction::ApplyCompactionPlan(plan, result->outputs, &next_run_id_,
                                        next.get(), consumed);
    if (s.ok()) {
      InstallVersionLocked(std::move(next));
      ring_->Emit(obs::EventType::kCompactionInstall, shard, level,
                  NowMicros() - t0);
      return s;
    }
  }
  DeleteUninstalledOutputs(result->outputs);
  return s;
}

Status DB::RunCompactionLocked(std::unique_lock<std::mutex>& lock,
                               const CompactionRequest& job) {
  const uint64_t comp_t0 = NowMicros();
  compaction::MergeResult result;
  std::vector<FileMetaPtr> consumed;
  Status s = RunJobLocked(lock, job, nullptr, &result, &consumed);
  if (!s.ok()) return s;
  // A merged compaction always consumes a file: nothing consumed means an
  // empty plan, which counts as done.
  if (!consumed.empty()) {
    latency_.Record(obs::OpType::kCompaction, NowMicros() - comp_t0);
    amp_.RecordCompaction(job.output_level, result.bytes_read,
                          result.bytes_written);
    // Persist the new structure before queueing the inputs for deletion
    // (crash safety).
    s = InstallManifestLocked();
    if (!s.ok()) return s;
    MarkObsoleteLocked(std::move(consumed));
  }
  policy_->OnCompactionCompleted(job, *current_);
  // The merge stage has released its file references by now, so unpinned
  // inputs are deleted here.
  s = CollectObsoleteLocked();
  bg_cv_.notify_all();  // Stalled writers re-check the shrunken debt.
  return s;
}

void DB::WaitOutLevel0FlushLocked(std::unique_lock<std::mutex>& lock) {
  if (!level0_flush_) return;
  pick_waiting_ = true;
  bg_cv_.wait(lock, [this] { return !level0_flush_; });
  pick_waiting_ = false;
  bg_cv_.notify_all();  // The next leveling flush may claim level 0.
}

Status DB::CompactAll() {
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  std::unique_lock<std::mutex> lock(mutex_);
  LaneRequest req;
  return RunOnCompactionLaneLocked(lock, &req);
}

bool DB::GetProperty(const std::string& property, std::string* value) {
  value->clear();
  if (property == "talus.stats") {
    *value = obs::RenderStats({SnapshotMetrics()});
    return true;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (property == "talus.levels") {
    *value = current_->DebugString();
    return true;
  }
  if (property == "talus.num-runs") {
    *value = std::to_string(current_->TotalRuns());
    return true;
  }
  if (property == "talus.data-bytes") {
    *value = std::to_string(ApproximateDataBytesLocked());
    return true;
  }
  if (property == "talus.cstats") {
    lock.unlock();  // The tracker is lock-free.
    *value = amp_.Snapshot().CompactionsToString();
    return true;
  }
  if (property == "talus.exec") {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "mode=%s threads=%zu imm_queued=%zu max_imm_queue=%llu "
        "stall_us=%llu slowdowns=%llu stops=%llu | "
        "flush{queued=%d running=%d} compaction{queued=%d running=%d}",
        pool_ != nullptr ? "background" : "inline",
        pool_ != nullptr ? pool_->num_threads() : size_t{0}, imm_.size(),
        static_cast<unsigned long long>(stats_.max_imm_queue_depth),
        static_cast<unsigned long long>(stats_.stall_micros()),
        static_cast<unsigned long long>(stats_.stall_slowdowns()),
        static_cast<unsigned long long>(stats_.stall_stops()),
        flush_lane_ == Lane::kQueued, flush_lane_ == Lane::kRunning,
        compaction_lane_ == Lane::kQueued,
        compaction_lane_ == Lane::kRunning);
    *value = buf;
    return true;
  }
  if (property == "talus.latency") {
    lock.unlock();  // Snapshots only touch the recorder's own atomics.
    *value = latency_.ToString();
    return true;
  }
  if (property == "talus.events") {
    lock.unlock();  // The ring has its own lock.
    *value = ring_->ToString();
    return true;
  }
  if (property == "talus.amp") {
    obs::AmpSnapshot cumulative = amp_.Snapshot();
    obs::AmpSnapshot window = amp_.WindowSnapshot();
    FillLiveSpaceLocked(&cumulative);
    FillLiveSpaceLocked(&window);
    lock.unlock();
    *value = "cumulative:\n" + cumulative.ToString() + "window:\n" +
             window.ToString();
    return true;
  }
  if (property == "talus.model") {
    lock.unlock();  // EvaluateModelDrift manages its own locking.
    *value = EvaluateModelDrift().ToString();
    return true;
  }
  if (property == "talus.tune") {
    if (tuner_ == nullptr) {
      *value = "enabled=0";
      return true;
    }
    char head[160];
    std::snprintf(head, sizeof(head),
                  "enabled=1 policy=%s T=%.1f hysteresis=%.2f ",
                  policy_->name().c_str(), options_.policy.size_ratio,
                  tuner_->config().hysteresis);
    lock.unlock();  // SnapshotMetrics takes it again.
    const obs::MetricSnapshot snap = SnapshotMetrics();
    const tune::TunerStats& ts = snap.tune;
    *value = head + obs::RenderStats({snap}, obs::kTune) +
             " last_action=" +
             (ts.last_action.empty() ? "none" : ts.last_action) +
             " last_design=" +
             (ts.last_design.empty() ? "none" : ts.last_design);
    return true;
  }
  if (property == "talus.snapshots") {
    lock.unlock();  // The snapshotter has its own lock.
    if (snapshotter_ != nullptr) *value = snapshotter_->RingText();
    return true;
  }
  return false;
}

Status DB::InstallManifestLocked() {
  ManifestData data;
  data.next_file_number = next_file_number_.load(std::memory_order_relaxed);
  data.next_run_id = next_run_id_;
  data.last_sequence = last_sequence_;
  data.flush_count = flush_count_;
  data.wal_number = OldestLiveWalLocked();
  data.policy_name = policy_->name();
  data.policy_state = policy_->EncodeState();
  // The live config (not the DbOptions one): under adaptive tuning the two
  // diverge, and reopen re-resolves from this field (DESIGN.md §9).
  data.policy_config = EncodeGrowthPolicyConfig(options_.policy);
  data.version = *current_;

  const uint64_t new_number = manifest_number_ + 1;
  Status s = WriteManifestSnapshot(options_.env, options_.path, new_number,
                                   data);
  if (!s.ok()) return s;
  if (manifest_number_ != 0) {
    options_.env->RemoveFile(
        ManifestFileName(options_.path, manifest_number_));
  }
  manifest_number_ = new_number;
  return Status::OK();
}

void DB::InstallVersionLocked(std::unique_ptr<Version> next) {
  next->Ref();
  Version* old = current_;
  current_ = next.release();
  if (old != nullptr && old->Unref()) delete old;
}

void DB::EnsurePaddedLocked(size_t min_levels) {
  if (current_->levels.size() >= min_levels) return;
  auto padded = std::make_unique<Version>(*current_);
  padded->EnsureLevels(min_levels);
  InstallVersionLocked(std::move(padded));
}

void DB::MarkObsoleteLocked(std::vector<FileMetaPtr> files) {
  for (auto& f : files) gc_pending_.push_back(std::move(f));
  gc_pending_count_.store(gc_pending_.size(), std::memory_order_release);
}

Status DB::CollectObsoleteLocked() {
  Status result;
  uint64_t deleted_now = 0;
  for (auto it = gc_pending_.begin(); it != gc_pending_.end();) {
    // use_count() == 1 means the queue's own reference is the last: every
    // version, view, and iterator has let go. A stale concurrent read can
    // only over-count, which defers (never corrupts) the deletion.
    if (it->use_count() > 1) {
      ++it;
      continue;
    }
    const uint64_t number = (*it)->number;
    table_cache_->Evict(number);
    Status s = options_.env->RemoveFile(SstFileName(options_.path, number));
    if (!s.ok() && !s.IsNotFound()) {
      // Keep the entry so the next collection retries the deletion.
      if (result.ok()) result = s;
      ++it;
      continue;
    }
    it = gc_pending_.erase(it);
    stats_.obsolete_files_deleted++;
    deleted_now++;
  }
  gc_pending_count_.store(gc_pending_.size(), std::memory_order_release);
  if (deleted_now > 0) {
    ring_->Emit(obs::EventType::kGcDelete,
                static_cast<uint16_t>(options_.shard_index), deleted_now, 0);
  }
  return result;
}

std::shared_ptr<const read::ReadView> DB::AcquireReadView() {
  std::lock_guard<std::mutex> lock(mutex_);
  return AcquireReadViewLocked();
}

std::shared_ptr<const read::ReadView> DB::AcquireReadViewLocked() {
  // Under a shared sequence allocator the visibility bound is the global
  // watermark, not this shard's own last sequence: everything at or below
  // the watermark is fully applied in EVERY shard, so views pinned at it in
  // different shards compose into one consistent cross-shard snapshot.
  // (With one shard the two are always equal — claim and publish alternate
  // under queue leadership.)
  return AcquireReadViewAtLocked(options_.sequence_allocator != nullptr
                                     ? options_.sequence_allocator->visible()
                                     : last_sequence_);
}

std::shared_ptr<const read::ReadView> DB::AcquireReadViewAtLocked(
    SequenceNumber sequence) {
  auto* view = new read::ReadView;
  current_->Ref();
  view->version = current_;
  view->mem = mem_;
  view->imm.reserve(imm_.size());
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    view->imm.push_back(it->mem);
  }
  view->sequence = sequence;
  return std::shared_ptr<const read::ReadView>(
      view, [this](const read::ReadView* v) { ReleaseReadView(v); });
}

void DB::ReleaseReadView(const read::ReadView* view) {
  std::unique_ptr<const read::ReadView> owned(view);
  const Version* version = view->version;
  // Fast path: no files awaiting GC and the version outlives this view (the
  // DB itself still references it) — pure refcount traffic, no mutex.
  if (gc_pending_count_.load(std::memory_order_acquire) == 0) {
    if (!version->Unref()) return;
    // Last reference to a replaced version; its files were either adopted
    // by successors or already collected (the GC queue is empty).
    delete version;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (version->Unref()) delete version;
  Status s = CollectObsoleteLocked();
  if (!s.ok() && bg_error_.ok()) bg_error_ = s;
}

double DB::BitsPerKeyForLevelLocked(int level) const {
  auto allocator =
      NewFilterAllocator(options_.filter_layout, options_.bloom_bits_per_key);
  return allocator->BitsForLevel(policy_->FilterInfo(*current_), level);
}

Status DB::Get(const Slice& key, std::string* value) {
  return Get(key, value, nullptr);
}

Status DB::Get(const Slice& key, std::string* value,
               const Snapshot* snapshot) {
  obs::ScopedOpTimer timer(latency_, obs::OpType::kGet);
  // The view pin is the only mutex acquisition on the lookup path; the
  // probe itself runs against immutable state and the lock-free memtables.
  auto view = AcquireReadView();
  options_.env->io_stats()->RecordCpu(kCpuCostPerRead);
  LookupKey lkey(
      key, snapshot != nullptr ? snapshot->sequence() : view->sequence);

  obs::LookupProbe probe;
  Status result = GetFromView(*view, lkey, value, &probe);
  // One striped fold, no second mutex acquisition.
  amp_.RecordLookup(probe);
  return result;
}

Status DB::GetFromView(const read::ReadView& view, const LookupKey& lkey,
                       std::string* value, obs::LookupProbe* probe) {
  Status s;
  if (view.mem->Get(lkey, value, &s)) {
    probe->hit_level = obs::LookupProbe::kHitMemtable;
    return s;
  }
  // Immutable memtables, newest first.
  for (const auto& mem : view.imm) {
    if (mem->Get(lkey, value, &s)) {
      probe->hit_level = obs::LookupProbe::kHitMemtable;
      return s;
    }
  }

  const Slice key = lkey.user_key();
  const auto& levels = view.version->levels;
  for (size_t level_idx = 0; level_idx < levels.size(); level_idx++) {
    const int slot = obs::AmpSlot(static_cast<int>(level_idx));
    for (const auto& run : levels[level_idx].runs) {
      // Locate the single file that may contain the key.
      const auto& files = run.files;
      size_t left = 0, right = files.size();
      while (left < right) {
        size_t mid = (left + right) / 2;
        if (files[mid]->largest.user_key().compare(key) < 0) {
          left = mid + 1;
        } else {
          right = mid;
        }
      }
      if (left == files.size()) continue;
      if (files[left]->smallest.user_key().compare(key) > 0) continue;

      probe->files_probed[slot]++;
      if (slot > probe->deepest_slot) probe->deepest_slot = slot;
      std::shared_ptr<SstReader> reader =
          table_cache_->GetReader(files[left]->number);
      if (reader == nullptr) {
        return Status::IOError("cannot open sst for read");
      }
      SstReader::GetStats gs;
      bool decided = reader->Get(lkey, value, &s, &gs);
      if (gs.filter_negative) probe->filter_negatives[slot]++;
      if (gs.block_read) probe->block_reads[slot]++;
      if (gs.cache_hit) probe->cache_hits[slot]++;
      // A probe whose filter passed but that did not decide the key is a
      // Bloom false positive — exactly the per-lookup cost the model's R
      // term prices.
      if (!decided && !gs.filter_negative) {
        probe->bloom_false_positives[slot]++;
      }
      if (decided) {
        probe->hit_level = static_cast<int>(level_idx);
        return s;
      }
    }
  }
  return Status::NotFound(Slice());
}

std::unique_ptr<Iterator> DB::NewIterator() {
  return NewPinnedIterator(AcquireReadView());
}

std::unique_ptr<Iterator> DB::NewIteratorAt(SequenceNumber sequence) {
  std::shared_ptr<const read::ReadView> view;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    view = AcquireReadViewAtLocked(sequence);
  }
  return NewPinnedIterator(std::move(view));
}

std::unique_ptr<Iterator> DB::NewPinnedIterator(
    std::shared_ptr<const read::ReadView> view) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(view->mem->NewIterator());
  for (const auto& mem : view->imm) {
    children.push_back(mem->NewIterator());
  }
  auto open = [this](uint64_t n) { return table_cache_->GetReader(n); };
  for (const auto& level : view->version->levels) {
    for (const auto& run : level.runs) {
      children.push_back(std::make_unique<RunIterator>(run.files, open));
    }
  }
  auto merged =
      NewMergingIterator(InternalKeyComparator(), std::move(children));
  return std::make_unique<DbIterator>(std::move(view), std::move(merged),
                                      latency_);
}

Status DB::Scan(const Slice& start, size_t count,
                std::vector<std::pair<std::string, std::string>>* out) {
  // Pin once, then iterate with no lock held: the view's sequence bound
  // makes the whole scan a consistent snapshot even while writers and
  // background maintenance proceed.
  return ScanFrom([this] { return NewPinnedIterator(AcquireReadView()); },
                  start, count, out);
}

Status DB::ScanFrom(const std::function<std::unique_ptr<Iterator>()>& open,
                    const Slice& start, size_t count,
                    std::vector<std::pair<std::string, std::string>>* out) {
  obs::ScopedOpTimer timer(latency_, obs::OpType::kScan);
  auto iter = open();
  options_.env->io_stats()->RecordCpu(kCpuCostPerRead);
  out->clear();
  iter->Seek(start);
  while (iter->Valid() && out->size() < count) {
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    iter->Next();
  }
  amp_.RecordScan();
  return iter->status();
}

EngineStats DB::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

obs::GroupCommitStats DB::GetGroupCommitStats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return write_stats_.Snapshot();
}

SequenceNumber DB::LastSequence() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return last_sequence_;
}

uint64_t DB::ApproximateDataBytes() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return ApproximateDataBytesLocked();
}

uint64_t DB::ApproximateDataBytesLocked() const {
  uint64_t total = mem_->payload_bytes();
  for (const auto& part : imm_) total += part.mem->payload_bytes();
  for (const auto& level : current_->levels) {
    total += level.PayloadBytes();
  }
  return total;
}

std::string DB::DebugString() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return current_->DebugString();
}

std::vector<Histogram> DB::GetLatencyHistograms() const {
  return latency_.SnapshotAll();
}

std::string DB::DumpPrometheus() const {
  return obs::RenderPrometheus({SnapshotMetrics()});
}

obs::MetricSnapshot DB::SnapshotMetrics() const {
  obs::MetricSnapshot s;
  s.sections = obs::kEngine | obs::kWrite;
  s.shard_index = options_.shard_index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.amp = amp_.Snapshot();
    FillLiveSpaceLocked(&s.amp);
    s.stats = stats_;
    s.writes = write_stats_.Snapshot();
    s.gc_pending = gc_pending_.size();
    s.data_bytes = ApproximateDataBytesLocked();
    s.num_runs = current_->TotalRuns();
  }
  s.bc_hits = block_cache_->hits();
  s.bc_misses = block_cache_->misses();
  s.bc_evictions = block_cache_->evictions();
  s.bc_usage = block_cache_->usage();
  s.bc_capacity = block_cache_->capacity();
  s.tables = table_cache_->GetStats();
  s.events_total = ring_->TotalEmitted();
  s.latency = GetLatencyHistograms();
  if (tuner_ != nullptr) {
    s.sections |= obs::kTune;
    s.tune = tuner_->GetStats();
  }
  return s;
}

obs::MetricSnapshot DB::SampleMetrics() {
  obs::MetricSnapshot s = SnapshotMetrics();
  s.sections |= obs::kDrift;
  s.drift = EvaluateModelDrift();
  return s;
}

void DB::FillLiveSpaceLocked(obs::AmpSnapshot* snap) const {
  const auto& levels = current_->levels;
  for (size_t i = 0; i < levels.size(); i++) {
    const int slot = obs::AmpSlot(static_cast<int>(i));
    for (const auto& run : levels[i].runs) {
      for (const auto& f : run.files) {
        snap->levels[slot].live_sst_bytes += f->file_size;
        snap->levels[slot].live_payload_bytes += f->payload_bytes;
        if (slot + 1 > snap->num_levels) snap->num_levels = slot + 1;
      }
    }
  }
}

obs::AmpSnapshot DB::GetAmpSnapshot() const {
  obs::AmpSnapshot snap = amp_.Snapshot();
  std::unique_lock<std::mutex> lock(mutex_);
  FillLiveSpaceLocked(&snap);
  return snap;
}

GrowthPolicyConfig DB::CurrentPolicyConfig() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.policy;
}

Status DB::ApplyPolicyConfig(const GrowthPolicyConfig& config) {
  GrowthPolicyConfig resolved = config;
  resolved.bloom_bits_per_key = options_.bloom_bits_per_key;
  PolicyContext ctx;
  ctx.buffer_bytes = options_.write_buffer_size;
  ctx.amp = &amp_;
  auto next = CreateGrowthPolicy(resolved, ctx);
  if (next == nullptr) {
    return Status::InvalidArgument("unknown growth policy");
  }

  std::unique_lock<std::mutex> lock(mutex_);
  {
    GrowthPolicyConfig current = options_.policy;
    current.bloom_bits_per_key = options_.bloom_bits_per_key;
    if (EncodeGrowthPolicyConfig(resolved) ==
        EncodeGrowthPolicyConfig(current)) {
      return Status::OK();  // Identical design; nothing to do.
    }
  }
  LaneRequest req;
  req.policy = std::move(next);
  req.config = resolved;
  return RunOnCompactionLaneLocked(lock, &req);
}

tune::TuneDecision DB::RetuneNow() {
  tune::TuneDecision decision;
  if (tuner_ == nullptr) return decision;

  // Sense: consume one drift window (emits kAmpSample / kModelDrift).
  const obs::DriftSample drift = EvaluateModelDrift();
  if (drift.drifted) tuner_->NoteDrift();

  // Navigate: hysteresis-banded re-solve of the vertical cost model over
  // the window the sample priced, under the design it priced.
  decision = tuner_->Decide(drift);
  if (!decision.retune()) return decision;

  // Act: install the winning design, keeping every non-design knob.
  GrowthPolicyConfig next = CurrentPolicyConfig();
  next.merge = decision.merge;
  next.size_ratio = decision.size_ratio;
  if (ApplyPolicyConfig(next).ok()) {
    tuner_->NoteSwitchApplied(next.Label());
  }
  return decision;
}

obs::DriftSample DB::EvaluateModelDrift() {
  const obs::AmpSnapshot window = amp_.WindowSnapshot();
  const obs::AmpSnapshot total = amp_.Snapshot();
  obs::ModelDriftMonitor::Measured m;
  m.bloom_fpr = BloomFalsePositiveRate(options_.bloom_bits_per_key);
  // P: entries per data block, from the observed mean entry size (the
  // model prices I/O in pages of P entries).
  const uint64_t ops = total.puts + total.deletes;
  const double avg_entry =
      ops > 0 ? static_cast<double>(total.user_payload_bytes) /
                    static_cast<double>(ops)
              : 64.0;
  m.page_entries =
      std::max(1.0, static_cast<double>(options_.block_size) /
                        std::max(1.0, avg_entry));
  {
    // Read under the lock a switch or a Vertiorizon phase restart installs
    // the design with: the sample never prices half of one.
    std::unique_lock<std::mutex> lock(mutex_);
    m.data_buffers = std::max<uint64_t>(
        1, ApproximateDataBytesLocked() /
               std::max<uint64_t>(1, options_.write_buffer_size));
    m.design = policy_->design();
    if (m.design) {
      m.predicted = tuning::Predict(*m.design, m.bloom_fpr, m.page_entries,
                                    m.data_buffers);
    }
  }

  // An empty window (no operation since the last evaluation) falls back to
  // the lifetime mix.
  m.window_ops = window.Operations();
  m.mix = m.window_ops > 0 ? window.Mix() : total.Mix();
  m.window_lookups = window.lookups;
  m.window_updates = window.puts + window.deletes;
  if (window.lookups > 0) {
    m.found_fraction =
        static_cast<double>(window.lookups - window.misses) /
        static_cast<double>(window.lookups);
  }
  m.blocks_per_lookup = window.BlocksPerLookup();
  m.write_amp = window.WriteAmp();

  const obs::DriftSample sample = drift_.Evaluate(m);

  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  ring_->Emit(obs::EventType::kAmpSample, shard,
              static_cast<uint64_t>(m.write_amp * 1000.0),
              static_cast<uint64_t>(m.blocks_per_lookup * 1000.0));
  if (sample.drifted) {
    ring_->Emit(obs::EventType::kModelDrift, shard,
                static_cast<uint64_t>(sample.drift_score * 1000.0),
                static_cast<uint64_t>(sample.mix_shift * 1000.0));
  }

  // The evaluated window is consumed; the next evaluation sees only newer
  // traffic.
  amp_.AdvanceWindow();
  return sample;
}

}  // namespace talus
