// Range-sharded frontend (src/shard/, DESIGN.md §3): routing and split
// points, the global sequence watermark, shard_count=1 bit-equality with the
// plain engine, cross-shard snapshot & iterator consistency under concurrent
// writers, and parallel recovery after a simulated crash mid-write.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "env/fault_env.h"
#include "lsm/db.h"
#include "shard/sequence_allocator.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/sharded_db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

std::string Key(int i) { return workload::FormatKey(i, 16); }

// Split points matching the workload key space (shard i gets [i*per,
// (i+1)*per) of the index space).
std::vector<std::string> SplitPoints(int shards, int num_keys) {
  std::vector<std::string> points;
  for (int i = 1; i < shards; i++) {
    points.push_back(Key(num_keys * i / shards));
  }
  return points;
}

DbOptions Opts(Env* env, const std::string& path) {
  DbOptions opts;
  opts.env = env;
  opts.path = path;
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

// ---- Router units ----------------------------------------------------------

TEST(ShardRouter, RoutesByUpperBound) {
  shard::ShardRouter router;
  ASSERT_TRUE(shard::ShardRouter::Create({"f", "m", "t"}, &router).ok());
  EXPECT_EQ(router.shard_count(), 4u);
  EXPECT_EQ(router.ShardFor("a"), 0u);
  EXPECT_EQ(router.ShardFor("e~"), 0u);
  EXPECT_EQ(router.ShardFor("f"), 1u);  // Boundary belongs to the right.
  EXPECT_EQ(router.ShardFor("g"), 1u);
  EXPECT_EQ(router.ShardFor("m"), 2u);
  EXPECT_EQ(router.ShardFor("s"), 2u);
  EXPECT_EQ(router.ShardFor("t"), 3u);
  EXPECT_EQ(router.ShardFor("zzz"), 3u);
}

TEST(ShardRouter, RejectsBadBoundaries) {
  shard::ShardRouter router;
  EXPECT_FALSE(shard::ShardRouter::Create({"m", "f"}, &router).ok());
  EXPECT_FALSE(shard::ShardRouter::Create({"f", "f"}, &router).ok());
  EXPECT_FALSE(shard::ShardRouter::Create({""}, &router).ok());
  EXPECT_TRUE(shard::ShardRouter::Create({}, &router).ok());
  EXPECT_EQ(router.shard_count(), 1u);
}

TEST(ShardRouter, DefaultBoundariesAreOrdered) {
  const auto b = shard::ShardRouter::DefaultBoundaries(8);
  ASSERT_EQ(b.size(), 7u);
  for (size_t i = 1; i < b.size(); i++) EXPECT_LT(b[i - 1], b[i]);
  shard::ShardRouter router;
  ASSERT_TRUE(shard::ShardRouter::Create(b, &router).ok());
  EXPECT_EQ(router.shard_count(), 8u);
}

// ---- Sequence allocator units ---------------------------------------------

TEST(SequenceAllocator, WatermarkWaitsForGaps) {
  shard::SequenceAllocator alloc;
  const SequenceNumber a = alloc.Claim(3);  // 1..3
  const SequenceNumber b = alloc.Claim(2);  // 4..5
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(alloc.visible(), 0u);
  alloc.Publish(b, 2);  // Out of order: blocked behind the hole at 1..3.
  EXPECT_EQ(alloc.visible(), 0u);
  alloc.Publish(a, 3);
  EXPECT_EQ(alloc.visible(), 5u);
}

TEST(SequenceAllocator, ResetRestartsAfterRecovery) {
  shard::SequenceAllocator alloc;
  alloc.Reset(41);
  EXPECT_EQ(alloc.visible(), 41u);
  const SequenceNumber base = alloc.Claim(1);
  EXPECT_EQ(base, 42u);
  alloc.Publish(base, 1);
  EXPECT_EQ(alloc.visible(), 42u);
}

// ---- Shard manifest --------------------------------------------------------

TEST(ShardManifest, RoundTripsAndPinsSplitPoints) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/sm").ok());
  shard::ShardManifest manifest;
  manifest.boundaries = {"g", "p"};
  ASSERT_TRUE(shard::WriteShardManifest(env.get(), "/sm", manifest).ok());
  shard::ShardManifest reloaded;
  ASSERT_TRUE(shard::ReadShardManifest(env.get(), "/sm", &reloaded).ok());
  EXPECT_EQ(reloaded.boundaries, manifest.boundaries);
  EXPECT_TRUE(
      shard::ReadShardManifest(env.get(), "/absent", &reloaded).IsNotFound());
}

TEST(ShardManifest, ReopenWithDifferentSplitPointsFails) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/resplit");
  opts.shard_count = 2;
  opts.shard_split_points = {Key(500)};
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
    ASSERT_TRUE(db->Put(Key(1), "v").ok());
  }
  // Same split points reopen fine; different ones must be refused.
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  }
  opts.shard_split_points = {Key(600)};
  std::unique_ptr<shard::ShardedDB> db;
  EXPECT_TRUE(shard::ShardedDB::Open(opts, &db).IsInvalidArgument());
}

// ---- shard_count=1 bit-equality -------------------------------------------

TEST(ShardedDB, SingleShardBitIdenticalToPlainDb) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> plain;
  ASSERT_TRUE(DB::Open(Opts(env.get(), "/plain"), &plain).ok());
  DbOptions sharded_opts = Opts(env.get(), "/sharded");
  sharded_opts.shard_count = 1;
  std::unique_ptr<shard::ShardedDB> sharded;
  ASSERT_TRUE(shard::ShardedDB::Open(sharded_opts, &sharded).ok());

  // A deterministic mixed workload (overwrites, deletes, batches) driven
  // through both engines. Inline mode: flushes/compactions happen at the
  // same points, so every observable output must match bit-for-bit.
  Random rnd(42);
  for (int i = 0; i < 2000; i++) {
    const std::string key = Key(rnd.Uniform(400));
    if (i % 11 == 3) {
      ASSERT_TRUE(plain->Delete(key).ok());
      ASSERT_TRUE(sharded->Delete(key).ok());
    } else if (i % 17 == 5) {
      WriteBatch batch;
      batch.Put(key, "batch-" + std::to_string(i));
      batch.Put(Key(rnd.Uniform(400)), "batch2-" + std::to_string(i));
      ASSERT_TRUE(plain->Write(batch).ok());
      ASSERT_TRUE(sharded->Write(batch).ok());
    } else {
      const std::string value = "v-" + std::to_string(i);
      ASSERT_TRUE(plain->Put(key, value).ok());
      ASSERT_TRUE(sharded->Put(key, value).ok());
    }
  }

  std::vector<std::pair<std::string, std::string>> plain_scan, sharded_scan;
  ASSERT_TRUE(plain->Scan(Slice(), 100000, &plain_scan).ok());
  ASSERT_TRUE(sharded->Scan(Slice(), 100000, &sharded_scan).ok());
  EXPECT_EQ(plain_scan, sharded_scan);

  std::string plain_stats, sharded_stats;
  ASSERT_TRUE(plain->GetProperty("talus.stats", &plain_stats));
  ASSERT_TRUE(sharded->GetProperty("talus.stats", &sharded_stats));
  EXPECT_EQ(plain_stats, sharded_stats);
  std::string plain_levels, sharded_levels;
  ASSERT_TRUE(plain->GetProperty("talus.levels", &plain_levels));
  ASSERT_TRUE(sharded->GetProperty("talus.levels", &sharded_levels));
  EXPECT_EQ(plain_levels, sharded_levels);
}

// The talus.stats keys, in order.
std::vector<std::string> StatsKeys(const std::string& stats) {
  std::vector<std::string> keys;
  size_t pos = 0;
  while (pos < stats.size()) {
    size_t end = stats.find(' ', pos);
    if (end == std::string::npos) end = stats.size();
    const std::string token = stats.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) keys.push_back(token.substr(0, eq));
    pos = end + 1;
  }
  return keys;
}

// Every key a single engine reports survives into the fleet's talus.stats,
// which adds shards=. Fleet values follow the metric catalog's merge rules.
TEST(ShardedDB, FleetStatsKeysCoverSingleEngineKeys) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> plain;
  ASSERT_TRUE(DB::Open(Opts(env.get(), "/plain"), &plain).ok());
  DbOptions fleet_opts = Opts(env.get(), "/fleet");
  fleet_opts.shard_count = 4;
  fleet_opts.shard_split_points = SplitPoints(4, 1000);
  std::unique_ptr<shard::ShardedDB> fleet;
  ASSERT_TRUE(shard::ShardedDB::Open(fleet_opts, &fleet).ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(plain->Put(Key(i), "v").ok());
    ASSERT_TRUE(fleet->Put(Key(i), "v").ok());
  }

  std::string plain_stats, fleet_stats;
  ASSERT_TRUE(plain->GetProperty("talus.stats", &plain_stats));
  ASSERT_TRUE(fleet->GetProperty("talus.stats", &fleet_stats));
  const std::vector<std::string> fleet_keys = StatsKeys(fleet_stats);
  const std::set<std::string> have(fleet_keys.begin(), fleet_keys.end());
  EXPECT_EQ(fleet_keys.front(), "shards");
  for (const std::string& key : StatsKeys(plain_stats)) {
    EXPECT_EQ(have.count(key), 1u) << "fleet talus.stats lacks " << key;
  }
  EXPECT_NE(fleet_stats.find(" puts=1000 "), std::string::npos);
  EXPECT_NE(fleet_stats.find(" group_commits=1000 "), std::string::npos);
}

// Fleet stats come from per-shard snapshots, each taken under its shard's
// mutex, so scraping while background jobs reshape the shards is race-free
// (this suite runs under ThreadSanitizer in CI).
TEST(ShardedDB, StatsScrapesDuringBackgroundWritesAreRaceFree) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/scraped");
  opts.execution_mode = ExecutionMode::kBackground;
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 2000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  std::atomic<bool> done{false};
  std::thread writer([&db, &done] {
    for (int i = 0; i < 6000; i++) {
      EXPECT_TRUE(db->Put(Key(i * 7 % 2000), std::string(100, 'v')).ok());
    }
    done.store(true);
  });
  int scrapes = 0;
  do {
    std::string stats;
    ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
    EXPECT_EQ(stats.rfind("shards=2 ", 0), 0u) << stats;
    EXPECT_NE(db->DumpPrometheus().find("\ntalus_puts_total "),
              std::string::npos);
    scrapes++;
  } while (!done.load());
  writer.join();
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_GT(scrapes, 0);

  std::string stats;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
  EXPECT_NE(stats.find(" puts=6000 "), std::string::npos) << stats;
  EXPECT_NE(db->DumpPrometheus().find("\ntalus_flushes_total "),
            std::string::npos);
}

// ---- Routing and cross-shard reads ----------------------------------------

TEST(ShardedDB, RoutesAndScansAcrossShards) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/routed");
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(Key(i), "val-" + std::to_string(i)).ok());
  }
  // Every shard owns a quarter of the key space.
  for (size_t s = 0; s < 4; s++) {
    EXPECT_EQ(db->shard(s)->GetAmpSnapshot().puts, 250u) << "shard " << s;
  }
  // Point reads route back.
  for (int i = 0; i < 1000; i += 97) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << i;
    EXPECT_EQ(value, "val-" + std::to_string(i));
  }
  // A full scan is ordered and complete across shard boundaries.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(Slice(), 100000, &out).ok());
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(out[i].first, Key(i));
  }
  // A mid-range scan starts in the right shard and crosses into the next.
  ASSERT_TRUE(db->Scan(Key(240), 20, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(out[i].first, Key(240 + i));

  std::string shards_prop;
  ASSERT_TRUE(db->GetProperty("talus.shards", &shards_prop));
  EXPECT_NE(shards_prop.find("shard=0"), std::string::npos);
  EXPECT_NE(shards_prop.find("shard=3"), std::string::npos);
  std::string agg;
  ASSERT_TRUE(db->GetProperty("talus.stats", &agg));
  EXPECT_NE(agg.find("shards=4"), std::string::npos);
  EXPECT_NE(agg.find("puts=1000"), std::string::npos);
}

// A multi-shard Scan iterates the fleet's merged iterator, not one shard's
// DB::Scan; it is still counted once, in the shard that owns its start key:
// one scan in the fleet's talus.stats, the tracker and the kScan histogram.
TEST(ShardedDB, CrossShardScanIsCountedOnce) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/scancount");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 100);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  for (int i = 0; i < 100; i++) ASSERT_TRUE(db->Put(Key(i), "v").ok());

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(Key(40), 20, &out).ok());  // Crosses into shard 1.
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out.back().first, Key(59));

  EXPECT_EQ(db->AggregatedAmpSnapshot().scans, 1u);
  EXPECT_EQ(db->shard(0)->GetAmpSnapshot().scans, 1u);  // Owns Key(40).
  const size_t scan_idx = static_cast<size_t>(obs::OpType::kScan);
  EXPECT_EQ(db->GetLatencyHistograms()[scan_idx].Count(), 1u);
  std::string stats;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
  EXPECT_NE(stats.find(" scans=1 "), std::string::npos) << stats;
}

TEST(ShardedDB, MultiShardBatchIsAtomicInSnapshots) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/atomic");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  // Pairs (i, 500+i) always live in different shards and are written in
  // one batch; any snapshot must see both sides at the same round.
  for (int round = 0; round < 50; round++) {
    WriteBatch batch;
    batch.Put(Key(7), "r" + std::to_string(round));
    batch.Put(Key(507), "r" + std::to_string(round));
    ASSERT_TRUE(db->Write(batch).ok());
    const Snapshot* snap = db->GetSnapshot();
    std::string left, right;
    ASSERT_TRUE(db->Get(Key(7), &left, snap).ok());
    ASSERT_TRUE(db->Get(Key(507), &right, snap).ok());
    EXPECT_EQ(left, right) << "round " << round;
    db->ReleaseSnapshot(snap);
  }
}

// A multi-shard batch whose second sub-batch fails its WAL append. The
// sub-batches commit in shard order on the caller's thread, so the failure
// lands deterministically on shard 1 after shard 0 committed.
TEST(ShardedDB, MultiShardBatchWithFailingShard) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  DbOptions opts = Opts(&env, "/failing");
  opts.write_buffer_size = 1 << 20;  // No flush: WAL appends are the only
                                     // mutating calls while armed.
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  ASSERT_TRUE(db->Put(Key(7), "old").ok());
  ASSERT_TRUE(db->Put(Key(507), "old").ok());

  WriteBatch batch;
  batch.Put(Key(7), "new");    // Shard 0.
  batch.Put(Key(507), "new");  // Shard 1.
  const SequenceNumber visible = db->VisibleSequence();
  // Shard 0's WAL record is two appends (header, payload; kNone never
  // syncs); shard 1's first append fails.
  env.FailAfterWrites(2);
  Status s = db->Write(batch);
  env.Disarm();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  // The range was burned, not left as a hole: the watermark passed it.
  EXPECT_EQ(db->VisibleSequence(), visible + batch.Count());
  // Documented partial apply: shard 0's sub-batch committed, shard 1's not.
  std::string value;
  ASSERT_TRUE(db->Get(Key(7), &value).ok());
  EXPECT_EQ(value, "new");
  ASSERT_TRUE(db->Get(Key(507), &value).ok());
  EXPECT_EQ(value, "old");

  // Shard 0 keeps accepting writes, and they become readable; shard 1
  // latched its WAL error and refuses writes until reopened.
  ASSERT_TRUE(db->Put(Key(8), "after").ok());
  ASSERT_TRUE(db->Get(Key(8), &value).ok());
  EXPECT_EQ(value, "after");
  EXPECT_FALSE(db->Put(Key(508), "after").ok());
}

// ---- Cross-shard snapshot consistency under concurrent writers -------------

TEST(ShardedDB, SnapshotConsistencyUnderConcurrentWriters) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/concurrent");
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 3;
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  // 4 writers, each committing multi-shard batches that keep one invariant:
  // keys (w), (250+w), (500+w), (750+w) — one per shard — always carry the
  // same value. Readers snapshot/scan concurrently and must never see a
  // torn batch.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; w++) {
    writers.emplace_back([&db, w] {
      for (int round = 0; round < 300; round++) {
        WriteBatch batch;
        const std::string value =
            "w" + std::to_string(w) + "-r" + std::to_string(round);
        for (int quarter = 0; quarter < 4; quarter++) {
          batch.Put(Key(quarter * 250 + w), value);
        }
        ASSERT_TRUE(db->Write(batch).ok());
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&db, &stop, &torn] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::pair<std::string, std::string>> out;
        if (!db->Scan(Slice(), 100000, &out).ok()) continue;
        std::map<std::string, std::string> by_key(out.begin(), out.end());
        for (int w = 0; w < 4; w++) {
          std::set<std::string> values;
          int present = 0;
          for (int quarter = 0; quarter < 4; quarter++) {
            auto it = by_key.find(Key(quarter * 250 + w));
            if (it == by_key.end()) continue;
            present++;
            values.insert(it->second);
          }
          // All four present with one value, or none yet written.
          if (present != 0 && (present != 4 || values.size() != 1)) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // Quiesced end state: last round of each writer fully visible.
  ASSERT_TRUE(db->FlushMemTable().ok());
  for (int w = 0; w < 4; w++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(w), &value).ok());
    EXPECT_EQ(value, "w" + std::to_string(w) + "-r299");
  }
}

TEST(ShardedDB, IteratorPinsOneGlobalSequence) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/iterpin");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(Key(i), "before").ok());
  }
  auto iter = db->NewIterator();
  // Writes landing after the pin — including cross-shard batches — must be
  // invisible to the already-created iterator.
  for (int i = 0; i < 1000; i += 3) {
    WriteBatch batch;
    batch.Put(Key(i), "after");
    batch.Put(Key(999 - i), "after");
    ASSERT_TRUE(db->Write(batch).ok());
  }
  size_t seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(iter->value().ToString(), "before");
    seen++;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(seen, 1000u);
}

// ---- Parallel recovery after a simulated crash -----------------------------

TEST(ShardedDB, ParallelRecoveryAfterCrashMidWrite) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/crashed");
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(Key(i), "durable-" + std::to_string(i)).ok());
    }
    // Crash: abandon the store with the memtables unflushed. MemEnv file
    // contents survive the DB objects, so reopening replays per-shard WALs
    // (in parallel on the shared pool).
  }
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(Slice(), 100000, &out).ok());
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(out[i].first, Key(i));
    EXPECT_EQ(out[i].second, "durable-" + std::to_string(i));
  }
  // The global sequence authority resumed past everything recovered: new
  // writes commit, become visible, and snapshot consistently.
  ASSERT_TRUE(db->Put(Key(1), "post-crash").ok());
  std::string value;
  ASSERT_TRUE(db->Get(Key(1), &value).ok());
  EXPECT_EQ(value, "post-crash");
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Get(Key(1), &value, snap).ok());
  EXPECT_EQ(value, "post-crash");
  db->ReleaseSnapshot(snap);
}

}  // namespace
}  // namespace talus
