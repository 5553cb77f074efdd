// Read-path subsystem tests (DESIGN.md §2.7): Version refcounting, the
// sharded TableCache (capacity bound, pinned handles, eviction), ReadView
// acquisition, pinned-iterator snapshot consistency while concurrent
// flushes/compactions install new versions and delete the files the
// iterator reads, and deferred obsolete-file GC.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "read/table_cache.h"
#include "table/sst_builder.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

// ------------------------------------------------------------- Version refs

TEST(VersionRef, LastUnrefReportsOwnership) {
  Version* v = new Version();
  v->Ref();
  v->Ref();
  EXPECT_EQ(v->RefCount(), 2);
  EXPECT_FALSE(v->Unref());
  EXPECT_TRUE(v->Unref());  // Caller owns destruction now.
  delete v;
}

TEST(VersionRef, CopyStartsUnreferenced) {
  Version a;
  a.Ref();
  Version b(a);
  EXPECT_EQ(b.RefCount(), 0);
  EXPECT_TRUE(a.Unref());
}

// -------------------------------------------------------------- TableCache

class TableCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_TRUE(env_->CreateDirIfMissing("/tc").ok());
  }

  // Builds a one-entry SST named with `number` containing key<number>.
  void BuildFile(uint64_t number) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(SstFileName("/tc", number), &file).ok());
    SstBuilder builder(SstBuilderOptions{}, std::move(file));
    InternalKey ikey("key" + std::to_string(number), 1, kTypeValue);
    builder.Add(ikey.Encode(), "value" + std::to_string(number));
    ASSERT_TRUE(builder.Finish().ok());
  }

  std::unique_ptr<Env> env_;
  LruCache block_cache_{1 << 20};
};

TEST_F(TableCacheTest, HitsMissesAndCapacityEviction) {
  // Capacity 8 across 8 shards = 1 reader per shard; file numbers 0..15 map
  // two files onto every shard, so the second open always evicts the first.
  read::TableCache cache(env_.get(), "/tc", &block_cache_, 8);
  for (uint64_t n = 0; n < 16; n++) BuildFile(n);

  for (uint64_t n = 0; n < 16; n++) {
    ASSERT_NE(cache.GetReader(n), nullptr);
  }
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.opens, 16u);
  EXPECT_EQ(stats.evictions, 8u);
  EXPECT_EQ(stats.open_readers, 8u);
  EXPECT_EQ(stats.capacity, 8u);

  // 8..15 are resident: all hits. 0..7 were evicted: all misses.
  for (uint64_t n = 8; n < 16; n++) ASSERT_NE(cache.GetReader(n), nullptr);
  stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 8u);
  for (uint64_t n = 0; n < 8; n++) ASSERT_NE(cache.GetReader(n), nullptr);
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 24u);
}

TEST_F(TableCacheTest, PinnedHandleSurvivesEviction) {
  read::TableCache cache(env_.get(), "/tc", &block_cache_, 8);
  BuildFile(8);
  std::shared_ptr<SstReader> pinned = cache.GetReader(8);
  ASSERT_NE(pinned, nullptr);
  cache.Evict(8);

  // The cache no longer references the reader, but the pin keeps it usable.
  EXPECT_EQ(cache.GetStats().open_readers, 0u);
  std::string value;
  Status s;
  LookupKey lkey("key8", kMaxSequenceNumber);
  ASSERT_TRUE(pinned->Get(lkey, &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "value8");
}

TEST_F(TableCacheTest, OpenFailureReturnsStatus) {
  read::TableCache cache(env_.get(), "/tc", &block_cache_, 8);
  Status s;
  EXPECT_EQ(cache.GetReader(999, &s), nullptr);
  EXPECT_FALSE(s.ok());
}

// --------------------------------------------------------------- Read path

DbOptions SmallDb(Env* env, ExecutionMode mode = ExecutionMode::kInline) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.block_cache_bytes = 64 << 10;
  opts.policy = GrowthPolicyConfig::VTTierFull(3);
  opts.execution_mode = mode;
  opts.num_background_threads = 2;
  opts.slowdown_delay_micros = 100;
  return opts;
}

size_t CountSstFiles(Env* env, const std::string& path) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(path, &children).ok());
  size_t count = 0;
  for (const auto& name : children) {
    uint64_t number = 0;
    std::string suffix;
    if (ParseFileName(name, &number, &suffix) && suffix == "sst") count++;
  }
  return count;
}

size_t CountVersionFiles(const Version& v) {
  size_t count = 0;
  for (const auto& level : v.levels) {
    for (const auto& run : level.runs) count += run.files.size();
  }
  return count;
}

std::vector<std::pair<std::string, std::string>> Drain(Iterator* iter) {
  std::vector<std::pair<std::string, std::string>> out;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  return out;
}

TEST(ReadPath, IteratorPinsExactSnapshotAcrossCompaction) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallDb(env.get()), &db).ok());
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), "v1-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  // Reference state, then pin an iterator on it.
  std::vector<std::pair<std::string, std::string>> expect;
  ASSERT_TRUE(db->Scan(Slice(""), 1000000, &expect).ok());
  auto iter = db->NewIterator();

  const size_t files_before = CountSstFiles(env.get(), "/db");
  ASSERT_GT(files_before, 0u);

  // Rewrite every key and compact twice: the iterator's input files are
  // replaced and queued for deletion while it is pinned to them.
  ASSERT_TRUE(db->CompactAll().ok());
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), "v2-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  // Deferral is observable: more files on disk than the live version names.
  EXPECT_GT(CountSstFiles(env.get(), "/db"),
            CountVersionFiles(db->current_version()));

  // Bit-identical pre-compaction snapshot.
  auto got = Drain(iter.get());
  ASSERT_TRUE(iter->status().ok());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(got[i].first, expect[i].first);
    EXPECT_EQ(got[i].second, expect[i].second);
  }

  // Releasing the iterator lets deferred GC delete the pinned files.
  iter.reset();
  EXPECT_EQ(CountSstFiles(env.get(), "/db"),
            CountVersionFiles(db->current_version()));
  EXPECT_GT(db->stats().obsolete_files_deleted, 0u);

  // The latest state is unaffected.
  std::string value;
  ASSERT_TRUE(db->Get(workload::FormatKey(7, 16), &value).ok());
  EXPECT_EQ(value, "v2-7");
}

TEST(ReadPath, IteratorIgnoresWritesAfterCreation) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallDb(env.get()), &db).ok());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    std::string key = workload::FormatKey(i, 16);
    ASSERT_TRUE(db->Put(key, "old").ok());
    model[key] = "old";
  }

  auto iter = db->NewIterator();
  // Overwrites, deletes, and brand-new keys after the pin are invisible.
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "new").ok());
  }
  for (int i = 1; i < 200; i += 4) {
    ASSERT_TRUE(db->Delete(workload::FormatKey(i, 16)).ok());
  }
  ASSERT_TRUE(db->Put(workload::FormatKey(1000, 16), "extra").ok());

  auto got = Drain(iter.get());
  ASSERT_EQ(got.size(), model.size());
  auto mit = model.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, mit->first);
    EXPECT_EQ(v, mit->second);
    ++mit;
  }
}

TEST(ReadPath, AcquireReadViewPinsSequence) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallDb(env.get()), &db).ok());
  ASSERT_TRUE(db->Put("k", "v1").ok());
  auto view = db->AcquireReadView();
  const SequenceNumber pinned = view->sequence;
  ASSERT_TRUE(db->Put("k", "v2").ok());
  EXPECT_EQ(view->sequence, pinned);
  EXPECT_GE(view->version->RefCount(), 1);
  view.reset();  // Release must not disturb the DB.
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST(ReadPath, ScansAndGetsDuringBackgroundMaintenance) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(SmallDb(env.get(), ExecutionMode::kBackground), &db).ok());

  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "seed").ok());
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Heavy overwrite traffic: many flushes and compactions, so versions
    // are installed and files deleted while readers hold pins.
    for (int i = 0; i < 6000; i++) {
      ASSERT_TRUE(
          db->Put(workload::FormatKey(i % kKeys, 16), std::to_string(i))
              .ok());
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      Random rnd(100 + r);
      while (!done) {
        // Full scans through a pinned iterator: keys must be strictly
        // increasing and exactly the seeded key space (every key was
        // written before the writer started, none is ever deleted).
        auto iter = db->NewIterator();
        std::string prev;
        size_t n = 0;
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
          ASSERT_TRUE(prev.empty() || prev < iter->key().ToString());
          prev = iter->key().ToString();
          ASSERT_FALSE(iter->value().empty());
          n++;
        }
        ASSERT_TRUE(iter->status().ok());
        ASSERT_EQ(n, static_cast<size_t>(kKeys));
        std::string value;
        Status s = db->Get(workload::FormatKey(rnd.Uniform(kKeys), 16),
                           &value);
        ASSERT_TRUE(s.ok());
        ASSERT_FALSE(value.empty());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(Slice(""), 1000000, &rows).ok());
  EXPECT_EQ(rows.size(), static_cast<size_t>(kKeys));
}

// Only foreground reads fill the block cache. Leveling flush merges (under
// the mutex inline, through the compaction pipeline in background mode) and
// CompactAll stream their inputs past it: after GETs warm the cache,
// maintenance may neither look up nor insert a block, so the counters hold
// and usage can only fall as deleted inputs' blocks are scrubbed.
TEST(ReadPath, MaintenanceStreamsPastBlockCache) {
  for (const ExecutionMode mode :
       {ExecutionMode::kInline, ExecutionMode::kBackground}) {
    SCOPED_TRACE(mode == ExecutionMode::kInline ? "inline" : "background");
    auto env = NewMemEnv();
    DbOptions opts = SmallDb(env.get(), mode);
    opts.policy = GrowthPolicyConfig::VTLevelFull(3);  // Flushes merge.
    opts.block_cache_bytes = 4 << 20;  // Room for every block: no evictions.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());

    std::map<std::string, std::string> model;
    auto put = [&](int i, const std::string& value) {
      const std::string key = workload::FormatKey(i, 16);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    };
    auto expect_scan_matches_model = [&] {
      std::vector<std::pair<std::string, std::string>> rows;
      ASSERT_TRUE(db->Scan(Slice(""), 1000000, &rows).ok());
      ASSERT_EQ(rows.size(), model.size());
      auto it = model.begin();
      for (const auto& [k, v] : rows) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
      }
    };

    for (int i = 0; i < 600; i++) put(i, "v1-" + std::to_string(i));
    ASSERT_TRUE(db->FlushMemTable().ok());
    expect_scan_matches_model();
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(db->Get(k, &value).ok());
      EXPECT_EQ(value, v);
    }

    LruCache* cache = db->block_cache();
    const uint64_t hits = cache->hits();
    const uint64_t misses = cache->misses();
    const size_t usage = cache->usage();
    ASSERT_GT(hits + misses, 0u);
    ASSERT_GT(usage, 0u);
    // stats() is unsynchronized, so only inline mode reads it here.
    const bool inline_mode = mode == ExecutionMode::kInline;
    const EngineStats before = inline_mode ? db->stats() : EngineStats();

    // Overwrites fill several memtables, each flushed by a merge into level
    // 0's run; CompactAll then merges the whole tree.
    for (int i = 0; i < 600; i += 2) put(i, "v2-" + std::to_string(i));
    ASSERT_TRUE(db->FlushMemTable().ok());
    ASSERT_TRUE(db->CompactAll().ok());
    if (inline_mode) {
      EXPECT_GT(db->stats().flushes, before.flushes + 1);
      EXPECT_GT(db->stats().compactions, before.compactions);
    }

    EXPECT_EQ(cache->hits(), hits);
    EXPECT_EQ(cache->misses(), misses);
    EXPECT_LE(cache->usage(), usage);
    expect_scan_matches_model();
  }
}

TEST(ReadPath, OrphanedSstsSweptAtOpen) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(SmallDb(env.get()), &db).ok());
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "x").ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  // Simulate a crash that left a deferred-GC file behind.
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        env->NewWritableFile(SstFileName("/db", 999999), &file).ok());
    SstBuilder builder(SstBuilderOptions{}, std::move(file));
    InternalKey ikey("zzz", 1, kTypeValue);
    builder.Add(ikey.Encode(), "orphan");
    ASSERT_TRUE(builder.Finish().ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallDb(env.get()), &db).ok());
  EXPECT_EQ(CountSstFiles(env.get(), "/db"),
            CountVersionFiles(db->current_version()));
  std::string value;
  EXPECT_TRUE(db->Get("zzz", &value).IsNotFound());
}

}  // namespace
}  // namespace talus
