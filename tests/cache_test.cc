#include "cache/lru_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "read/table_cache.h"
#include "table/sst_builder.h"
#include "table/sst_reader.h"

namespace talus {
namespace {

std::shared_ptr<void> Value(int v) {
  return std::make_shared<int>(v);
}

int Get(const std::shared_ptr<void>& p) {
  return *std::static_pointer_cast<int>(p);
}

TEST(LruCache, InsertLookup) {
  LruCache cache(1024);
  cache.Insert("a", Value(1), 100);
  cache.Insert("b", Value(2), 100);
  auto a = cache.Lookup("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(Get(a), 1);
  EXPECT_EQ(cache.Lookup("missing"), nullptr);
  EXPECT_EQ(cache.usage(), 200u);
}

TEST(LruCache, ReplaceUpdatesCharge) {
  LruCache cache(1024);
  cache.Insert("a", Value(1), 100);
  cache.Insert("a", Value(2), 300);
  EXPECT_EQ(cache.usage(), 300u);
  EXPECT_EQ(Get(cache.Lookup("a")), 2);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(300);
  cache.Insert("a", Value(1), 100);
  cache.Insert("b", Value(2), 100);
  cache.Insert("c", Value(3), 100);
  // Touch "a" so "b" is the LRU victim.
  cache.Lookup("a");
  cache.Insert("d", Value(4), 100);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  EXPECT_LE(cache.usage(), 300u);
}

TEST(LruCache, OversizedEntryEvictsEverything) {
  LruCache cache(250);
  cache.Insert("a", Value(1), 100);
  cache.Insert("big", Value(2), 400);
  // The oversized entry cannot fit: the cache evicts down to it, and since
  // it alone exceeds capacity, the cache drains fully (usage may exceed
  // capacity only while the entry is the sole resident).
  EXPECT_EQ(cache.Lookup("a"), nullptr);
}

TEST(LruCache, EraseAndPrefix) {
  LruCache cache(10000);
  cache.Insert("file1/block1", Value(1), 10);
  cache.Insert("file1/block2", Value(2), 10);
  cache.Insert("file2/block1", Value(3), 10);
  cache.Erase("file1/block1");
  EXPECT_EQ(cache.Lookup("file1/block1"), nullptr);
  cache.EraseByPrefix("file1/");
  EXPECT_EQ(cache.Lookup("file1/block2"), nullptr);
  EXPECT_NE(cache.Lookup("file2/block1"), nullptr);
  EXPECT_EQ(cache.usage(), 10u);
}

TEST(LruCache, DisabledCacheIsNoop) {
  LruCache cache(0);
  cache.Insert("a", Value(1), 10);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCache, HitMissCounters) {
  LruCache cache(1000);
  cache.Insert("a", Value(1), 10);
  cache.Lookup("a");
  cache.Lookup("a");
  cache.Lookup("b");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, ValueOutlivesEviction) {
  LruCache cache(100);
  cache.Insert("a", Value(42), 100);
  auto held = cache.Lookup("a");
  cache.Insert("b", Value(2), 100);  // Evicts "a".
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(Get(held), 42);  // Shared ownership keeps the value alive.
}

// Block-cache keys are the varint file number, then the varint block
// offset, and TableCache::Evict erases by the file-number part. Varints are
// prefix-free, so evicting one file leaves every other file's blocks,
// including numbers on either side of a varint length step (127/128 and
// 16383/16384).
TEST(BlockCacheKeys, EvictingOneFileLeavesEveryOtherFilesBlocks) {
  const std::vector<uint64_t> files = {1, 127, 128, 129, 16383, 16384};
  constexpr int kKeys = 2;  // One data block each.
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/bc").ok());
  for (uint64_t f : files) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(SstFileName("/bc", f), &file).ok());
    SstBuilderOptions opts;
    opts.block_size = 64;
    SstBuilder builder(opts, std::move(file));
    for (int k = 0; k < kKeys; k++) {
      builder.Add(InternalKey("key" + std::to_string(k), 1, kTypeValue)
                      .Encode(),
                  std::string(100, 'v'));
    }
    ASSERT_TRUE(builder.Finish().ok());
  }

  for (uint64_t evicted : files) {
    SCOPED_TRACE(evicted);
    LruCache block_cache(1 << 20);
    read::TableCache tables(env.get(), "/bc", &block_cache, 64);
    // Looks up every key of file `f`; returns how many blocks were hits.
    auto block_hits = [&](uint64_t f) {
      auto reader = tables.GetReader(f);
      EXPECT_NE(reader, nullptr);
      int hits = 0;
      for (int k = 0; reader != nullptr && k < kKeys; k++) {
        std::string value;
        Status s;
        SstReader::GetStats stats;
        EXPECT_TRUE(reader->Get(LookupKey("key" + std::to_string(k),
                                          kMaxSequenceNumber),
                                &value, &s, &stats));
        hits += stats.cache_hit ? 1 : 0;
      }
      return hits;
    };
    for (uint64_t f : files) EXPECT_EQ(block_hits(f), 0) << f;
    tables.Evict(evicted);
    for (uint64_t f : files) {
      EXPECT_EQ(block_hits(f), f == evicted ? 0 : kKeys) << f;
    }
  }
}

}  // namespace
}  // namespace talus
