#include "obs/throughput.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/db.h"
#include "util/histogram.h"
#include "workload/generator.h"

namespace talus {
namespace {

TEST(ThroughputMeter, AverageOverWholeRun) {
  obs::ThroughputMeter meter(10);
  for (int i = 0; i <= 100; i++) {
    meter.RecordOp(i * 2.0);  // One op every 2 clock units.
  }
  EXPECT_NEAR(meter.AverageThroughput(), 0.5, 1e-9);
}

TEST(ThroughputMeter, WorstCaseCatchesStall) {
  obs::ThroughputMeter meter(10);
  double clock = 0;
  for (int i = 0; i < 50; i++) {
    clock += 1.0;
    meter.RecordOp(clock);
  }
  clock += 500.0;  // A long compaction stall.
  meter.RecordOp(clock);
  for (int i = 0; i < 50; i++) {
    clock += 1.0;
    meter.RecordOp(clock);
  }
  // Average barely notices; worst-case window does.
  EXPECT_GT(meter.AverageThroughput(), 0.15);
  EXPECT_LT(meter.WorstCaseThroughput(), 0.02);
  EXPECT_GT(meter.WorstCaseThroughput(), 0.0);
}

TEST(ThroughputMeter, UniformLoadWorstEqualsAverage) {
  obs::ThroughputMeter meter(100);
  for (int i = 0; i <= 10000; i++) {
    meter.RecordOp(static_cast<double>(i));
  }
  EXPECT_NEAR(meter.WorstCaseThroughput(), meter.AverageThroughput(), 1e-6);
}

TEST(ThroughputMeter, FewOpsDegenerate) {
  obs::ThroughputMeter meter(1000);
  EXPECT_EQ(meter.AverageThroughput(), 0.0);
  EXPECT_EQ(meter.WorstCaseThroughput(), 0.0);
  meter.RecordOp(1.0);
  EXPECT_EQ(meter.WorstCaseThroughput(), 0.0);
  meter.RecordOp(2.0);
  EXPECT_GT(meter.AverageThroughput(), 0.0);
}

TEST(Histogram, BasicStatistics) {
  Histogram h;
  for (int i = 1; i <= 100; i++) {
    h.Add(i);
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Average(), 50.5, 1e-9);
  EXPECT_NEAR(h.Median(), 50, 10);
  EXPECT_GT(h.Percentile(99), h.Percentile(50));
  EXPECT_GT(h.StandardDeviation(), 0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 50; i++) a.Add(10);
  for (int i = 0; i < 50; i++) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 100u);
  EXPECT_DOUBLE_EQ(a.Min(), 10.0);
  EXPECT_DOUBLE_EQ(a.Max(), 1000.0);
  EXPECT_NEAR(a.Average(), 505.0, 1e-9);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.Add(42);
  h.Clear();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
}

TEST(Histogram, EmptyIsZeroEverywhere) {
  Histogram h;
  // No sentinel leakage: an untouched histogram reports 0, not the
  // internal min/max initializers.
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.9), 0.0);
  EXPECT_DOUBLE_EQ(h.Median(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Average(), 0.0);
}

TEST(Histogram, MergeWithEmptySides) {
  Histogram a, empty;
  a.Add(5);
  a.Add(500);
  // Empty into populated: a no-op; min/max survive.
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Min(), 5.0);
  EXPECT_DOUBLE_EQ(a.Max(), 500.0);
  // Populated into empty: adopts the source's min/max exactly.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_DOUBLE_EQ(b.Min(), 5.0);
  EXPECT_DOUBLE_EQ(b.Max(), 500.0);
  // Empty into empty stays empty.
  Histogram c;
  c.Merge(empty);
  EXPECT_EQ(c.Count(), 0u);
  EXPECT_DOUBLE_EQ(c.Min(), 0.0);
}

TEST(Histogram, BucketLayoutIsTheSharedSourceOfTruth) {
  // BucketFor and BucketUpperBound agree: a value lands in the first
  // bucket whose (exclusive) upper limit exceeds it.
  for (double v : {0.0, 1.0, 2.0, 99.0, 1e6, 1e17}) {
    const int b = Histogram::BucketFor(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_LT(v, Histogram::BucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GE(v, Histogram::BucketUpperBound(b - 1)) << v;
    }
  }
  // The last bucket is a catch-all for anything beyond the layout.
  EXPECT_EQ(Histogram::BucketFor(1e200), Histogram::kNumBuckets - 1);
}

TEST(Histogram, MergeRawMatchesEquivalentAdds) {
  // MergeRaw (the obs::LatencyRecorder snapshot path) must agree with the
  // same observations recorded through Add().
  uint64_t counts[Histogram::kNumBuckets] = {};
  Histogram direct;
  double sum = 0, mn = 1e30, mx = 0;
  uint64_t num = 0;
  for (int v : {3, 17, 17, 250, 9000}) {
    counts[Histogram::BucketFor(v)]++;
    direct.Add(v);
    sum += v;
    mn = std::min<double>(mn, v);
    mx = std::max<double>(mx, v);
    num++;
  }
  Histogram raw;
  raw.MergeRaw(counts, num, sum, mn, mx);
  EXPECT_EQ(raw.Count(), direct.Count());
  EXPECT_DOUBLE_EQ(raw.Min(), direct.Min());
  EXPECT_DOUBLE_EQ(raw.Max(), direct.Max());
  EXPECT_DOUBLE_EQ(raw.Sum(), direct.Sum());
  EXPECT_DOUBLE_EQ(raw.Median(), direct.Median());
  EXPECT_DOUBLE_EQ(raw.Percentile(99), direct.Percentile(99));

  // num == 0 is ignored outright — even with garbage summary stats.
  Histogram untouched;
  untouched.MergeRaw(counts, 0, 123.0, -5.0, 1e9);
  EXPECT_EQ(untouched.Count(), 0u);
  EXPECT_DOUBLE_EQ(untouched.Min(), 0.0);
  EXPECT_DOUBLE_EQ(untouched.Max(), 0.0);
}

// ---------------------------------------------- Cache counters in GetProperty

// Extracts the integer following "<token>=" in a talus.stats dump.
uint64_t StatField(const std::string& stats, const std::string& token) {
  const std::string needle = " " + token + "=";
  size_t pos = stats.find(needle);
  EXPECT_NE(pos, std::string::npos) << token << " missing in: " << stats;
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(CacheCounters, SurfacedInTalusStats) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.block_cache_bytes = 64 << 10;
  opts.table_cache_open_files = 64;
  opts.policy = GrowthPolicyConfig::VTTierFull(3);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  // Two passes over the on-disk keys: the second one hits both caches.
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < 600; i += 7) {
      std::string value;
      ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
    }
  }

  std::string stats;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
  EXPECT_GT(StatField(stats, "bc_misses"), 0u);
  EXPECT_GT(StatField(stats, "bc_hits"), 0u);
  EXPECT_GT(StatField(stats, "bc_usage"), 0u);
  EXPECT_EQ(StatField(stats, "bc_cap"), opts.block_cache_bytes);
  EXPECT_GT(StatField(stats, "tc_opens"), 0u);
  EXPECT_GT(StatField(stats, "tc_hits"), 0u);
  EXPECT_GT(StatField(stats, "tc_open_readers"), 0u);
  EXPECT_EQ(StatField(stats, "tc_cap"), opts.table_cache_open_files);
  // Counter coherence: every open came from a miss.
  EXPECT_LE(StatField(stats, "tc_opens"), StatField(stats, "tc_misses"));

  // The structured table-cache stats agree with the property surface.
  const auto tc = db->table_cache()->GetStats();
  EXPECT_EQ(tc.hits, StatField(stats, "tc_hits"));
  EXPECT_EQ(tc.misses, StatField(stats, "tc_misses"));
  EXPECT_LE(tc.open_readers, tc.capacity);
}

TEST(CacheCounters, FlushReadBytesSeparatedFromCompactionReads) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  // Leveling: every flush after the first merges with L0's run, so flush
  // merges read existing SSTs.
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i % 200, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::string stats;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
  // Flush-merge reads are charged to the flush counter, not compaction's.
  EXPECT_GT(StatField(stats, "flush_read"), 0u);
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  EXPECT_EQ(amp.Total(&obs::AmpSnapshot::Level::flush_bytes_read),
            StatField(stats, "flush_read"));
  EXPECT_EQ(amp.Total(&obs::AmpSnapshot::Level::compaction_bytes_read),
            StatField(stats, "comp_read"));
}

TEST(CacheCounters, BlockCacheEvictionsCounted) {
  LruCache cache(64);  // Tiny: every second insert evicts.
  cache.Insert("a", std::make_shared<int>(1), 48);
  cache.Insert("b", std::make_shared<int>(2), 48);
  cache.Insert("c", std::make_shared<int>(3), 48);
  EXPECT_GE(cache.evictions(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.Lookup("c");
  cache.Lookup("nope");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace talus
