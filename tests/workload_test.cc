#include "workload/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "obs/amp_tracker.h"
#include "tuning/workload_mix.h"

namespace talus {
namespace workload {
namespace {

TEST(FormatKey, FixedWidthAndOrdered) {
  const std::string a = FormatKey(1, 24);
  const std::string b = FormatKey(2, 24);
  const std::string c = FormatKey(1000000, 24);
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(c.size(), 24u);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(MakeValue, DeterministicAndSized) {
  EXPECT_EQ(MakeValue(7, 3, 100), MakeValue(7, 3, 100));
  EXPECT_NE(MakeValue(7, 3, 100), MakeValue(7, 4, 100));
  EXPECT_NE(MakeValue(7, 3, 100), MakeValue(8, 3, 100));
  EXPECT_EQ(MakeValue(123, 9, 896).size(), 896u);
  EXPECT_EQ(MakeValue(123, 9, 8).size(), 8u);
}

TEST(UniformPicker, CoversKeySpace) {
  KeySpaceSpec spec;
  spec.num_keys = 100;
  auto picker = NewKeyPicker(spec);
  Random rnd(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; i++) {
    uint64_t k = picker->Next(&rnd);
    ASSERT_LT(k, 100u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ZipfianPicker, SkewedTowardsFewKeys) {
  KeySpaceSpec spec;
  spec.num_keys = 10000;
  spec.distribution = Distribution::kZipfian;
  auto picker = NewKeyPicker(spec);
  Random rnd(2);
  std::map<uint64_t, int> counts;
  const int samples = 100000;
  for (int i = 0; i < samples; i++) {
    counts[picker->Next(&rnd)]++;
  }
  // Top-20 keys should hold a large share of the mass (YCSB zipfian 0.99
  // puts ~18% of accesses on the hottest 20 of 10k items).
  std::vector<int> freq;
  for (const auto& [k, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  int top20 = 0;
  for (int i = 0; i < 20 && i < static_cast<int>(freq.size()); i++) {
    top20 += freq[i];
  }
  EXPECT_GT(top20, samples / 10);
  // But the tail is still touched.
  EXPECT_GT(counts.size(), 2000u);
}

TEST(ZipfianPicker, ScramblingSpreadsHotKeys) {
  KeySpaceSpec spec;
  spec.num_keys = 10000;
  spec.distribution = Distribution::kZipfian;
  auto picker = NewKeyPicker(spec);
  Random rnd(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; i++) counts[picker->Next(&rnd)]++;
  // Find the two hottest keys; scrambled zipfian should NOT place them
  // adjacently at the start of the key space.
  uint64_t hottest = 0;
  int best = 0;
  for (const auto& [k, c] : counts) {
    if (c > best) {
      best = c;
      hottest = k;
    }
  }
  EXPECT_GT(hottest, 100u);  // FNV scrambling moved it off the low indices.
}

TEST(HotColdPicker, HotSetDominates) {
  KeySpaceSpec spec;
  spec.num_keys = 100000;
  spec.distribution = Distribution::kHotCold;
  spec.hot_keys = 50;
  spec.hot_probability = 0.9;
  auto picker = NewKeyPicker(spec);
  Random rnd(4);
  std::map<uint64_t, int> counts;
  const int samples = 50000;
  for (int i = 0; i < samples; i++) counts[picker->Next(&rnd)]++;
  // The 50 hottest observed keys should absorb ~90% of accesses.
  std::vector<int> freq;
  for (const auto& [k, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  int hot_mass = 0;
  for (int i = 0; i < 50 && i < static_cast<int>(freq.size()); i++) {
    hot_mass += freq[i];
  }
  EXPECT_GT(hot_mass, samples * 8 / 10);
}

TEST(OpStream, MixProportionsRespected) {
  KeySpaceSpec spec;
  spec.num_keys = 1000;
  OpMix mix{0.6, 0.3, 0.1};
  OpStream stream(spec, mix, 99);
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; i++) {
    counts[static_cast<int>(stream.Next().type)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.6, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(OpStream, DeterministicForSeed) {
  KeySpaceSpec spec;
  spec.num_keys = 1000;
  OpStream a(spec, BalancedMix(), 7);
  OpStream b(spec, BalancedMix(), 7);
  for (int i = 0; i < 1000; i++) {
    const Op oa = a.Next();
    const Op ob = b.Next();
    EXPECT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type));
    EXPECT_EQ(oa.key_index, ob.key_index);
  }
}

TEST(PresetMixes, MatchPaperRatios) {
  EXPECT_DOUBLE_EQ(ReadHeavyMix().updates, 0.1);
  EXPECT_DOUBLE_EQ(ReadHeavyMix().point_lookups, 0.9);
  EXPECT_DOUBLE_EQ(WriteHeavyMix().updates, 0.9);
  EXPECT_DOUBLE_EQ(BalancedMix().updates, 0.5);
  EXPECT_DOUBLE_EQ(RangeScanMix().updates, 0.75);
  EXPECT_DOUBLE_EQ(RangeScanMix().range_lookups, 0.25);
}

// The drift monitor's input: the engine's operation counts, read from the
// tracker's window (AdvanceWindow() snapshots the lifetime counters as the
// window base: epoch swap, no reset), so the windowed mix sees only recent
// traffic while the lifetime mix keeps accumulating. An empty window falls
// back to the lifetime mix; scans are the q share.
TEST(MeasuredMix, WindowedMixSeesOnlyRecentTraffic) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/mix";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  std::string value;
  for (int i = 0; i < 900; i++) {
    ASSERT_TRUE(db->Put(FormatKey(i, 16), "v").ok());
  }
  for (int i = 0; i < 100; i++) db->Get(FormatKey(i, 16), &value);
  EXPECT_EQ(db->GetAmpSnapshot().Operations(), 1000u);
  EXPECT_DOUBLE_EQ(db->GetAmpSnapshot().Mix().updates, 0.9);
  // The first window is the whole lifetime.
  obs::DriftSample sample = db->EvaluateModelDrift();
  EXPECT_EQ(sample.window_updates + sample.window_lookups, 1000u);
  EXPECT_DOUBLE_EQ(sample.mix.updates, 0.9);

  // An empty window falls back to the lifetime mix rather than reporting
  // a meaningless all-zero one.
  sample = db->EvaluateModelDrift();
  EXPECT_EQ(sample.window_updates + sample.window_lookups, 0u);
  EXPECT_DOUBLE_EQ(sample.mix.updates, 0.9);

  // A read-heavy window after a write-heavy lifetime: the windowed view
  // flips immediately, the lifetime view barely moves.
  for (int i = 0; i < 200; i++) db->Get(FormatKey(i, 16), &value);
  sample = db->EvaluateModelDrift();
  EXPECT_EQ(sample.window_updates, 0u);
  EXPECT_EQ(sample.window_lookups, 200u);
  EXPECT_DOUBLE_EQ(sample.mix.point_lookups, 1.0);
  EXPECT_DOUBLE_EQ(sample.mix.updates, 0.0);
  EXPECT_DOUBLE_EQ(db->GetAmpSnapshot().Mix().updates, 0.75);  // 900/1200.

  // A window of one scan is all range lookups.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(FormatKey(0, 16), 10, &rows).ok());
  sample = db->EvaluateModelDrift();
  EXPECT_DOUBLE_EQ(sample.mix.range_lookups, 1.0);
  EXPECT_EQ(db->GetAmpSnapshot().scans, 1u);
}

}  // namespace
}  // namespace workload
}  // namespace talus
