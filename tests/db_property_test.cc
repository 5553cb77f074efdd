// Differential property tests: every growth policy must expose identical
// user-visible semantics under randomized op streams, across a sweep of
// engine geometries (buffer size, value size, block size). The oracle is a
// std::map replay; policies are additionally cross-checked against each
// other by comparing full-scan digests.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "env/env.h"
#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

struct Geometry {
  const char* name;
  uint64_t buffer;
  size_t block;
  size_t value_size;
  int key_space;
};

class GeometrySweepTest : public ::testing::TestWithParam<Geometry> {};

std::vector<GrowthPolicyConfig> SweepPolicies() {
  return {
      GrowthPolicyConfig::VTLevelPart(2),   // Aggressive ratio: deep trees.
      GrowthPolicyConfig::VTTierFull(2),
      GrowthPolicyConfig::HRLevel(2),       // Minimal level count.
      GrowthPolicyConfig::HRTier(4, 1 << 20),
      GrowthPolicyConfig::Vertiorizon(3),
      GrowthPolicyConfig::LazyLeveling(2, 3, true),
      GrowthPolicyConfig::Universal(),
  };
}

TEST_P(GeometrySweepTest, AllPoliciesAgreeWithOracle) {
  const Geometry g = GetParam();

  // One deterministic op stream shared by every policy.
  struct OpRec {
    bool is_delete;
    std::string key;
    std::string value;
  };
  std::vector<OpRec> ops;
  std::map<std::string, std::string> oracle;
  {
    Random rnd(777);
    for (int i = 0; i < 2500; i++) {
      OpRec op;
      op.is_delete = rnd.OneIn(5);
      op.key = workload::FormatKey(rnd.Uniform(g.key_space), 16);
      if (!op.is_delete) {
        op.value = workload::MakeValue(i, i, g.value_size);
        oracle[op.key] = op.value;
      } else {
        oracle.erase(op.key);
      }
      ops.push_back(std::move(op));
    }
  }

  std::string reference_digest;
  for (const auto& policy : SweepPolicies()) {
    auto env = NewMemEnv();
    DbOptions opts;
    opts.env = env.get();
    opts.path = "/sweep";
    opts.write_buffer_size = g.buffer;
    opts.target_file_size = g.buffer;
    opts.block_size = g.block;
    opts.policy = policy;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok()) << g.name;

    for (const auto& op : ops) {
      if (op.is_delete) {
        ASSERT_TRUE(db->Delete(op.key).ok());
      } else {
        ASSERT_TRUE(db->Put(op.key, op.value).ok());
      }
    }

    // Full scan digest must be identical across all policies.
    std::string digest;
    auto iter = db->NewIterator();
    auto oit = oracle.begin();
    size_t n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++oit, ++n) {
      ASSERT_NE(oit, oracle.end())
          << g.name << " policy " << db->policy()->name();
      EXPECT_EQ(iter->key().ToString(), oit->first);
      EXPECT_EQ(iter->value().ToString(), oit->second);
      digest += iter->key().ToString();
      digest.push_back('|');
    }
    EXPECT_EQ(oit, oracle.end());
    if (reference_digest.empty()) {
      reference_digest = digest;
    } else {
      EXPECT_EQ(digest, reference_digest)
          << g.name << " policy " << db->policy()->name();
    }

    // Random point probes.
    Random rnd(g.key_space);
    for (int i = 0; i < 200; i++) {
      const std::string key =
          workload::FormatKey(rnd.Uniform(g.key_space), 16);
      std::string value;
      Status s = db->Get(key, &value);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key;
        EXPECT_EQ(value, it->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweepTest,
    ::testing::Values(
        Geometry{"tiny_buffer", 1 << 10, 512, 64, 120},
        Geometry{"small_values", 4 << 10, 1024, 16, 400},
        Geometry{"large_values", 8 << 10, 4096, 900, 150},
        Geometry{"single_entry_files", 512, 256, 300, 60},
        Geometry{"wide_keyspace", 4 << 10, 1024, 120, 2000}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return info.param.name;
    });

// Lemma 5.1 in the flesh: the live HR-Tier engine's lookups-per-run count
// should track the model's run-count predictions, on average.
TEST(EngineMatchesModel, HorizontalTieringRunCounts) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/model";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.bloom_bits_per_key = 0;  // No filters: probes == runs covering key.
  opts.policy = GrowthPolicyConfig::HRTier(3, 2 << 20);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  Random rnd(5);
  for (int i = 0; i < 6000; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(rnd.Uniform(100000), 16),
                        std::string(240, 'v'))
                    .ok());
  }
  // Probe random present-or-absent keys; each lookup probes at most one file
  // per run whose range covers the key, i.e. ≈ #runs for dense key spaces.
  const obs::AmpSnapshot before = db->GetAmpSnapshot();
  for (int i = 0; i < 2000; i++) {
    std::string value;
    db->Get(workload::FormatKey(rnd.Uniform(100000), 16), &value);
  }
  obs::AmpSnapshot delta = db->GetAmpSnapshot();
  delta.Subtract(before);
  const double observed = delta.ReadAmp();
  const double structural = static_cast<double>(db->current_version().TotalRuns());
  // Observed probes per lookup can be below the run count (sparse coverage)
  // but never above it.
  EXPECT_LE(observed, structural + 1e-9);
  EXPECT_GT(observed, structural * 0.3);
}

// The §5.4 dynamic filter layout must never produce false negatives and
// should spend fewer bits on near-empty horizontal levels than static.
TEST(DynamicFilterLayout, EndToEndCorrectness) {
  for (FilterLayout layout :
       {FilterLayout::kStatic, FilterLayout::kMonkey, FilterLayout::kDynamic}) {
    auto env = NewMemEnv();
    DbOptions opts;
    opts.env = env.get();
    opts.path = "/fl";
    opts.write_buffer_size = 4 << 10;
    opts.target_file_size = 4 << 10;
    opts.block_size = 1024;
    opts.filter_layout = layout;
    opts.policy = GrowthPolicyConfig::Vertiorizon(3);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());

    std::map<std::string, std::string> model;
    Random rnd(71);
    for (int i = 0; i < 3000; i++) {
      std::string key = workload::FormatKey(rnd.Uniform(700), 16);
      std::string value = "flv" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(db->Get(k, &value).ok())
          << "layout " << static_cast<int>(layout) << " key " << k;
      EXPECT_EQ(value, v);
    }
  }
}

}  // namespace
}  // namespace talus
