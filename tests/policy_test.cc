// Structural tests for the growth policies: the tree shapes each policy
// produces in the live engine must match the scheme definitions — and for
// the horizontal schemes, the compaction *counts* must match the abstract
// counter simulators from theory/schemes.h.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "env/env.h"
#include "lsm/db.h"
#include "policy/composed_policy.h"
#include "theory/binomial.h"
#include "theory/schemes.h"
#include "workload/generator.h"

namespace talus {
namespace {

constexpr uint64_t kEntryPayload = 16 + 240;  // key + value bytes.

DbOptions Options(Env* env, const GrowthPolicyConfig& policy,
                  uint64_t buffer = 4 << 10) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/p";
  opts.write_buffer_size = buffer;
  opts.target_file_size = buffer;
  opts.block_size = 1024;
  opts.policy = policy;
  return opts;
}

// Writes n distinct keys of ~256B payload (so ~16 entries per 4KB flush).
void Fill(DB* db, int n, int seed = 3) {
  Random rnd(seed);
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(rnd.Uniform(1 << 30), 16),
                        std::string(240, 'v'))
                    .ok());
  }
}

TEST(VerticalLevelingStructure, OneRunPerLevelAndCapacitiesHold) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::VTLevelPart(3)), &db)
          .ok());
  Fill(db.get(), 4000);
  const Version& v = db->current_version();
  for (size_t i = 0; i < v.levels.size(); i++) {
    EXPECT_LE(v.levels[i].NumRuns(), 1u) << "level " << i;
  }
  // Every level except the last respects its capacity (with one-flush slack).
  const int last = v.BottommostNonEmptyLevel();
  for (int i = 0; i < last; i++) {
    const uint64_t cap = (4 << 10) * static_cast<uint64_t>(std::pow(3.0, i + 1));
    EXPECT_LE(v.levels[i].TotalBytes(), cap + (8 << 10)) << "level " << i;
  }
}

TEST(VerticalTieringStructure, RunCountsBounded) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::VTTierFull(3)), &db)
          .ok());
  Fill(db.get(), 4000);
  const Version& v = db->current_version();
  for (size_t i = 0; i + 1 < v.levels.size(); i++) {
    EXPECT_LE(v.levels[i].NumRuns(), 3u) << "level " << i;
  }
}

TEST(VerticalStructure, FilesRespectTargetSize) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::VTLevelPart(3)), &db)
          .ok());
  Fill(db.get(), 3000);
  for (const auto& level : db->current_version().levels) {
    for (const auto& run : level.runs) {
      for (const auto& f : run.files) {
        EXPECT_LE(f->file_size, (4u << 10) + (2u << 10));
      }
    }
  }
}

TEST(VerticalStructure, RunsAreKeyDisjointAndSorted) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::VTLevelPart(3)), &db)
          .ok());
  Fill(db.get(), 4000);
  for (const auto& level : db->current_version().levels) {
    for (const auto& run : level.runs) {
      for (size_t i = 1; i < run.files.size(); i++) {
        EXPECT_LT(run.files[i - 1]->largest.user_key().compare(
                      run.files[i]->smallest.user_key()),
                  0);
      }
    }
  }
}

TEST(HorizontalLevelingStructure, LevelCountFixedAndCompactionsMatchTheory) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::HRLevel(3)), &db).ok());
  Fill(db.get(), 5000);
  const Version& v = db->current_version();
  // Exactly ℓ levels in use, single (leveled) run each.
  int deepest = v.BottommostNonEmptyLevel();
  EXPECT_LT(deepest, 3);
  for (const auto& level : v.levels) {
    EXPECT_LE(level.NumRuns(), 1u);
  }
  // The engine's compaction count matches Algorithm 1's cascade count.
  const uint64_t flushes = db->stats().flushes;
  const auto sim = theory::SimulateHorizontalLeveling(flushes, 3);
  EXPECT_EQ(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), sim.events.size());
}

TEST(HorizontalTieringStructure, CompactionsMatchAlgorithm2) {
  auto env = NewMemEnv();
  const uint64_t data_size = 5000 * kEntryPayload;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::HRTier(3, data_size)),
               &db)
          .ok());
  Fill(db.get(), 5000);
  const Version& v = db->current_version();
  EXPECT_LT(v.BottommostNonEmptyLevel(), 3);

  const uint64_t flushes = db->stats().flushes;
  const uint64_t n = (data_size + (4 << 10) - 1) / (4 << 10);
  const uint64_t k = theory::FindK(std::max<uint64_t>(2, n), 3);
  const auto sim = theory::SimulateHorizontalTiering(flushes, 3, k);
  EXPECT_EQ(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), sim.events.size());
  // Run counts per level match the simulator's final state.
  for (int lvl = 0; lvl < 3; lvl++) {
    EXPECT_EQ(v.levels[lvl].NumRuns(), sim.final_runs_per_level[lvl])
        << "level " << lvl;
  }
}

TEST(UniversalStructure, SingleLevelRunCountBounded) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::Universal()), &db)
          .ok());
  Fill(db.get(), 5000);
  const Version& v = db->current_version();
  EXPECT_EQ(v.BottommostNonEmptyLevel(), 0);
  // After the op stream quiesces, the run count sits under the trigger.
  EXPECT_LE(v.levels[0].NumRuns(), 4u);
}

TEST(VertiorizonStructure, LayoutAndResizing) {
  auto env = NewMemEnv();
  auto config = GrowthPolicyConfig::VRNTier(3.0);
  config.vrn_initial_capacity_buffers = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(env.get(), config), &db).ok());
  Fill(db.get(), 12000);

  auto* policy = dynamic_cast<ComposedPolicy*>(db->policy());
  ASSERT_NE(policy, nullptr);
  const Version& v = db->current_version();

  // The two vertical levels are pinned; V1 and V2 hold single runs.
  EXPECT_LE(v.levels[policy->v1_level()].NumRuns(), 1u);
  EXPECT_LE(v.levels[policy->v2_level()].NumRuns(), 1u);
  const tuning::Design design = *policy->design();
  // Horizontal part stays within its configured level range.
  for (int i = design.horizontal->levels;
       i < ComposedPolicy::kMaxHorizontalLevels; i++) {
    EXPECT_TRUE(v.levels[i].empty()) << "unused horizontal level " << i;
  }
  // 12000 × 256B ≈ 3MB through a 16KB horizontal part: capacity must have
  // grown via the 1+1/T resizing rule.
  EXPECT_GT(design.horizontal->buffers, 4u);
  // V2 (the big level) holds most of the data.
  EXPECT_GT(v.levels[policy->v2_level()].TotalBytes(),
            v.TotalBytes() / 2);
}

TEST(VertiorizonStructure, SelfTuningPicksTieringForWrites) {
  auto env = NewMemEnv();
  WorkloadMix mix;
  mix.updates = 0.95;
  mix.point_lookups = 0.05;
  auto config = GrowthPolicyConfig::Vertiorizon(6.0, mix);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(env.get(), config), &db).ok());
  auto* policy = dynamic_cast<ComposedPolicy*>(db->policy());
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->design()->horizontal->merge, MergePolicy::kTiering);
}

TEST(LazyLevelingStructure, LastLevelLeveledUpperTiered) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(Options(env.get(), GrowthPolicyConfig::LazyLeveling(3, 4)),
               &db)
          .ok());
  Fill(db.get(), 8000);
  const Version& v = db->current_version();
  ASSERT_GE(v.levels.size(), 4u);
  EXPECT_LE(v.levels[3].NumRuns(), 1u);  // Largest level: leveled.
  for (int i = 0; i < 3; i++) {
    EXPECT_LE(v.levels[i].NumRuns(), 3u) << "tiering level " << i;
  }
}

TEST(LazyLevelingStructure, EmbeddedKeepsLastLevelLeveled) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(env.get(),
                               GrowthPolicyConfig::LazyLeveling(3, 4, true)),
                       &db)
                  .ok());
  Fill(db.get(), 8000);
  const Version& v = db->current_version();
  ASSERT_GE(v.levels.size(), 4u);
  EXPECT_LE(v.levels[3].NumRuns(), 1u);
}

TEST(PolicyState, SurvivesReopenForCounterSchemes) {
  auto env = NewMemEnv();
  const auto config = GrowthPolicyConfig::HRTier(3, 1 << 22);
  uint64_t flushes1, compactions1;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(env.get(), config), &db).ok());
    Fill(db.get(), 3000);
    flushes1 = db->stats().flushes;
    compactions1 = db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(env.get(), config), &db).ok());
  Fill(db.get(), 3000, /*seed=*/4);
  const uint64_t flushes2 = db->stats().flushes;
  const uint64_t compactions2 = db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions);

  // Counters restored from the manifest: the compaction total across both
  // sessions must equal one continuous Algorithm 2 run over all flushes.
  const uint64_t n = ((1 << 22) + (4 << 10) - 1) / (4 << 10);
  const uint64_t k = theory::FindK(n, 3);
  const auto sim =
      theory::SimulateHorizontalTiering(flushes1 + flushes2, 3, k);
  EXPECT_EQ(compactions1 + compactions2, sim.events.size());
}

// The policy name does not carry ℓ, so the persisted counters must: a store
// reopened with another ℓ fails to open instead of running the old counters
// under the new level count.
TEST(PolicyState, ReopenWithAnotherLevelCountFails) {
  GrowthPolicyConfig vrn_level3 = GrowthPolicyConfig::VRNLevel(6);
  vrn_level3.vrn_fixed_levels = 3;
  const std::pair<GrowthPolicyConfig, GrowthPolicyConfig> cases[] = {
      {GrowthPolicyConfig::HRLevel(3), GrowthPolicyConfig::HRLevel(2)},
      {GrowthPolicyConfig::LazyLeveling(6, 4, true),
       GrowthPolicyConfig::LazyLeveling(6, 3, true)},
      {GrowthPolicyConfig::VRNLevel(6), vrn_level3},
  };
  for (const auto& [written, other] : cases) {
    auto env = NewMemEnv();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(Options(env.get(), written), &db).ok());
      Fill(db.get(), 600);
    }
    std::unique_ptr<DB> db;
    EXPECT_FALSE(DB::Open(Options(env.get(), other), &db).ok())
        << other.Label();
    db.reset();
    EXPECT_TRUE(DB::Open(Options(env.get(), written), &db).ok())
        << written.Label();
  }
}

}  // namespace
}  // namespace talus
