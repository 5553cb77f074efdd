// Tests for the §5.2 cost model and navigator.
#include "tuning/cost_model.h"

#include <gtest/gtest.h>

#include "filter/bloom.h"
#include "obs/amp_tracker.h"
#include "theory/schemes.h"

namespace talus {
namespace tuning {
namespace {

HorizontalCostModel Model(uint64_t n = 64, double fpr = 0.1, double P = 4) {
  HorizontalCostModel m;
  m.capacity_buffers = n;
  m.bloom_fpr = fpr;
  m.page_entries = P;
  return m;
}

TEST(CostModel, LevelingPointLookupIsLinearInLevels) {
  const auto m = Model();
  // R_l = ℓ·f.
  EXPECT_DOUBLE_EQ(m.PointLookupCost(MergePolicy::kLeveling, 2), 0.2);
  EXPECT_DOUBLE_EQ(m.PointLookupCost(MergePolicy::kLeveling, 5), 0.5);
}

TEST(CostModel, TieringUpdateIsLinearInLevels) {
  const auto m = Model();
  // W_t = ℓ/P.
  EXPECT_DOUBLE_EQ(m.UpdateCost(MergePolicy::kTiering, 2), 0.5);
  EXPECT_DOUBLE_EQ(m.UpdateCost(MergePolicy::kTiering, 4), 1.0);
}

TEST(CostModel, RangeLookupIsPointOverFpr) {
  const auto m = Model();
  for (int l = 2; l <= 5; l++) {
    EXPECT_NEAR(m.RangeLookupCost(MergePolicy::kLeveling, l),
                m.PointLookupCost(MergePolicy::kLeveling, l) / 0.1,
                1e-12);
    EXPECT_NEAR(m.RangeLookupCost(MergePolicy::kTiering, l),
                m.PointLookupCost(MergePolicy::kTiering, l) / 0.1,
                1e-12);
  }
}

TEST(CostModel, TieringLookupMatchesLemma51) {
  const auto m = Model(100);
  for (int l = 2; l <= 5; l++) {
    const double expected =
        static_cast<double>(theory::TieringReadCostClosedForm(100, l)) * 0.1 /
        100.0;
    EXPECT_DOUBLE_EQ(m.PointLookupCost(MergePolicy::kTiering, l),
                     expected);
  }
}

TEST(CostModel, LevelingUpdateMatchesLemma52) {
  const auto m = Model(100);
  for (int l = 2; l <= 5; l++) {
    const double expected =
        static_cast<double>(theory::LevelingWriteCostClosedForm(100, l)) /
        (100.0 * 4.0);
    EXPECT_DOUBLE_EQ(m.UpdateCost(MergePolicy::kLeveling, l), expected);
  }
}

TEST(CostModel, LevelKnobDirectionsMatchSection51) {
  // §5.1: "under the leveling policy, a smaller number of levels leads to
  // better read performance; under the tiering policy, fewer levels result
  // in better write performance."
  const auto m = Model(512);
  // Leveling: reads prefer few levels, writes prefer many.
  EXPECT_LT(m.PointLookupCost(MergePolicy::kLeveling, 2),
            m.PointLookupCost(MergePolicy::kLeveling, 5));
  EXPECT_GT(m.UpdateCost(MergePolicy::kLeveling, 2),
            m.UpdateCost(MergePolicy::kLeveling, 5));
  // Tiering: writes prefer few levels, reads prefer many (runs consolidate
  // sooner, so fewer runs are alive on average).
  EXPECT_LT(m.UpdateCost(MergePolicy::kTiering, 2),
            m.UpdateCost(MergePolicy::kTiering, 5));
  EXPECT_GT(m.PointLookupCost(MergePolicy::kTiering, 2),
            m.PointLookupCost(MergePolicy::kTiering, 5));
}

class NavigatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(NavigatorPropertyTest, SaddleSearchMatchesExhaustive) {
  const auto [n_idx, fpr_idx, mix_idx] = GetParam();
  const uint64_t ns[] = {8, 16, 64, 256, 1024};
  const double fprs[] = {0.3, 0.1, 0.02, 0.005};
  const double ws[] = {0.02, 0.2, 0.5, 0.8, 0.98};

  const auto m = Model(ns[n_idx], fprs[fpr_idx]);
  WorkloadMix mix;
  mix.updates = ws[mix_idx];
  mix.point_lookups = 1.0 - ws[mix_idx];
  const auto fast = Navigate(m, mix);
  const auto slow = NavigateExhaustive(m, mix);
  // Equal cost (the argmin may tie).
  EXPECT_NEAR(fast.cost, slow.cost, 1e-12)
      << "n=" << ns[n_idx] << " fpr=" << fprs[fpr_idx] << " w=" << ws[mix_idx]
      << " fast=" << fast.ToString() << " slow=" << slow.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NavigatorPropertyTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4),
                       ::testing::Range(0, 5)));

TEST(Navigator, ExtremesPickExpectedPolicies) {
  const auto m = Model(256, BloomFalsePositiveRate(5.0));
  WorkloadMix write_only;
  write_only.updates = 1.0;
  write_only.point_lookups = 0.0;
  const auto w = Navigate(m, write_only);
  EXPECT_EQ(w.merge, MergePolicy::kTiering);
  EXPECT_EQ(w.levels, 2);  // W_t = ℓ/P is minimized at the smallest ℓ.

  WorkloadMix read_only;
  read_only.updates = 0.0;
  read_only.point_lookups = 1.0;
  const auto r = Navigate(m, read_only);
  // Pure point lookups with Bloom filters: the cheapest design under the
  // cost model; must agree with the exhaustive oracle.
  EXPECT_NEAR(r.cost, NavigateExhaustive(m, read_only).cost, 1e-12);
}

TEST(Navigator, RespectsLevelCap) {
  const auto m = Model(4);  // Tiny capacity: ℓ cannot exceed n.
  WorkloadMix mix;
  const auto r = Navigate(m, mix, 64);
  EXPECT_LE(r.levels, 4);
}

// The measured mix is the tracker's operation counts: updates are puts
// and deletes, point lookups are Gets, range lookups are scans.
TEST(MeasuredMix, EstimatesObservedMix) {
  obs::AmpTracker tracker;
  tracker.RecordWrite(600, 100, 0);
  for (int i = 0; i < 200; i++) tracker.RecordLookup(obs::LookupProbe());
  for (int i = 0; i < 100; i++) tracker.RecordScan();
  const obs::AmpSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.Operations(), 1000u);
  const WorkloadMix mix = snap.Mix();
  EXPECT_NEAR(mix.updates, 0.7, 1e-9);
  EXPECT_NEAR(mix.point_lookups, 0.2, 1e-9);
  EXPECT_NEAR(mix.range_lookups, 0.1, 1e-9);
}

TEST(WorkloadMixNormalize, DegenerateFallsBackToBalanced) {
  WorkloadMix mix;
  mix.updates = 0;
  mix.point_lookups = 0;
  mix.range_lookups = 0;
  mix.Normalize();
  EXPECT_DOUBLE_EQ(mix.updates, 0.5);
  EXPECT_DOUBLE_EQ(mix.point_lookups, 0.5);
}

}  // namespace
}  // namespace tuning
}  // namespace talus
