#include "tuning/vertical_cost_model.h"

#include <gtest/gtest.h>

#include "filter/bloom.h"

namespace talus {
namespace tuning {
namespace {

VerticalCostModel Model(double T, uint64_t n = 1024) {
  VerticalCostModel m;
  m.size_ratio = T;
  m.bloom_fpr = 0.1;
  m.page_entries = 4.0;
  m.data_buffers = n;
  return m;
}

TEST(VerticalCostModel, LevelCountLogarithmic) {
  EXPECT_EQ(Model(2, 1024).Levels(), 10);
  EXPECT_EQ(Model(4, 1024).Levels(), 5);
  EXPECT_EQ(Model(32, 1024).Levels(), 2);
  EXPECT_GE(Model(10, 2).Levels(), 1);
}

TEST(VerticalCostModel, LevelingVsTieringDirections) {
  const auto m = Model(6);
  // Tiering reads cost more (T runs per level); writes cost less.
  EXPECT_GT(m.PointLookupCost(MergePolicy::kTiering),
            m.PointLookupCost(MergePolicy::kLeveling));
  EXPECT_LT(m.UpdateCost(MergePolicy::kTiering),
            m.UpdateCost(MergePolicy::kLeveling));
}

TEST(VerticalCostModel, RatioTradesReadsForWrites) {
  // Growing T: fewer levels ⇒ cheaper leveled reads, costlier leveled
  // writes per level but fewer levels — classic concave trade-off. At the
  // extremes the directions are unambiguous.
  const auto small = Model(2);
  const auto large = Model(32);
  EXPECT_GT(small.PointLookupCost(MergePolicy::kLeveling),
            large.PointLookupCost(MergePolicy::kLeveling));
  EXPECT_LT(small.UpdateCost(MergePolicy::kLeveling),
            large.UpdateCost(MergePolicy::kLeveling));
}

TEST(VerticalCostModel, BestVerticalRespondsToMix) {
  WorkloadMix writes;
  writes.updates = 0.99;
  writes.point_lookups = 0.01;
  const auto w = BestVertical(0.1, 4.0, 1024, writes);
  EXPECT_EQ(w.merge, MergePolicy::kTiering);

  WorkloadMix reads;
  reads.updates = 0.01;
  reads.point_lookups = 0.99;
  const auto r = BestVertical(0.1, 4.0, 1024, reads);
  EXPECT_EQ(r.merge, MergePolicy::kLeveling);
}

// The paper's model-space claim behind Figure 10(a): at any point-lookup
// budget, the horizontal family offers write cost at most the vertical
// family's (Bentley–Saxe / Theorem 4.2 optimality).
class FrontierDominanceTest : public ::testing::TestWithParam<double> {};

TEST_P(FrontierDominanceTest, HorizontalDominatesVertical) {
  const double budget = GetParam();
  const double f = BloomFalsePositiveRate(5.0);
  const uint64_t n = 1024;

  double best_vertical = -1;
  for (double T : {2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 16.0, 32.0, 64.0}) {
    VerticalCostModel m;
    m.size_ratio = T;
    m.bloom_fpr = f;
    m.page_entries = 4.0;
    m.data_buffers = n;
    for (auto merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
      if (m.PointLookupCost(merge) <= budget) {
        const double w = m.UpdateCost(merge);
        if (best_vertical < 0 || w < best_vertical) best_vertical = w;
      }
    }
  }
  if (best_vertical < 0) {
    GTEST_SKIP() << "no vertical design meets the budget";
  }

  HorizontalCostModel h;
  h.capacity_buffers = n;
  h.bloom_fpr = f;
  h.page_entries = 4.0;
  double best_horizontal = -1;
  for (int l = 2; l <= 128; l++) {
    for (auto merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
      if (h.PointLookupCost(merge, l) <= budget) {
        const double w = h.UpdateCost(merge, l);
        if (best_horizontal < 0 || w < best_horizontal) best_horizontal = w;
      }
    }
  }
  ASSERT_GE(best_horizontal, 0.0);
  EXPECT_LE(best_horizontal, best_vertical + 1e-9) << "budget " << budget;
}

INSTANTIATE_TEST_SUITE_P(Budgets, FrontierDominanceTest,
                         ::testing::Values(0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0,
                                           1.2, 1.5, 2.0, 2.5, 3.0, 4.0,
                                           5.0));

}  // namespace
}  // namespace tuning
}  // namespace talus
