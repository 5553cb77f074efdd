// Tests for the growing vertical part of the cost model (tuning::Predict
// over Design::Vertical) and the §9 tuner's candidates.
#include <gtest/gtest.h>

#include "filter/bloom.h"
#include "tuning/cost_model.h"

namespace talus {
namespace tuning {
namespace {

Cost Model(double T, MergePolicy merge, uint64_t n = 1024) {
  return Predict(Design::Vertical(merge, T), 0.1, 4.0, n);
}

int Levels(double T, uint64_t n) {
  return Model(T, MergePolicy::kLeveling, n).levels;
}

TEST(VerticalCost, LevelCountLogarithmic) {
  EXPECT_EQ(Levels(2, 1024), 10);
  EXPECT_EQ(Levels(4, 1024), 5);
  EXPECT_EQ(Levels(32, 1024), 2);
  EXPECT_GE(Levels(10, 2), 1);
}

TEST(VerticalCost, LevelingVsTieringDirections) {
  const Cost tiering = Model(6, MergePolicy::kTiering);
  const Cost leveling = Model(6, MergePolicy::kLeveling);
  // Tiering reads cost more (T runs per level); writes cost less.
  EXPECT_GT(tiering.point, leveling.point);
  EXPECT_LT(tiering.update, leveling.update);
}

TEST(VerticalCost, RatioTradesReadsForWrites) {
  // Growing T: fewer levels ⇒ cheaper leveled reads, costlier leveled
  // writes per level but fewer levels — classic concave trade-off. At the
  // extremes the directions are unambiguous.
  const Cost small = Model(2, MergePolicy::kLeveling);
  const Cost large = Model(32, MergePolicy::kLeveling);
  EXPECT_GT(small.point, large.point);
  EXPECT_LT(small.update, large.update);
}

TEST(VerticalCost, BestVerticalRespondsToMix) {
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
    for (auto merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
      const Cost m = Predict(Design::Vertical(merge, T), f, 4.0, n);
      if (m.point <= budget) {
        const double w = m.update;
        if (best_vertical < 0 || w < best_vertical) best_vertical = w;
      }
    }
  }
  if (best_vertical < 0) {
    GTEST_SKIP() << "no vertical design meets the budget";
  }

  double best_horizontal = -1;
  for (int l = 2; l <= 128; l++) {
    for (auto merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
      const Cost h = Predict(Design::Horizontal(merge, l, n), f, 4.0, n);
      if (h.point <= budget) {
        const double w = h.update;
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
