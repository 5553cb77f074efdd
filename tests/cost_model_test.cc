// Tests for the cost model (tuning::Predict) and the §5.2 navigator.
#include "tuning/cost_model.h"

#include <gtest/gtest.h>

#include "filter/bloom.h"
#include "obs/amp_tracker.h"
#include "theory/schemes.h"

namespace talus {
namespace tuning {
namespace {

// A horizontal part of n buffers at f and P, priced for each (merge, ℓ).
struct Horizontal {
  uint64_t n;
  double f;
  double P;

  Cost At(MergePolicy merge, int levels) const {
    return Predict(Design::Horizontal(merge, levels, n), f, P, n);
  }
};

Horizontal Model(uint64_t n = 64, double fpr = 0.1, double P = 4) {
  return Horizontal{n, fpr, P};
}

TEST(CostModel, LevelingPointLookupIsLinearInLevels) {
  const auto m = Model();
  // R_l = ℓ·f.
  EXPECT_DOUBLE_EQ(m.At(MergePolicy::kLeveling, 2).point, 0.2);
  EXPECT_DOUBLE_EQ(m.At(MergePolicy::kLeveling, 5).point, 0.5);
}

TEST(CostModel, TieringUpdateIsLinearInLevels) {
  const auto m = Model();
  // W_t = ℓ/P.
  EXPECT_DOUBLE_EQ(m.At(MergePolicy::kTiering, 2).update, 0.5);
  EXPECT_DOUBLE_EQ(m.At(MergePolicy::kTiering, 4).update, 1.0);
}

TEST(CostModel, RangeLookupIsPointOverFpr) {
  const auto m = Model();
  for (int l = 2; l <= 5; l++) {
    EXPECT_NEAR(m.At(MergePolicy::kLeveling, l).range,
                m.At(MergePolicy::kLeveling, l).point / 0.1,
                1e-12);
    EXPECT_NEAR(m.At(MergePolicy::kTiering, l).range,
                m.At(MergePolicy::kTiering, l).point / 0.1,
                1e-12);
  }
}

TEST(CostModel, TieringLookupMatchesLemma51) {
  const auto m = Model(100);
  for (int l = 2; l <= 5; l++) {
    const double expected =
        static_cast<double>(theory::TieringReadCostClosedForm(100, l)) * 0.1 /
        100.0;
    EXPECT_DOUBLE_EQ(m.At(MergePolicy::kTiering, l).point,
                     expected);
  }
}

TEST(CostModel, LevelingUpdateMatchesLemma52) {
  const auto m = Model(100);
  for (int l = 2; l <= 5; l++) {
    const double expected =
        static_cast<double>(theory::LevelingWriteCostClosedForm(100, l)) /
        (100.0 * 4.0);
    EXPECT_DOUBLE_EQ(m.At(MergePolicy::kLeveling, l).update, expected);
  }
}

TEST(CostModel, LevelKnobDirectionsMatchSection51) {
  // §5.1: "under the leveling policy, a smaller number of levels leads to
  // better read performance; under the tiering policy, fewer levels result
  // in better write performance."
  const auto m = Model(512);
  // Leveling: reads prefer few levels, writes prefer many.
  EXPECT_LT(m.At(MergePolicy::kLeveling, 2).point,
            m.At(MergePolicy::kLeveling, 5).point);
  EXPECT_GT(m.At(MergePolicy::kLeveling, 2).update,
            m.At(MergePolicy::kLeveling, 5).update);
  // Tiering: writes prefer few levels, reads prefer many (runs consolidate
  // sooner, so fewer runs are alive on average).
  EXPECT_LT(m.At(MergePolicy::kTiering, 2).update,
            m.At(MergePolicy::kTiering, 5).update);
  EXPECT_GT(m.At(MergePolicy::kTiering, 2).point,
            m.At(MergePolicy::kTiering, 5).point);
}

// Every candidate the navigator and the tuner price, pinned bit for bit:
// W, R, Q and ζ were printed with %.17g by the two cost-model structs that
// Predict replaced, at f = BloomFalsePositiveRate(5), P = 4096/84 (a P
// whose products round, so a reordered formula shows) and the mix w = 0.3,
// r = 0.5, q = 0.2. A decision moves only if one of these does.
struct PinnedPrice {
  double shape;  // T (vertical) or n (horizontal).
  MergePolicy merge;
  uint64_t size;  // N/B (vertical) or ℓ (horizontal).
  double update, point, range, zeta;
};

constexpr MergePolicy kL = MergePolicy::kLeveling;
constexpr MergePolicy kT = MergePolicy::kTiering;

constexpr PinnedPrice kPinnedVertical[] = {
    {2, kL, 1, 0.03076171875, 0.090512703352507162, 1, 0.25448486730125358},
    {2, kL, 16, 0.123046875, 0.36205081341002865, 4, 1.0179394692050143},
    {2, kL, 1024, 0.3076171875, 0.90512703352507162, 10, 2.5448486730125359},
    {2, kL, 100000, 0.52294921875, 1.5387159569926219, 17, 4.3262427441213109},
    {2, kT, 1, 0.0205078125, 0.18102540670501432, 2, 0.4966650471025072},
    {2, kT, 16, 0.08203125, 0.7241016268200573, 8, 1.9866601884100288},
    {2, kT, 1024, 0.205078125, 1.8102540670501432, 20, 4.9666504710250718},
    {2, kT, 100000, 0.3486328125, 3.0774319139852437, 34, 8.4433058007426229},
    {3, kL, 1, 0.041015625, 0.090512703352507162, 1, 0.25756103917625361},
    {3, kL, 16, 0.123046875, 0.27153811005752149, 3, 0.77268311752876084},
    {3, kL, 1024, 0.287109375, 0.63358892346755014, 7, 1.8029272742337752},
    {3, kL, 100000, 0.451171875, 0.99563973687757878, 11, 2.8331714309387896},
    {3, kT, 1, 0.0205078125, 0.27153811005752149, 3, 0.74192139877876084},
    {3, kT, 16, 0.0615234375, 0.81461433017256446, 9, 2.2257641963362822},
    {3, kT, 1024, 0.1435546875, 1.9007667704026505, 21, 5.1934497914513251},
    {3, kT, 100000, 0.2255859375, 2.9869192106327365, 33, 8.1611353865663681},
    {4, kL, 1, 0.05126953125, 0.090512703352507162, 1, 0.26063721105125359},
    {4, kL, 16, 0.1025390625, 0.18102540670501432, 2, 0.52127442210250718},
    {4, kL, 1024, 0.25634765625, 0.45256351676253581, 5, 1.303186055256268},
    {4, kL, 100000, 0.46142578125, 0.81461433017256446, 9, 2.3457348994612826},
    {4, kT, 1, 0.0205078125, 0.36205081341002865, 4, 0.98717775045501432},
    {4, kT, 16, 0.041015625, 0.7241016268200573, 8, 1.9743555009100286},
    {4, kT, 1024, 0.1025390625, 1.8102540670501432, 20, 4.9358887522750718},
    {4, kT, 100000, 0.1845703125, 3.2584573206902578, 36, 8.8845997540951291},
    {6, kL, 1, 0.07177734375, 0.090512703352507162, 1, 0.2667895548012536},
    {6, kL, 16, 0.1435546875, 0.18102540670501432, 2, 0.53357910960250721},
    {6, kL, 1024, 0.287109375, 0.36205081341002865, 4, 1.0671582192050144},
    {6, kL, 100000, 0.50244140625, 0.63358892346755014, 7, 1.8675268836087753},
    {6, kT, 1, 0.0205078125, 0.54307622011504297, 6, 1.4776904538075217},
    {6, kT, 16, 0.041015625, 1.0861524402300859, 12, 2.9553809076150435},
    {6, kT, 1024, 0.08203125, 2.1723048804601719, 24, 5.9107618152300869},
    {6, kT, 100000, 0.1435546875, 3.801533540805301, 42, 10.343833176652652},
    {8, kL, 1, 0.09228515625, 0.090512703352507162, 1, 0.27294189855125361},
    {8, kL, 16, 0.1845703125, 0.18102540670501432, 2, 0.54588379710250723},
    {8, kL, 1024, 0.369140625, 0.36205081341002865, 4, 1.0917675942050145},
    {8, kL, 100000, 0.5537109375, 0.54307622011504297, 6, 1.6376513913075217},
    {8, kT, 1, 0.0205078125, 0.7241016268200573, 8, 1.9682031571600287},
    {8, kT, 16, 0.041015625, 1.4482032536401146, 16, 3.9364063143200574},
    {8, kT, 1024, 0.08203125, 2.8964065072802292, 32, 7.8728126286401148},
    {8, kT, 100000, 0.123046875, 4.3446097609203438, 48, 11.809218942960173},
    {10, kL, 1, 0.11279296875, 0.090512703352507162, 1, 0.27909424230125357},
    {10, kL, 16, 0.2255859375, 0.18102540670501432, 2, 0.55818848460250714},
    {10, kL, 1024, 0.451171875, 0.36205081341002865, 4, 1.1163769692050143},
    {10, kL, 100000, 0.56396484375, 0.45256351676253581, 5, 1.395471211506268},
    {10, kT, 1, 0.0205078125, 0.90512703352507162, 10, 2.4587158605125357},
    {10, kT, 16, 0.041015625, 1.8102540670501432, 20, 4.9174317210250713},
    {10, kT, 1024, 0.08203125, 3.6205081341002865, 40, 9.8348634420501426},
    {10, kT, 100000, 0.1025390625, 4.5256351676253583, 50, 12.29357930256268},
    {16, kL, 1, 0.17431640625, 0.090512703352507162, 1, 0.2975512735512536},
    {16, kL, 16, 0.17431640625, 0.090512703352507162, 1, 0.2975512735512536},
    {16, kL, 1024, 0.52294921875, 0.27153811005752149, 3, 0.89265382065376087},
    {16, kL, 100000, 0.87158203125, 0.45256351676253581, 5, 1.487756367756268},
    {16, kT, 1, 0.0205078125, 1.4482032536401146, 16, 3.9302539705700577},
    {16, kT, 16, 0.0205078125, 1.4482032536401146, 16, 3.9302539705700577},
    {16, kT, 1024, 0.0615234375, 4.3446097609203438, 48, 11.790761911710174},
    {16, kT, 100000, 0.1025390625, 7.241016268200573, 80, 19.651269852850287},
    {32, kL, 1, 0.33837890625, 0.090512703352507162, 1, 0.34677002355125358},
    {32, kL, 16, 0.33837890625, 0.090512703352507162, 1, 0.34677002355125358},
    {32, kL, 1024, 0.6767578125, 0.18102540670501432, 2, 0.69354004710250716},
    {32, kL, 100000, 1.353515625, 0.36205081341002865, 4, 1.3870800942050143},
    {32, kT, 1, 0.0205078125, 2.8964065072802292, 32, 7.8543555973901151},
    {32, kT, 16, 0.0205078125, 2.8964065072802292, 32, 7.8543555973901151},
    {32, kT, 1024, 0.041015625, 5.7928130145604584, 64, 15.70871119478023},
    {32, kT, 100000, 0.08203125, 11.585626029120917, 128, 31.417422389560461},
};

constexpr PinnedPrice kPinnedHorizontal[] = {
    {2, kL, 1, 0.03076171875, 0.090512703352507162, 1, 0.25448486730125358},
    {2, kL, 2, 0.03076171875, 0.18102540670501432, 2, 0.49974121897750717},
    {2, kL, 3, 0.03076171875, 0.27153811005752149, 3, 0.74499757065376082},
    {2, kL, 4, 0.03076171875, 0.36205081341002865, 4, 0.99025392233001441},
    {2, kL, 5, 0.03076171875, 0.45256351676253581, 5, 1.235510274006268},
    {2, kL, 6, 0.03076171875, 0.54307622011504297, 6, 1.4807666256825216},
    {2, kL, 7, 0.03076171875, 0.63358892346755014, 7, 1.7260229773587752},
    {2, kL, 8, 0.03076171875, 0.7241016268200573, 8, 1.9712793290350288},
    {2, kT, 1, 0.0205078125, 0.045256351676253581, 0.5, 0.12878051958812681},
    {2, kT, 2, 0.041015625, 0.045256351676253581, 0.5, 0.13493286333812679},
    {2, kT, 3, 0.0615234375, 0.045256351676253581, 0.5, 0.1410852070881268},
    {2, kT, 4, 0.08203125, 0.045256351676253581, 0.5, 0.14723755083812679},
    {2, kT, 5, 0.1025390625, 0.045256351676253581, 0.5, 0.1533898945881268},
    {2, kT, 6, 0.123046875, 0.045256351676253581, 0.5, 0.15954223833812681},
    {2, kT, 7, 0.1435546875, 0.045256351676253581, 0.5, 0.16569458208812679},
    {2, kT, 8, 0.1640625, 0.045256351676253581, 0.5, 0.1718469258381268},
    {16, kL, 1, 0.17431640625, 0.090512703352507162, 1, 0.2975512735512536},
    {16, kL, 2, 0.07818603515625, 0.18102540670501432, 2, 0.51396851389938214},
    {16, kL, 3, 0.06280517578125, 0.27153811005752149, 3, 0.75461060776313582},
    {16, kL, 4, 0.05511474609375, 0.36205081341002865, 4, 0.99755983053313935},
    {16, kL, 5, 0.05255126953125, 0.45256351676253581, 5, 1.2420471392406429},
    {16, kL, 6, 0.05126953125, 0.54307622011504297, 6, 1.4869189694325216},
    {16, kL, 7, 0.04998779296875, 0.63358892346755014, 7, 1.7317907996244002},
    {16, kL, 8, 0.0487060546875, 0.7241016268200573, 8, 1.9766626298162788},
    {16, kT, 1, 0.0205078125, 0.67884527514380366, 7.4999999999999991, 1.8455749813219018},
    {16, kT, 2, 0.041015625, 0.25456697817892637, 2.8124999999999996, 0.7020881765894631},
    {16, kT, 3, 0.0615234375, 0.18668245066454603, 2.0625, 0.52429825658227303},
    {16, kT, 4, 0.08203125, 0.15274018690735583, 1.6875, 0.43847946845367791},
    {16, kT, 5, 0.1025390625, 0.14142609898829245, 1.5625, 0.41397476824414625},
    {16, kT, 6, 0.123046875, 0.13576905502876074, 1.5, 0.4047985900143804},
    {16, kT, 7, 0.1435546875, 0.13011201106922904, 1.4375, 0.39562241178461455},
    {16, kT, 8, 0.1640625, 0.12445496710969735, 1.375, 0.38644623355484869},
    {256, kL, 1, 2.63525390625, 0.090512703352507162, 1, 1.0358325235512535},
    {256, kL, 2, 0.309539794921875, 0.18102540670501432, 2, 0.58337464182906973},
    {256, kL, 3, 0.16830825805664062, 0.27153811005752149, 3, 0.78626153244575303},
    {256, kL, 4, 0.12705230712890625, 0.36205081341002865, 4, 1.0191410988436862},
    {256, kL, 5, 0.10654449462890625, 0.45256351676253581, 5, 1.2582451067699398},
    {256, kL, 6, 0.09661102294921875, 0.54307622011504297, 6, 1.5005214169422874},
    {256, kL, 7, 0.089321136474609375, 0.63358892346755014, 7, 1.743590802676158},
    {256, kL, 8, 0.0849151611328125, 0.7241016268200573, 8, 1.9875253617498725},
    {256, kT, 1, 0.0205078125, 11.540369677444664, 127.50000000000001, 31.276337182472336},
    {256, kT, 2, 0.041015625, 1.2756634128743978, 14.09375, 3.4688863939371988},
    {256, kT, 3, 0.0615234375, 0.65232788158349886, 7.20703125, 1.7860272220417495},
    {256, kT, 4, 0.08203125, 0.47024177913607235, 5.1953125, 1.2987927645680362},
    {256, kT, 5, 0.1025390625, 0.37972907578356518, 4.1953125, 1.0596887566417825},
    {256, kT, 6, 0.123046875, 0.33588698509719456, 3.7109375, 0.94704505504859726},
    {256, kT, 7, 0.1435546875, 0.30371254757735799, 3.3554687499999996, 0.8660164300386789},
    {256, kT, 8, 0.1640625, 0.28426645896646779, 3.140625, 0.81947697948323395},
    {1024, kL, 1, 10.51025390625, 0.090512703352507162, 1, 3.3983325235512538},
    {1024, kL, 2, 0.61883926391601562, 0.18102540670501432, 2, 0.67616448252731187},
    {1024, kL, 3, 0.27210903167724609, 0.27153811005752149, 3, 0.81740176453193469},
    {1024, kL, 4, 0.18595218658447266, 0.36205081341002865, 4, 1.0368110626803562},
    {1024, kL, 5, 0.15020370483398438, 0.45256351676253581, 5, 1.2713428698314633},
    {1024, kL, 6, 0.12969589233398438, 0.54307622011504297, 6, 1.5104468777577169},
    {1024, kL, 7, 0.11777973175048828, 0.63358892346755014, 7, 1.7521283812589217},
    {1024, kL, 8, 0.10872745513916016, 0.7241016268200573, 8, 1.9946690499517767},
    {1024, kT, 1, 0.0205078125, 46.297247764807416, 511.50000000000006, 125.45477622615371},
    {1024, kT, 2, 0.041015625, 2.6407788333588904, 29.175781249999996, 7.1678503541794445},
    {1024, kT, 3, 0.0615234375, 1.1104600509936986, 12.268554687499998, 3.027397994246849},
    {1024, kT, 4, 0.08203125, 0.73020062733892743, 8.0673828125, 2.0031862511694638},
    {1024, kT, 5, 0.1025390625, 0.57242213565511368, 6.32421875, 1.5818165365775569},
    {1024, kT, 6, 0.123046875, 0.48190943230260647, 5.32421875, 1.3427125286513033},
    {1024, kT, 7, 0.1435546875, 0.42931660174133524, 4.7431640625, 1.2063575196206677},
    {1024, kT, 8, 0.1640625, 0.38936372877714265, 4.3017578125, 1.1042521768885714},
};

void ExpectPinned(const PinnedPrice& want, const Cost& got,
                  const WorkloadMix& mix) {
  SCOPED_TRACE(testing::Message() << "shape=" << want.shape << " merge="
                                  << MergePolicyName(want.merge)
                                  << " size=" << want.size);
  EXPECT_EQ(got.update, want.update);
  EXPECT_EQ(got.point, want.point);
  EXPECT_EQ(got.range, want.range);
  EXPECT_EQ(got.Zeta(mix), want.zeta);
}

TEST(CostModel, EveryCandidatePriceIsPinnedExactly) {
  const double f = BloomFalsePositiveRate(5.0);
  const double P = 4096.0 / 84.0;
  WorkloadMix mix;
  mix.updates = 0.3;
  mix.point_lookups = 0.5;
  mix.range_lookups = 0.2;
  for (const PinnedPrice& p : kPinnedVertical) {
    ExpectPinned(p, Predict(Design::Vertical(p.merge, p.shape), f, P, p.size),
                 mix);
  }
  for (const PinnedPrice& p : kPinnedHorizontal) {
    const uint64_t n = static_cast<uint64_t>(p.shape);
    const int levels = static_cast<int>(p.size);
    ExpectPinned(p, Predict(Design::Horizontal(p.merge, levels, n), f, P, n),
                 mix);
  }
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
  const auto fast = Navigate(m.n, m.f, m.P, mix);
  const auto slow = NavigateExhaustive(m.n, m.f, m.P, mix);
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
  const auto w = Navigate(m.n, m.f, m.P, write_only);
  EXPECT_EQ(w.merge, MergePolicy::kTiering);
  EXPECT_EQ(w.levels, 2);  // W_t = ℓ/P is minimized at the smallest ℓ.

  WorkloadMix read_only;
  read_only.updates = 0.0;
  read_only.point_lookups = 1.0;
  const auto r = Navigate(m.n, m.f, m.P, read_only);
  // Pure point lookups with Bloom filters: the cheapest design under the
  // cost model; must agree with the exhaustive oracle.
  EXPECT_NEAR(r.cost, NavigateExhaustive(m.n, m.f, m.P, read_only).cost, 1e-12);
}

TEST(Navigator, RespectsLevelCap) {
  const auto m = Model(4);  // Tiny capacity: ℓ cannot exceed n.
  WorkloadMix mix;
  const auto r = Navigate(m.n, m.f, m.P, mix, 64);
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
