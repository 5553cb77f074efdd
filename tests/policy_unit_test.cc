// White-box unit tests for policy internals, on hand-built Version shapes
// (no engine in the loop): universal's rule precedence, vertical capacity
// math (incl. RocksDB-Tuned dynamic level bytes), cascade request assembly,
// the horizontal part's counters and codec, every policy's state codec
// against truncation and padding, and every named policy's decisions under
// a thread pool's call orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "policy/composed_policy.h"
#include "policy/horizontal_part.h"
#include "policy/policy_config.h"
#include "policy/universal_policy.h"
#include "theory/binomial.h"
#include "util/coding.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

FileMetaPtr File(uint64_t number, uint64_t size, const std::string& lo = "a",
                 const std::string& hi = "z") {
  auto f = std::make_shared<FileMeta>();
  f->number = number;
  f->file_size = size;
  f->num_entries = size / 100;
  f->payload_bytes = size * 9 / 10;
  f->smallest = InternalKey(lo, 2, kTypeValue);
  f->largest = InternalKey(hi, 1, kTypeValue);
  return f;
}

SortedRun MakeRun(uint64_t id, uint64_t bytes) {
  SortedRun run;
  run.run_id = id;
  run.files = {File(id * 100, bytes)};
  return run;
}

PolicyContext Ctx(uint64_t buffer = 4096) {
  PolicyContext ctx;
  ctx.buffer_bytes = buffer;
  return ctx;
}

// ---------------------------------------------------------------------------
// UniversalPolicy rule precedence.
// ---------------------------------------------------------------------------

TEST(UniversalRules, BelowTriggerDoesNothing) {
  UniversalPolicy policy(GrowthPolicyConfig::Universal(), Ctx());
  Version v;
  v.EnsureLevels(1);
  v.levels[0].runs = {MakeRun(1, 100), MakeRun(2, 100), MakeRun(3, 100)};
  EXPECT_FALSE(policy.PickCompaction(v).has_value());
}

TEST(UniversalRules, SpaceAmpCompactsEverything) {
  UniversalPolicy policy(GrowthPolicyConfig::Universal(), Ctx());
  Version v;
  v.EnsureLevels(1);
  // Young runs total 900 > 2 × oldest (100): full merge.
  v.levels[0].runs = {MakeRun(1, 300), MakeRun(2, 300), MakeRun(3, 300), MakeRun(4, 100)};
  auto req = policy.PickCompaction(v);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->inputs.size(), 4u);
  EXPECT_EQ(req->reason, "universal-space-amp");
  EXPECT_EQ(req->placement, CompactionRequest::Placement::kReplaceInputs);
}

TEST(UniversalRules, SizeRatioMergesSimilarRuns) {
  UniversalPolicy policy(GrowthPolicyConfig::Universal(), Ctx());
  Version v;
  v.EnsureLevels(1);
  // Oldest run dominates → no space-amp; the three young equal runs merge.
  v.levels[0].runs = {MakeRun(1, 100), MakeRun(2, 100), MakeRun(3, 100), MakeRun(4, 10000)};
  auto req = policy.PickCompaction(v);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->reason, "universal-size-ratio");
  EXPECT_EQ(req->inputs.size(), 3u);
  EXPECT_EQ(req->inputs[0].run_id, 1u);
  EXPECT_EQ(req->inputs[2].run_id, 3u);
}

TEST(UniversalRules, SizeRatioScansStartPositions) {
  UniversalPolicy policy(GrowthPolicyConfig::Universal(), Ctx());
  Version v;
  v.EnsureLevels(1);
  // The window cannot start at run 1 (run 2 is larger); runs 2 and 3 form
  // the first valid ratio window.
  v.levels[0].runs = {MakeRun(1, 100), MakeRun(2, 300), MakeRun(3, 200), MakeRun(4, 50000)};
  auto req = policy.PickCompaction(v);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->reason, "universal-size-ratio");
  ASSERT_EQ(req->inputs.size(), 2u);
  EXPECT_EQ(req->inputs[0].run_id, 2u);
  EXPECT_EQ(req->inputs[1].run_id, 3u);
}

TEST(UniversalRules, RunCountFallsBackToCheapestPair) {
  UniversalPolicy policy(GrowthPolicyConfig::Universal(), Ctx());
  Version v;
  v.EnsureLevels(1);
  // Strictly decreasing sizes: no size-ratio window anywhere; the cheapest
  // adjacent pair is the two newest runs (100+400).
  v.levels[0].runs = {MakeRun(1, 100), MakeRun(2, 400), MakeRun(3, 1600), MakeRun(4, 6400)};
  auto req = policy.PickCompaction(v);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->reason, "universal-run-count");
  ASSERT_EQ(req->inputs.size(), 2u);
  EXPECT_EQ(req->inputs[0].run_id, 1u);
  EXPECT_EQ(req->inputs[1].run_id, 2u);
}

// ---------------------------------------------------------------------------
// Vertical part capacity math.
// ---------------------------------------------------------------------------

TEST(VerticalCapacity, ExponentialDefault) {
  ComposedPolicy policy(GrowthPolicyConfig::VTLevelPart(4), Ctx(1000));
  Version v;
  v.EnsureLevels(4);
  EXPECT_EQ(policy.LevelCapacity(v, 0), 4000u);
  EXPECT_EQ(policy.LevelCapacity(v, 1), 16000u);
  EXPECT_EQ(policy.LevelCapacity(v, 2), 64000u);
}

TEST(VerticalCapacity, DynamicLevelBytesAnchorsToLastLevel) {
  auto config = GrowthPolicyConfig::RocksDBTuned();  // T = 10, dynamic.
  ComposedPolicy policy(config, Ctx(1000));
  Version v;
  v.EnsureLevels(4);
  v.levels[3].runs = {MakeRun(1, 1000000)};  // Bottom holds 1MB.
  // Upper capacities descend by T from the actual bottom size.
  EXPECT_EQ(policy.LevelCapacity(v, 2), 100000u);
  EXPECT_EQ(policy.LevelCapacity(v, 1), 10000u);
  // Floored at B·T.
  EXPECT_EQ(policy.LevelCapacity(v, 0), 10000u);
}

TEST(VerticalPick, OldestSmallestSeqFirstHonored) {
  auto config = GrowthPolicyConfig::RocksDBTuned();
  ComposedPolicy policy(config, Ctx(100));
  Version v;
  v.EnsureLevels(2);
  SortedRun run;
  run.run_id = 9;
  auto f1 = File(1, 5000, "a", "f");
  auto f2 = File(2, 5000, "g", "p");
  auto f3 = File(3, 5000, "q", "z");
  f1->oldest_seq = 30;
  f2->oldest_seq = 10;  // Oldest data: must be picked first.
  f3->oldest_seq = 20;
  run.files = {f1, f2, f3};
  v.levels[0].runs = {run};

  auto req = policy.PickCompaction(v);
  ASSERT_TRUE(req.has_value());
  ASSERT_EQ(req->inputs[0].file_numbers.size(), 1u);
  EXPECT_EQ(req->inputs[0].file_numbers[0], 2u);
}

// ---------------------------------------------------------------------------
// Cascade request assembly.
// ---------------------------------------------------------------------------

TEST(CascadeRequest, CollectsAllRunsInRange) {
  Version v;
  v.EnsureLevels(4);
  v.levels[0].runs = {MakeRun(1, 100), MakeRun(2, 100)};
  v.levels[1].runs = {MakeRun(3, 400)};
  v.levels[2].runs = {MakeRun(4, 1600)};

  auto req = HorizontalPart::MakeCascadeRequest(
      v, 1, /*merge_into_existing=*/true, "t");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->inputs.size(), 3u);  // Levels 0..1: runs 1, 2, 3.
  EXPECT_EQ(req->output_level, 2);
  ASSERT_TRUE(req->output_run_id.has_value());
  EXPECT_EQ(*req->output_run_id, 4u);
}

TEST(CascadeRequest, NewRunWhenTieringOrEmptyTarget) {
  Version v;
  v.EnsureLevels(3);
  v.levels[0].runs = {MakeRun(1, 100)};
  v.levels[1].runs = {MakeRun(2, 400)};

  auto tier = HorizontalPart::MakeCascadeRequest(
      v, 0, /*merge_into_existing=*/false, "t");
  ASSERT_TRUE(tier.has_value());
  EXPECT_FALSE(tier->output_run_id.has_value());

  auto empty_target =
      HorizontalPart::MakeCascadeRequest(v, 1, /*merge_into_existing=*/true,
                                         "t");
  ASSERT_TRUE(empty_target.has_value());
  EXPECT_EQ(empty_target->output_level, 2);
  EXPECT_FALSE(empty_target->output_run_id.has_value());  // L2 is empty.
}

TEST(CascadeRequest, EmptyLevelsYieldNothing) {
  Version v;
  v.EnsureLevels(3);
  EXPECT_FALSE(
      HorizontalPart::MakeCascadeRequest(v, 1, true, "t").has_value());
}

// ---------------------------------------------------------------------------
// Counter machinery and state round-trips.
// ---------------------------------------------------------------------------

TEST(HorizontalPartUnit, LevelingTriggerPrefix) {
  HorizontalPart part(MergePolicy::kLeveling, 3, GrowthPolicyConfig(), "t");
  // Flush 1: [1,0,0] → L0 fires → [0,1,0] → L1 fires (1>0) → [0,0,1]:
  // Algorithm 1 cascades all the way on the very first flush.
  EXPECT_EQ(part.OnFlush(), 1);
  EXPECT_EQ(part.counters()[2], 1u);
  // Flush 2: [1,0,1] → L0 fires → [0,1,1]; L1: 1 > 1 fails → end = 0.
  EXPECT_EQ(part.OnFlush(), 0);
  // Flush 3: [1,1,1] → no trigger.
  EXPECT_EQ(part.OnFlush(), -1);
  // Flush 4: [2,1,1] → cascade through levels 0 and 1 → [0,0,2].
  EXPECT_EQ(part.OnFlush(), 1);
  EXPECT_EQ(part.counters()[2], 2u);
}

TEST(HorizontalPartUnit, TieringCountdown) {
  HorizontalPart part(MergePolicy::kTiering, 2, GrowthPolicyConfig(), "t");
  part.Rearm(3);
  EXPECT_EQ(part.OnFlush(), -1);  // C1: 3→2.
  EXPECT_EQ(part.OnFlush(), -1);  // 2→1.
  EXPECT_EQ(part.OnFlush(), 0);   // 1→0: compact; C2 3→2, C1 ← 2.
  EXPECT_EQ(part.counters()[0], 2u);
  EXPECT_EQ(part.counters()[1], 2u);
  EXPECT_FALSE(part.Drained());
}

TEST(HorizontalPartUnit, ArmUsesAlgorithm2InitialK) {
  HorizontalPart tiering(MergePolicy::kTiering, 3, GrowthPolicyConfig(), "t");
  tiering.Arm(100);
  EXPECT_EQ(tiering.k(), theory::FindK(100, 3));
  EXPECT_EQ(tiering.counters(), std::vector<uint64_t>(3, tiering.k()));
  tiering.Arm(0);  // Unknown flush count: armed for two.
  EXPECT_EQ(tiering.k(), theory::FindK(2, 3));

  HorizontalPart leveling(MergePolicy::kLeveling, 3, GrowthPolicyConfig(),
                          "t");
  leveling.Arm(100);
  EXPECT_EQ(leveling.k(), 0u);
  EXPECT_EQ(leveling.counters(), std::vector<uint64_t>(3, 0));
}

TEST(HorizontalPartUnit, ClearSupersedesCascade) {
  Version v;
  v.EnsureLevels(4);
  v.levels[0].runs = {MakeRun(1, 100)};
  v.levels[1].runs = {MakeRun(2, 400)};
  HorizontalPart part(MergePolicy::kLeveling, 3, GrowthPolicyConfig(), "h",
                      "h-clear");
  ASSERT_EQ(part.OnFlush(), 1);
  auto clear = part.PickClear(v, 2);
  ASSERT_TRUE(clear.has_value());
  EXPECT_EQ(clear->output_level, 3);
  EXPECT_TRUE(part.IsClear(*clear));
  EXPECT_FALSE(part.PickCascade(v).has_value());

  ASSERT_EQ(part.OnFlush(), 0);
  auto cascade = part.PickCascade(v);
  ASSERT_TRUE(cascade.has_value());
  EXPECT_EQ(cascade->reason, "h-cascade[0..0]");
  EXPECT_FALSE(part.IsClear(*cascade));
  EXPECT_FALSE(part.PickCascade(v).has_value());  // Consumed.
}

TEST(HorizontalPartUnit, EncodeDecodeRoundTrip) {
  HorizontalPart part(MergePolicy::kTiering, 4, GrowthPolicyConfig(), "t");
  part.Rearm(7);
  part.OnFlush();
  part.OnFlush();
  std::string encoded;
  part.EncodeTo(&encoded, /*with_k=*/true);

  HorizontalPart decoded(MergePolicy::kTiering, 4, GrowthPolicyConfig(), "t");
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input, /*with_k=*/true));
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(decoded.k(), 7u);
  EXPECT_EQ(decoded.counters(), part.counters());

  // Another ℓ or another merge policy is another design: rejected.
  for (const auto& [merge, levels] :
       {std::pair(MergePolicy::kTiering, 3),
        std::pair(MergePolicy::kLeveling, 4)}) {
    HorizontalPart other(merge, levels, GrowthPolicyConfig(), "t");
    Slice again(encoded);
    EXPECT_FALSE(other.DecodeFrom(&again, /*with_k=*/true));
  }
}

TEST(PolicyLabels, PresetsNameThemselves) {
  EXPECT_EQ(GrowthPolicyConfig::VTLevelPart(6).Label(), "VT-Level-Part");
  EXPECT_EQ(GrowthPolicyConfig::VTTierFull(6).Label(), "VT-Tier-Full");
  EXPECT_EQ(GrowthPolicyConfig::RocksDBTuned().Label(), "RocksDB-Tuned");
  EXPECT_EQ(GrowthPolicyConfig::Universal().Label(), "Universal");
  EXPECT_EQ(GrowthPolicyConfig::HRLevel(3).Label(), "HR-Level");
  EXPECT_EQ(GrowthPolicyConfig::HRTier(3).Label(), "HR-Tier");
  EXPECT_EQ(GrowthPolicyConfig::VRNLevel(6).Label(), "VRN-Level");
  EXPECT_EQ(GrowthPolicyConfig::VRNTier(6).Label(), "VRN-Tier");
  EXPECT_EQ(GrowthPolicyConfig::Vertiorizon(6).Label(), "Vertiorizon");
  EXPECT_EQ(GrowthPolicyConfig::LazyLeveling(6, 4, false).Label(),
            "Lazy-Level");
  EXPECT_EQ(GrowthPolicyConfig::LazyLeveling(6, 4, true).Label(),
            "Lazy-Level+VRN");
}

// The command-line roster both examples share: every name resolves to the
// preset its Label() names, and an unknown name is rejected rather than
// silently mapped to a default.
TEST(PolicyNames, EveryNameResolvesAndUnknownIsRejected) {
  const std::vector<std::pair<std::string, std::string>> roster = {
      {"vt-level-part", "VT-Level-Part"}, {"vt-level-full", "VT-Level-Full"},
      {"vt-tier-part", "VT-Tier-Part"},   {"vt-tier-full", "VT-Tier-Full"},
      {"rocksdb-tuned", "RocksDB-Tuned"}, {"universal", "Universal"},
      {"hr-level", "HR-Level"},           {"hr-tier", "HR-Tier"},
      {"vrn-level", "VRN-Level"},         {"vrn-tier", "VRN-Tier"},
      {"vertiorizon", "Vertiorizon"},     {"lazy", "Lazy-Level"},
      {"lazy-vrn", "Lazy-Level+VRN"},
  };
  std::string names;
  for (const auto& [name, label] : roster) {
    GrowthPolicyConfig c;
    ASSERT_TRUE(GrowthPolicyConfigByName(name, 4, 1 << 20, &c)) << name;
    EXPECT_EQ(c.Label(), label) << name;
    names += (names.empty() ? "" : "|") + name;
  }
  EXPECT_EQ(GrowthPolicyNames(), names);

  GrowthPolicyConfig c;
  ASSERT_TRUE(GrowthPolicyConfigByName("vt-tier-full", 4, 0, &c));
  EXPECT_EQ(c.size_ratio, 4);
  ASSERT_TRUE(GrowthPolicyConfigByName("hr-tier", 4, 1 << 20, &c));
  EXPECT_EQ(c.horizontal_data_size, 1u << 20);

  for (const char* unknown : {"", "hr-levels", "Vertiorizon", "vt_level"}) {
    EXPECT_FALSE(GrowthPolicyConfigByName(unknown, 4, 0, &c)) << unknown;
  }
  EXPECT_EQ(c.Label(), "HR-Tier");  // Untouched by the rejected names.
}

TEST(VertiorizonUnit, CapacityMathUsesEq2Ratio) {
  auto config = GrowthPolicyConfig::VRNTier(8.0);
  config.vrn_initial_capacity_buffers = 10;
  ComposedPolicy policy(config, Ctx(1000));
  // T' = 8/√2 ≈ 5.657. V1 cap = 10·1000·T'; V2 = 10·1000·64.
  EXPECT_EQ(policy.design()->horizontal->buffers, 10u);
  EXPECT_EQ(policy.v1_level(), ComposedPolicy::kMaxHorizontalLevels);
  EXPECT_EQ(policy.v2_level(), ComposedPolicy::kMaxHorizontalLevels + 1);
}

TEST(VertiorizonUnit, StateRoundTripThroughEncodeDecode) {
  auto config = GrowthPolicyConfig::Vertiorizon(6.0);
  ComposedPolicy a(config, Ctx(4096));
  const std::string state = a.EncodeState();
  ComposedPolicy b(config, Ctx(4096));
  ASSERT_TRUE(b.DecodeState(state));
  EXPECT_EQ(*b.design(), *a.design());
  EXPECT_EQ(b.EncodeState(), state);
}

// Every strict, non-empty prefix of a policy's persisted state is rejected,
// and so is the state with one byte appended: the state is bytes read back
// from the manifest, and a truncated or padded blob must fail the open,
// never decode into a half-restored policy. (An empty state means a fresh
// store.) Each policy is first driven over a fixed shape with every level
// over capacity, so its counters, cursors and phase flags have moved off
// their initial values. Vertiorizon's state also carries n, which starts at
// 2 or more; a state with n = 0 is rejected.
TEST(PolicyStateCodec, EveryTruncatedStateIsRejected) {
  Version v;
  v.EnsureLevels(ComposedPolicy::kMaxHorizontalLevels + 2);
  uint64_t id = 1;
  for (LevelState& level : v.levels) {
    for (int r = 0; r < 3; r++, id++) {
      SortedRun run;
      run.run_id = id;
      run.files = {File(10 * id, 1 << 20, "a", "h"),
                   File(10 * id + 1, 1 << 20, "i", "q"),
                   File(10 * id + 2, 1 << 20, "r", "z")};
      level.runs.push_back(run);
    }
  }
  std::string roster = GrowthPolicyNames() + "|";
  for (size_t pos; (pos = roster.find('|')) != std::string::npos;
       roster.erase(0, pos + 1)) {
    const std::string name = roster.substr(0, pos);
    GrowthPolicyConfig config;
    ASSERT_TRUE(GrowthPolicyConfigByName(name, 3, 1 << 20, &config)) << name;
    auto policy = CreateGrowthPolicy(config, Ctx());
    for (int flush = 0; flush < 40; flush++) {
      policy->OnFlushCompleted(v);
      for (int pick = 0; pick < 3; pick++) {
        auto req = policy->PickCompaction(v);
        if (!req.has_value()) break;
        policy->OnCompactionCompleted(*req, v);
      }
    }
    const std::string state = policy->EncodeState();
    for (size_t len = 1; len < state.size(); len++) {
      EXPECT_FALSE(CreateGrowthPolicy(config, Ctx())
                       ->DecodeState(state.substr(0, len)))
          << name << ": prefix of " << len << " of " << state.size();
    }
    EXPECT_FALSE(CreateGrowthPolicy(config, Ctx())->DecodeState(state + '\0'))
        << name << ": one byte past " << state.size();
    if (config.scheme == GrowthScheme::kVertiorizon) {
      // ℓ and the merge byte, then n.
      Slice rest(state);
      uint64_t levels, n;
      ASSERT_TRUE(GetVarint64(&rest, &levels) && rest.size() > 1) << name;
      rest.remove_prefix(1);
      ASSERT_TRUE(GetVarint64(&rest, &n)) << name;
      std::string zero_n = state.substr(0, state.size() - rest.size());
      zero_n.resize(zero_n.size() - VarintLength(n));
      PutVarint64(&zero_n, 0);
      zero_n.append(rest.data(), rest.size());
      EXPECT_FALSE(CreateGrowthPolicy(config, Ctx())->DecodeState(zero_n))
          << name << ": n = 0";
    }
    auto restored = CreateGrowthPolicy(config, Ctx());
    ASSERT_TRUE(restored->DecodeState(state)) << name;
    EXPECT_EQ(restored->EncodeState(), state) << name;
  }
}

// ---------------------------------------------------------------------------
// The policy seam under a thread pool's call orders.
// ---------------------------------------------------------------------------

// A synthetic tree over Vertiorizon's ten levels: `levels[i]` gives level i
// its run count and the size of each of a run's three files.
Version SeamVersion(const std::vector<std::pair<int, uint64_t>>& levels) {
  Version v;
  v.EnsureLevels(10);
  uint64_t id = 1;
  for (size_t i = 0; i < levels.size(); i++) {
    for (int r = 0; r < levels[i].first; r++, id++) {
      SortedRun run;
      run.run_id = id;
      run.files = {File(10 * id, levels[i].second, "a", "h"),
                   File(10 * id + 1, levels[i].second, "i", "q"),
                   File(10 * id + 2, levels[i].second, "r", "z")};
      for (uint64_t f = 0; f < 3; f++) {
        run.files[f]->oldest_seq = (7 * id + 3 * f) % 11;
      }
      v.levels[i].runs.push_back(run);
    }
  }
  return v;
}

struct SeamHash {
  uint64_t value = 0xCBF29CE484222325ull;
  void Int(uint64_t x) {
    for (int i = 0; i < 8; i++) {
      value ^= (x >> (8 * i)) & 0xff;
      value *= 0x100000001B3ull;
    }
  }
  void Bytes(const std::string& s) {
    Int(s.size());
    for (unsigned char c : s) {
      value ^= c;
      value *= 0x100000001B3ull;
    }
  }
  void Request(const std::optional<CompactionRequest>& req) {
    if (!req.has_value()) return Int(~0ull);
    Int(req->inputs.size());
    for (const auto& in : req->inputs) {
      Int(static_cast<uint64_t>(in.level));
      Int(in.run_id);
      Int(in.file_numbers.size());
      for (uint64_t f : in.file_numbers) Int(f);
    }
    Int(static_cast<uint64_t>(req->output_level));
    Int(req->output_run_id.has_value() ? *req->output_run_id + 1 : 0);
    Int(static_cast<uint64_t>(req->placement));
    Bytes(req->reason);
  }
};

// Every named policy, driven through the call orders a thread pool produces:
// two flushes installed before the compaction lane picks, a pick whose
// merge fails (no OnCompactionCompleted follows), completions reported
// against a newer version, clears, cascades and Vertiorizon's resizes. Each
// returned request, each EncodeState() after every call, and the flush mode,
// level count and filter forecast at every step are folded into one hash per
// policy. The constants were recorded before the growth designs were
// composed from parts; they pin that the composed policy makes the same
// decisions call for call, and are never edited to make a refactor pass.
// The six names with a horizontal part were re-recorded once, when
// cascades owed by flushes installed before one pick began to fold.
TEST(PolicySeam, PoolOrderCallSequencesArePinned) {
  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"vt-level-part", 0x8acc2be5be6a1c51ull},
      {"vt-level-full", 0xb6386d16eb604628ull},
      {"vt-tier-part", 0x068323e7c1d88298ull},
      {"vt-tier-full", 0xfd3b88e0d25b6fd8ull},
      {"rocksdb-tuned", 0xaf1c1ef033e89f32ull},
      {"universal", 0x8431d22657b08c50ull},
      {"hr-level", 0x914f5a3b7ba17153ull},
      {"hr-tier", 0xff4b61f66ab436e5ull},
      {"vrn-level", 0xd488e0f9d8d30a36ull},
      {"vrn-tier", 0xbfaa5a8dc9b32f69ull},
      {"vertiorizon", 0x50cb92c532f0ade7ull},
      {"lazy", 0x157789fedcc14596ull},
      {"lazy-vrn", 0x09c95740fa2f6424ull},
  };
  const std::vector<Version> versions = {
      SeamVersion({}),
      SeamVersion({{2, 1 << 10}, {}, {}, {}, {}, {}, {}, {}, {1, 2 << 10}}),
      SeamVersion({{3, 16 << 10}, {3, 16 << 10}, {3, 16 << 10},
                   {3, 16 << 10}, {}, {}, {}, {},
                   {1, 64 << 10}, {1, 64 << 10}}),
      SeamVersion({{1, 1 << 10}, {}, {}, {}, {}, {}, {}, {},
                   {1, 1 << 10}, {1, 1 << 20}}),
      SeamVersion(std::vector<std::pair<int, uint64_t>>(10, {3, 1 << 20})),
  };
  std::vector<std::string> names;
  std::string roster = GrowthPolicyNames() + "|";
  for (size_t pos; (pos = roster.find('|')) != std::string::npos;
       roster.erase(0, pos + 1)) {
    names.push_back(roster.substr(0, pos));
  }
  ASSERT_EQ(names.size(), pinned.size());
  for (size_t i = 0; i < names.size(); i++) {
    const std::string& name = names[i];
    EXPECT_EQ(name, pinned[i].first);
    GrowthPolicyConfig config;
    ASSERT_TRUE(GrowthPolicyConfigByName(name, 3, 1 << 20, &config)) << name;
    auto policy = CreateGrowthPolicy(config, Ctx());
    SeamHash hash;
    uint64_t clears = 0;
    auto state = [&] { hash.Bytes(policy->EncodeState()); };
    auto flush = [&](const Version& v) {
      policy->OnFlushCompleted(v);
      state();
    };
    auto pick = [&](const Version& v) {
      auto req = policy->PickCompaction(v);
      hash.Request(req);
      if (req.has_value() && req->reason.find("clear") != std::string::npos) {
        clears++;
      }
      state();
      return req;
    };
    auto complete = [&](const CompactionRequest& req, const Version& v) {
      policy->OnCompactionCompleted(req, v);
      state();
    };
    const std::string initial_state = policy->EncodeState();
    Random rnd(20261020);
    for (int step = 0; step < 1000; step++) {
      const Version& v = versions[rnd.Uniform(versions.size())];
      const Version& next = versions[rnd.Uniform(versions.size())];
      switch (rnd.Uniform(5)) {
        case 0:  // A lone flush.
          flush(v);
          break;
        case 1:  // Two flushes install before the compaction lane picks.
          flush(v);
          flush(next);
          if (auto req = pick(next)) complete(*req, next);
          break;
        case 2:  // A pick installed against a newer version.
          if (auto req = pick(v)) complete(*req, next);
          break;
        case 3:  // A pick whose merge fails: no completion follows.
          pick(v);
          break;
        default:  // An inline chain: pick and install until quiet.
          for (int chain = 0; chain < 3; chain++) {
            auto req = pick(v);
            if (!req.has_value()) break;
            complete(*req, v);
          }
          break;
      }
      hash.Int(static_cast<uint64_t>(policy->FlushMode(v)));
      hash.Int(static_cast<uint64_t>(policy->RequiredLevels(v)));
      for (const LevelFilterInfo& level : policy->FilterInfo(v)) {
        uint64_t fill;
        std::memcpy(&fill, &level.expected_fill, sizeof(fill));
        hash.Int(level.current_entries);
        hash.Int(level.capacity_entries);
        hash.Int(fill);
      }
    }
    EXPECT_EQ(hash.value, pinned[i].second)
        << name << ": 0x" << std::hex << hash.value;

    // The sequence reaches what it is meant to pin: clears wherever a
    // horizontal part sits over a vertical one, Vertiorizon's resizes (its
    // state opens with ℓ, the merge byte and n) and HR-Tier's re-arming at
    // k+1 once its counters drain (its state opens with k).
    const bool vertiorizon = name.rfind("vrn", 0) == 0 || name == "vertiorizon";
    if (vertiorizon || name == "lazy-vrn") {
      EXPECT_GT(clears, 0u) << name;
    }
    auto scale = [vertiorizon](const std::string& state) {
      Slice in(state);
      uint64_t x = 0;
      if (vertiorizon && GetVarint64(&in, &x) && !in.empty()) {
        in.remove_prefix(1);  // Past ℓ and the merge byte.
      }
      return GetVarint64(&in, &x) ? x : 0;  // Vertiorizon's n, HR-Tier's k.
    };
    if (vertiorizon || name == "hr-tier") {
      EXPECT_GT(scale(policy->EncodeState()), scale(initial_state)) << name;
    }
  }
}

// The names whose design has a horizontal part.
const char* const kHorizontalNames[] = {"hr-level",  "hr-tier",
                                        "vrn-level", "vrn-tier",
                                        "vertiorizon", "lazy-vrn"};

std::unique_ptr<GrowthPolicy> NamedPolicy(const std::string& name) {
  GrowthPolicyConfig config;
  EXPECT_TRUE(GrowthPolicyConfigByName(name, 3, 1 << 20, &config)) << name;
  return CreateGrowthPolicy(config, Ctx());
}

// One small run on every level: each cascade has inputs, and no horizontal
// part ever fills, so no clear supersedes a cascade.
Version SmallRunOnEveryLevel() {
  return SeamVersion(std::vector<std::pair<int, uint64_t>>(10, {1, 100}));
}

// The cascade end e a request merges ([0..e] → e+1), or -1 when it is no
// cascade (none, a clear or vertical work).
int CascadeEnd(const std::optional<CompactionRequest>& req) {
  static const std::string kCascade = "-cascade[0..";
  if (!req.has_value() || req->reason.find("clear") != std::string::npos) {
    return -1;
  }
  const size_t at = req->reason.find(kCascade);
  return at == std::string::npos
             ? -1
             : std::stoi(req->reason.substr(at + kCascade.size()));
}

// Runs `flushes` flushes in kInline's order, each followed by one pick and
// its install, and returns the cascade end each flush's pick merged.
std::vector<int> RunInline(GrowthPolicy* policy, const Version& v,
                           int flushes) {
  std::vector<int> ends;
  for (int f = 0; f < flushes; f++) {
    policy->OnFlushCompleted(v);
    auto req = policy->PickCompaction(v);
    ends.push_back(CascadeEnd(req));
    if (req.has_value()) policy->OnCompactionCompleted(*req, v);
  }
  return ends;
}

// A flush that triggers a cascade, then one that triggers none, both
// installed before the compaction lane picks: the pick merges the cascade.
TEST(PolicySeam, AFlushWithNoCascadeKeepsTheOneOwed) {
  const Version v = SmallRunOnEveryLevel();
  for (const std::string name : kHorizontalNames) {
    const std::vector<int> ends = RunInline(NamedPolicy(name).get(), v, 200);
    size_t i = 0;
    while (i + 1 < ends.size() && !(ends[i] >= 0 && ends[i + 1] < 0)) i++;
    ASSERT_LT(i + 1, ends.size()) << name;

    auto policy = NamedPolicy(name);
    RunInline(policy.get(), v, static_cast<int>(i));
    policy->OnFlushCompleted(v);
    policy->OnFlushCompleted(v);
    EXPECT_EQ(CascadeEnd(policy->PickCompaction(v)), ends[i]) << name;
  }
}

// Two cascades of different depths, triggered by flushes installed before
// one pick, fold into one merge of the deeper prefix (footnote 6),
// whichever comes first (HR-Level's deeper one does, lazy-vrn's shallower
// one does). An ℓ = 2 part has one cascade, [0..0].
TEST(PolicySeam, CascadesOwedTogetherMergeTheDeeperPrefix) {
  const Version v = SmallRunOnEveryLevel();
  std::vector<std::string> folded;
  for (const std::string name : kHorizontalNames) {
    const std::vector<int> ends = RunInline(NamedPolicy(name).get(), v, 400);
    // The first cascade whose next cascade has another depth.
    size_t i = 0, j = 0;
    for (size_t k = 0; k < ends.size() && j == 0; k++) {
      if (ends[k] < 0) continue;
      if (ends[k] != ends[i] && ends[i] >= 0) {
        j = k;
      } else {
        i = k;
      }
    }
    if (j == 0) {
      EXPECT_EQ(*std::max_element(ends.begin(), ends.end()), 0) << name;
      continue;
    }
    folded.push_back(name);

    auto policy = NamedPolicy(name);
    RunInline(policy.get(), v, static_cast<int>(i));
    for (size_t f = i; f <= j; f++) policy->OnFlushCompleted(v);
    EXPECT_EQ(CascadeEnd(policy->PickCompaction(v)),
              std::max(ends[i], ends[j]))
        << name << ": [0.." << ends[i] << "] then [0.." << ends[j] << "]";
  }
  EXPECT_EQ(folded,
            (std::vector<std::string>{"hr-level", "hr-tier", "lazy-vrn"}));
}

}  // namespace
}  // namespace talus
