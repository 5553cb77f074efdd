// Adaptive growth-policy tuning (src/tune/, DESIGN.md §9): the hysteresis
// navigator's anti-flap guarantees, the policy-config codec behind manifest
// re-resolution, the live ApplyPolicyConfig migration path (under
// concurrent writers, with catch-up convergence, across reopen), the
// sense→navigate→act loop's JSONL trace signature
// (kModelDrift → kPolicyChange), per-shard tuning isolation, and the one
// ticker thread that paces tuning and stats sampling.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "filter/bloom.h"
#include "lsm/db.h"
#include "obs/model_drift.h"
#include "policy/composed_policy.h"
#include "policy/policy_config.h"
#include "shard/sharded_db.h"
#include "tune/adaptive_tuner.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions SmallDbOptions(Env* env) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelFull(4);
  return opts;
}

// The owner installs `design`: the next window runs and is priced under it.
void Install(const tuning::Design& design, obs::DriftSample* in) {
  in->design = design;
  in->predicted = tuning::Predict(design, in->bloom_fpr, in->page_entries,
                                  in->data_buffers);
}

// A drift window the navigator decides from: its measured mix and
// amp-derived parameters, and the design it ran under, priced.
obs::DriftSample BaseInputs(double update_frac) {
  obs::DriftSample in;
  in.mix.updates = update_frac;
  in.mix.point_lookups = 1.0 - update_frac;
  in.mix.range_lookups = 0;
  in.window_ops = 100000;
  in.bloom_fpr = 0.1;
  in.page_entries = 16;
  in.data_buffers = 256;
  Install(tuning::Design::Vertical(MergePolicy::kLeveling, 6.0), &in);
  return in;
}

// Count the runs in each "L<i>:" section of a Version::DebugString dump.
std::vector<int> RunsPerLevel(const std::string& levels_text) {
  std::vector<int> runs;
  size_t pos = 0;
  while (pos < levels_text.size()) {
    size_t eol = levels_text.find('\n', pos);
    if (eol == std::string::npos) eol = levels_text.size();
    const std::string line = levels_text.substr(pos, eol - pos);
    if (line.rfind("L", 0) == 0) {
      runs.push_back(0);
    } else if (!runs.empty() && line.rfind("  run ", 0) == 0) {
      runs.back()++;
    }
    pos = eol + 1;
  }
  return runs;
}

// ------------------------------------------------------------- Navigator

TEST(TunerNavigator, StationaryMixNeverFlaps) {
  // The core anti-flap promise: against ANY stationary mix the tuner
  // switches at most once — it can move to the winning design, but the
  // hysteresis band must then hold it there (at the indifference boundary
  // the cost ratio is ~1 from either side, under the band from both).
  // Cooldown 0 so flapping would be VISIBLE if the band failed.
  for (int w10 = 0; w10 <= 10; w10++) {
    tune::TunerConfig cfg;
    cfg.cooldown_ticks = 0;
    tune::AdaptiveTuner tuner(cfg);
    obs::DriftSample in = BaseInputs(w10 / 10.0);
    int switches = 0;
    for (int tick = 0; tick < 10; tick++) {
      const tune::TuneDecision d = tuner.Decide(in);
      if (d.retune()) {
        switches++;
        Install(tuning::Design::Vertical(d.merge, d.size_ratio), &in);
      }
    }
    EXPECT_LE(switches, 1) << "mix updates=" << w10 / 10.0
                           << " flapped between designs";
  }
}

TEST(TunerNavigator, ClearWinRetunesThenCooldownHolds) {
  tune::TunerConfig cfg;  // Defaults: hysteresis 0.35, cooldown 2.
  tune::AdaptiveTuner tuner(cfg);

  // Write-heavy against leveling: tiering's flat write cost wins by far
  // more than the band, so the first decision is a retune.
  obs::DriftSample in = BaseInputs(0.95);
  tune::TuneDecision d = tuner.Decide(in);
  ASSERT_TRUE(d.retune()) << d.ActionName();
  EXPECT_EQ(d.merge, MergePolicy::kTiering);
  EXPECT_GT(d.predicted_gain, cfg.hysteresis);

  // The owner did NOT install it (inputs unchanged): the cooldown still
  // holds the next two ticks while windows would refill.
  d = tuner.Decide(in);
  EXPECT_EQ(d.action, tune::TuneDecision::Action::kCooldown);
  d = tuner.Decide(in);
  EXPECT_EQ(d.action, tune::TuneDecision::Action::kCooldown);
  d = tuner.Decide(in);
  EXPECT_TRUE(d.retune());

  // Thin windows never navigate, whatever the mix says.
  in.window_ops = 10;
  d = tuner.Decide(in);
  EXPECT_EQ(d.action, tune::TuneDecision::Action::kThinWindow);

  const tune::TunerStats stats = tuner.GetStats();
  EXPECT_EQ(stats.ticks, 5u);
  EXPECT_EQ(stats.retunes, 2u);
  EXPECT_EQ(stats.cooldown_holds, 2u);
  EXPECT_EQ(stats.thin_windows, 1u);
}

// ------------------------------------------------------------ Config codec

TEST(PolicyConfigCodec, RoundTripsEveryScheme) {
  const std::vector<GrowthPolicyConfig> configs = {
      GrowthPolicyConfig::VTLevelFull(4),
      GrowthPolicyConfig::VTTierPart(8),
      GrowthPolicyConfig::RocksDBTuned(),
      GrowthPolicyConfig::HRTier(5, 64 << 20),
      GrowthPolicyConfig::LazyLeveling(6, 3, true),
      GrowthPolicyConfig::Universal(),
      GrowthPolicyConfig::Vertiorizon(6, WorkloadMix{0.3, 0.6, 0.1}),
  };
  for (const GrowthPolicyConfig& c : configs) {
    const std::string encoded = EncodeGrowthPolicyConfig(c);
    GrowthPolicyConfig decoded;
    ASSERT_TRUE(DecodeGrowthPolicyConfig(encoded, &decoded)) << encoded;
    // Re-encoding is the equality test the engine itself uses
    // (ApplyPolicyConfig's no-op check): identical text, identical design.
    EXPECT_EQ(EncodeGrowthPolicyConfig(decoded), encoded);
    EXPECT_EQ(decoded.Label(), c.Label());
  }

  GrowthPolicyConfig decoded;
  EXPECT_FALSE(DecodeGrowthPolicyConfig("", &decoded));
  EXPECT_FALSE(DecodeGrowthPolicyConfig("v0 scheme=0", &decoded));
  EXPECT_FALSE(DecodeGrowthPolicyConfig("v1 scheme=99 merge=0", &decoded));
}

// ------------------------------------------------- Live migration path

TEST(PolicySwitch, LiveSwitchUnderConcurrentWritersKeepsScanEquality) {
  // Two engines fed the same deterministic writes (disjoint per-writer key
  // ranges, value derived from key): one switches policy twice mid-write,
  // the other never does. Their final scans must be bit-identical — a
  // policy migration may reshape the tree but never the data.
  auto run = [](bool tuned) {
    auto env = NewMemEnv();
    DbOptions opts = SmallDbOptions(env.get());
    opts.execution_mode = ExecutionMode::kBackground;
    opts.num_background_threads = 2;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(opts, &db).ok());

    constexpr int kWriters = 4;
    constexpr int kKeysPerWriter = 1500;
    std::vector<std::thread> writers;
    std::atomic<bool> failed{false};
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&db, &failed, w] {
        for (int i = 0; i < kKeysPerWriter; i++) {
          const uint64_t key = static_cast<uint64_t>(w) * kKeysPerWriter + i;
          const std::string value =
              "v-" + std::to_string(key) + std::string(40, 'x');
          if (!db->Put(workload::FormatKey(key, 16), value).ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }
    if (tuned) {
      // Interleave two live switches with the writer traffic.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_TRUE(
          db->ApplyPolicyConfig(GrowthPolicyConfig::VTTierFull(6)).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_TRUE(
          db->ApplyPolicyConfig(GrowthPolicyConfig::VTLevelFull(3)).ok());
    }
    for (auto& t : writers) t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_TRUE(db->FlushMemTable().ok());

    std::vector<std::pair<std::string, std::string>> rows;
    EXPECT_TRUE(
        db->Scan(Slice(), kWriters * kKeysPerWriter + 1, &rows).ok());
    if (tuned) {
      std::string events;
      EXPECT_TRUE(db->GetProperty("talus.events", &events));
      EXPECT_NE(events.find("event=policy_change"), std::string::npos);
    }
    return rows;
  };

  const auto tuned = run(true);
  const auto baseline = run(false);
  ASSERT_EQ(tuned.size(), baseline.size());
  ASSERT_EQ(tuned.size(), 4u * 1500u);
  for (size_t i = 0; i < tuned.size(); i++) {
    ASSERT_EQ(tuned[i].first, baseline[i].first) << "row " << i;
    ASSERT_EQ(tuned[i].second, baseline[i].second) << "row " << i;
  }
}

TEST(PolicySwitch, TieredToLeveledCatchUpConvergesLayout) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.policy = GrowthPolicyConfig::VTTierFull(4);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  // Tiered flushes stack runs: several flush rounds leave multi-run
  // levels that a leveling policy's byte triggers would never touch.
  constexpr int kKeys = 3000;
  for (int round = 0; round < 6; round++) {
    for (int i = round; i < kKeys; i += 6) {
      ASSERT_TRUE(db->Put(workload::FormatKey(i, 16),
                          "r" + std::to_string(round) + "-" +
                              std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  std::string levels;
  ASSERT_TRUE(db->GetProperty("talus.levels", &levels));
  int multi_run_levels = 0;
  for (int runs : RunsPerLevel(levels)) multi_run_levels += runs > 1;
  ASSERT_GT(multi_run_levels, 0) << levels;  // Precondition: tiered shape.

  std::vector<std::pair<std::string, std::string>> before;
  ASSERT_TRUE(db->Scan(Slice(), kKeys + 1, &before).ok());

  ASSERT_TRUE(db->ApplyPolicyConfig(GrowthPolicyConfig::VTLevelFull(4)).ok());

  // The catch-up pass consolidated every level to at most one run.
  ASSERT_TRUE(db->GetProperty("talus.levels", &levels));
  for (int runs : RunsPerLevel(levels)) EXPECT_LE(runs, 1) << levels;

  std::vector<std::pair<std::string, std::string>> after;
  ASSERT_TRUE(db->Scan(Slice(), kKeys + 1, &after).ok());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); i++) {
    ASSERT_EQ(before[i], after[i]) << "row " << i;
  }
}

TEST(PolicySwitch, TunedDesignSurvivesReopenViaManifest) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "v").ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
    ASSERT_TRUE(
        db->ApplyPolicyConfig(GrowthPolicyConfig::VTTierFull(8)).ok());
    ASSERT_EQ(db->CurrentPolicyConfig().Label(), "VT-Tier-Full");
    // The drift monitor prices the design that now runs.
    const obs::DriftSample drift = db->EvaluateModelDrift();
    EXPECT_EQ(drift.design,
              tuning::Design::Vertical(MergePolicy::kTiering, 8.0));
  }
  // Reopen with the ORIGINAL (leveled) options: under adaptive_tuning the
  // manifest's persisted config is authoritative, so the store comes back
  // tiered at T=8, not reset to the stale static choice.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    const GrowthPolicyConfig live = db->CurrentPolicyConfig();
    EXPECT_EQ(live.Label(), "VT-Tier-Full");
    EXPECT_DOUBLE_EQ(live.size_ratio, 8.0);
    const obs::DriftSample drift = db->EvaluateModelDrift();
    EXPECT_EQ(drift.design,
              tuning::Design::Vertical(MergePolicy::kTiering, 8.0));
    std::string value;
    ASSERT_TRUE(db->Get(workload::FormatKey(7, 16), &value).ok());
    EXPECT_EQ(value, "v");
  }
}

// A drift sample is priced under one whole design: while a switcher
// alternates the live policy under writer traffic, every concurrent
// evaluation reports the (merge, T) of one of the two designs, never the
// merge of one with the ratio of the other.
TEST(TuneConcurrency, EveryDriftSamplePricesOneWholeDesign) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.policy = GrowthPolicyConfig::VTLevelPart(6);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&db, &failed, &writers_done, w] {
      for (uint64_t i = 0; i < 4000; i++) {
        const uint64_t key = static_cast<uint64_t>(w) * 4000 + i;
        if (!db->Put(workload::FormatKey(key, 16), std::string(40, 'v'))
                 .ok()) {
          failed.store(true);
          break;
        }
      }
      writers_done.fetch_add(1);
    });
  }
  std::atomic<int> mixed{0};
  std::atomic<int> samples{0};
  std::thread evaluator([&db, &stop, &mixed, &samples] {
    while (!stop.load()) {
      const obs::DriftSample s = db->EvaluateModelDrift();
      const bool leveled_6 =
          s.design == tuning::Design::Vertical(MergePolicy::kLeveling, 6.0);
      const bool tiered_8 =
          s.design == tuning::Design::Vertical(MergePolicy::kTiering, 8.0);
      if (!leveled_6 && !tiered_8) mixed.fetch_add(1);
      samples.fetch_add(1);
    }
  });

  // Switch for as long as the writers run (and at least a few times).
  int switches = 0;
  while (switches < 8 || writers_done.load() < kWriters) {
    const GrowthPolicyConfig next = switches % 2 == 0
                                        ? GrowthPolicyConfig::VTTierFull(8)
                                        : GrowthPolicyConfig::VTLevelPart(6);
    if (!db->ApplyPolicyConfig(next).ok()) {
      ADD_FAILURE() << "switch " << switches << " failed";
      break;
    }
    switches++;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  evaluator.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(samples.load(), 0);
  EXPECT_EQ(mixed.load(), 0) << "of " << samples.load() << " samples over "
                             << switches << " switches";
}

// Vertiorizon redesigns its horizontal part at each clear, on a pool
// thread, and grows n once V2 overflows. Every drift sample a concurrent
// evaluator takes prices a design the policy held: the navigator's
// (merge, ℓ) for an n the resize rule reaches from the initial one, above
// the same V1 and V2.
TEST(TuneConcurrency, EveryDriftSamplePricesAVertiorizonDesignItHeld) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.policy = GrowthPolicyConfig::Vertiorizon(2.0);
  opts.policy.vrn_initial_capacity_buffers = 2;
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  const GrowthPolicyConfig& c = opts.policy;
  WorkloadMix mix = c.expected_mix;
  mix.Normalize();
  const tuning::Design initial = *db->EvaluateModelDrift().design;
  std::vector<tuning::Design> held;
  for (uint64_t n = 2; n < 1000000;
       n = static_cast<uint64_t>(
           std::ceil(static_cast<double>(n) * (1.0 + 1.0 / c.size_ratio)))) {
    const tuning::NavigatorResult pick = tuning::Navigate(
        n, BloomFalsePositiveRate(c.bloom_bits_per_key), c.page_entries, mix,
        ComposedPolicy::kMaxHorizontalLevels);
    tuning::Design d = initial;
    d.horizontal = tuning::HorizontalDesign{pick.merge, pick.levels, n};
    held.push_back(d);
  }
  ASSERT_EQ(initial, held.front());
  auto was_held = [&held](const std::optional<tuning::Design>& d) {
    return d && std::find(held.begin(), held.end(), *d) != held.end();
  };

  // The writers run until a sample shows n grown past its start (V2
  // overflowed and a clear resized the part), or for 2 x 40000 keys. Each
  // quiesces every 2000 keys: when flushes outpace merges, V1's one-file
  // merges into V2 fall behind (nothing stalls writers on V1), and V2 need
  // not overflow before the writes end.
  constexpr int kWriters = 2;
  constexpr uint64_t kKeysPerWriter = 40000;
  std::atomic<bool> stop{false};
  std::atomic<bool> grown{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&db, &failed, &grown, w] {
      for (uint64_t i = 0; i < kKeysPerWriter && !grown.load(); i++) {
        const uint64_t key = static_cast<uint64_t>(w) * kKeysPerWriter + i;
        if (!db->Put(workload::FormatKey(key, 16), std::string(40, 'v'))
                 .ok() ||
            (i % 2000 == 1999 && !db->FlushMemTable().ok())) {
          failed.store(true);
          break;
        }
      }
    });
  }
  std::atomic<int> foreign{0};
  std::atomic<int> samples{0};
  std::thread evaluator([&] {
    do {
      const std::optional<tuning::Design> d = db->EvaluateModelDrift().design;
      if (!was_held(d)) {
        foreign.fetch_add(1);
      } else if (d->horizontal->buffers > 2) {
        grown.store(true);
      }
      samples.fetch_add(1);
    } while (!stop.load());
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  evaluator.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(grown.load()) << "n never grew in " << samples.load()
                            << " samples";
  EXPECT_EQ(foreign.load(), 0) << "of " << samples.load() << " samples";
}

// --------------------------------------------- Sense→navigate→act loop

TEST(TuneEndToEnd, DriftRetuneAndPolicyChangeReconstructibleFromTrace) {
  const std::string trace_path = "/tmp/talus_tune_trace_" +
                                 std::to_string(::getpid()) + ".jsonl";
  std::remove(trace_path.c_str());
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 0;  // Test-paced: RetuneNow below.
  opts.tune_min_window_ops = 64;
  opts.trace_file_path = trace_path;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_NE(db->adaptive_tuner(), nullptr);

  // Window 1 — read-heavy baseline. Leveling is already the right design,
  // so the tuner holds (this also sets the mix-shift baseline).
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "base").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->EvaluateModelDrift();  // Consume the load window unjudged.
  std::string value;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i * 2 % 1000, 16), &value).ok());
  }
  tune::TuneDecision d = db->RetuneNow();
  EXPECT_FALSE(d.retune()) << d.ActionName();

  // Window 2 — the workload flips write-heavy: the drift monitor fires on
  // the mix shift AND the navigator finds tiering beats leveling by more
  // than the band, so the same tick senses, emits, and acts.
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "flip").ok());
  }
  d = db->RetuneNow();
  ASSERT_TRUE(d.retune()) << d.ActionName();
  EXPECT_EQ(d.merge, MergePolicy::kTiering);
  EXPECT_EQ(db->CurrentPolicyConfig().merge, MergePolicy::kTiering);

  const tune::TunerStats stats = db->adaptive_tuner()->GetStats();
  EXPECT_GE(stats.drift_events, 1u);
  EXPECT_EQ(stats.switches_applied, 1u);
  EXPECT_EQ(stats.last_design, db->CurrentPolicyConfig().Label());

  // The property renders the loop's state...
  std::string prop;
  ASSERT_TRUE(db->GetProperty("talus.tune", &prop));
  EXPECT_NE(prop.find("enabled=1"), std::string::npos) << prop;
  EXPECT_NE(prop.find("switches=1"), std::string::npos) << prop;

  // ...and the whole episode reconstructs from the JSONL trace alone:
  // an amp_sample window, the model_drift verdict, then the
  // policy_change installing the tiered design.
  db.reset();  // Flush the trace.
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.is_open());
  std::string line;
  long amp_line = -1, drift_line = -1, change_line = -1, n = 0;
  std::string change_json;
  while (std::getline(trace, line)) {
    if (line.find("\"event\": \"amp_sample\"") != std::string::npos &&
        amp_line < 0) {
      amp_line = n;
    }
    if (line.find("\"event\": \"model_drift\"") != std::string::npos &&
        drift_line < 0) {
      drift_line = n;
    }
    if (line.find("\"event\": \"policy_change\"") != std::string::npos) {
      change_line = n;
      change_json = line;
    }
    n++;
  }
  std::remove(trace_path.c_str());
  ASSERT_GE(amp_line, 0);
  ASSERT_GE(drift_line, 0);
  ASSERT_GE(change_line, 0);
  EXPECT_LT(amp_line, change_line);
  EXPECT_LT(drift_line, change_line);
  // a=1 encodes tiering; b carries the new size ratio in milli-units.
  EXPECT_NE(change_json.find("\"a\": 1"), std::string::npos) << change_json;
}

// A scan-only window is traffic: it counts toward the tuner's window
// operations like any lookup or update, so it is navigated, not skipped.
TEST(TuneEndToEnd, ScanOnlyWindowIsNotThin) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 0;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "v").ok());
  }
  db->EvaluateModelDrift();  // Consume the load window.
  std::vector<std::pair<std::string, std::string>> rows;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Scan(workload::FormatKey(i, 16), 10, &rows).ok());
  }
  const tune::TuneDecision d = db->RetuneNow();
  EXPECT_NE(d.action, tune::TuneDecision::Action::kThinWindow);
  EXPECT_EQ(db->adaptive_tuner()->GetStats().thin_windows, 0u);
}

TEST(TuneSharded, OnlyTheDriftingShardRetunes) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 0;  // No tune task: TuneNow below.
  opts.tune_min_window_ops = 64;
  opts.shard_count = 2;
  constexpr uint64_t kKeySpace = 2000;
  opts.shard_split_points.push_back(workload::FormatKey(kKeySpace / 2, 16));
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  ASSERT_NE(db->shard(0)->adaptive_tuner(), nullptr);
  ASSERT_NE(db->shard(1)->adaptive_tuner(), nullptr);

  // Preload both halves, then consume the write-heavy load window
  // sense-only so it doesn't count against either shard's navigator.
  for (uint64_t k = 0; k < kKeySpace; k++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(k, 16), "seed").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->shard(0)->EvaluateModelDrift();
  db->shard(1)->EvaluateModelDrift();

  // Shard 0 turns write-heavy; shard 1 stays read-heavy (leveling is
  // already its best design). Two rounds so cooldowns can't mask a wrong
  // switch on shard 1.
  std::string value;
  for (int round = 0; round < 2; round++) {
    for (uint64_t i = 0; i < 1500; i++) {
      ASSERT_TRUE(
          db->Put(workload::FormatKey(i % (kKeySpace / 2), 16), "hot").ok());
    }
    for (uint64_t i = 0; i < 1500; i++) {
      const uint64_t k = kKeySpace / 2 + i * 7 % (kKeySpace / 2);
      ASSERT_TRUE(db->Get(workload::FormatKey(k, 16), &value).ok());
    }
    db->TuneNow();
  }

  EXPECT_EQ(db->shard(0)->CurrentPolicyConfig().merge, MergePolicy::kTiering)
      << "write-heavy shard should have switched to tiering";
  EXPECT_EQ(db->shard(1)->CurrentPolicyConfig().merge,
            MergePolicy::kLeveling)
      << "read-heavy shard had no reason to move";
  EXPECT_GE(db->shard(0)->adaptive_tuner()->GetStats().switches_applied, 1u);
  EXPECT_EQ(db->shard(1)->adaptive_tuner()->GetStats().switches_applied, 0u);

  // The per-shard breakdown and the fleet Prometheus families surface it.
  std::string prop;
  ASSERT_TRUE(db->GetProperty("talus.tune", &prop));
  EXPECT_NE(prop.find("-- shard 0 --"), std::string::npos) << prop;
  EXPECT_NE(prop.find("-- shard 1 --"), std::string::npos) << prop;
  const std::string metrics = db->DumpPrometheus();
  EXPECT_NE(metrics.find("talus_tune_switches_total"), std::string::npos);
  EXPECT_NE(metrics.find("talus_tune_ticks_total"), std::string::npos);
}

// ------------------------------------------------------------ One ticker

size_t ReadThreadCount() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') n++;
  }
  closedir(dir);
  return n;
}

// This process's thread count once it holds still: a thread joined by an
// earlier test can linger in /proc for a moment after its join returns.
// A throwaway thread goes first because a sanitizer runtime may spawn its
// own helper thread at the process's first thread creation.
size_t CountThreads() {
  std::thread([] {}).join();
  size_t last = ReadThreadCount();
  for (int stable = 0, tries = 0; stable < 3 && tries < 200; tries++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t now = ReadThreadCount();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  return last;
}

// Polls until every tuner has ticked and the snapshotter has sampled.
void WaitForTicks(const std::vector<tune::AdaptiveTuner*>& tuners,
                  obs::StatsSnapshotter* snapshotter) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto done = [&] {
    for (tune::AdaptiveTuner* t : tuners) {
      if (t->GetStats().ticks == 0) return false;
    }
    return snapshotter->TotalSamples() > 0;
  };
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(done()) << "the ticker never ran both tasks";
}

TEST(OneTicker, StandaloneDbRunsOneTimerThreadForBothTasks) {
  if (CountThreads() == 0) GTEST_SKIP() << "no /proc/self/task";
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());  // kInline: no pool.
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 5;
  opts.stats_snapshot_interval_ms = 5;
  const size_t before = CountThreads();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_EQ(CountThreads() - before, 1u);
  ASSERT_NE(db->adaptive_tuner(), nullptr);
  ASSERT_NE(db->stats_snapshotter(), nullptr);
  WaitForTicks({db->adaptive_tuner()}, db->stats_snapshotter());
}

TEST(OneTicker, ShardedDbRunsOneTimerThreadForBothTasks) {
  if (CountThreads() == 0) GTEST_SKIP() << "no /proc/self/task";
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 2;
  opts.shard_count = 2;
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 5;
  opts.stats_snapshot_interval_ms = 5;
  const size_t before = CountThreads();
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  // The shared pool, plus exactly one timer thread for the whole store.
  EXPECT_EQ(CountThreads() - before, 2u + 1u);
  ASSERT_NE(db->stats_snapshotter(), nullptr);
  std::vector<tune::AdaptiveTuner*> tuners;
  for (size_t i = 0; i < db->shard_count(); i++) {
    tuners.push_back(db->shard(i)->adaptive_tuner());
    ASSERT_NE(tuners.back(), nullptr);
  }
  WaitForTicks(tuners, db->stats_snapshotter());
}

}  // namespace
}  // namespace talus
