// Ablation: adaptive per-shard growth-policy tuning (DESIGN.md §9).
//
// Two shards, two phases. In phase 0 the low half of the key space is
// write-heavy while the high half is read-heavy; in phase 1 the mix FLIPS
// per shard. A static policy is therefore right for one phase and wrong
// for the other on each shard; the adaptive tuner senses the measured mix
// each window and switches the drifting shard's policy at runtime
// (leveling for the read-heavy phase, tiering for the write-heavy one)
// while the other shard holds — so the interesting rows are the per-phase
// kops/p99/amp of {static-leveled, static-tiered, adaptive}, where
// adaptive should track whichever static variant is best for that phase.
//
// The driver paces the tuner deterministically: tune_interval_ms stays 0
// and ShardedDB::TuneNow() runs every `tune_every` operations, so runs are
// reproducible and CI-comparable. Each phase's kops is measured over its
// steady-state window (the first quarter is the adaptation budget — see
// RunPhase). --check additionally enforces the paper's claim (nightly
// gate): steady-state adaptive kops >= (1 - slack) x the best static
// variant in BOTH phases.
//
// --smoke shrinks the sweep to a CI-friendly run; --json PATH emits the
// rows for compare_bench.py (BENCH_adaptive.json). Rows carry `tuner` and
// `phase` columns — compare_bench identity includes them so static and
// adaptive rows never collapse into one series.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

constexpr uint64_t kKeySpace = 40000;  // Split in half across 2 shards.
constexpr int kShards = 2;

struct BenchConfig {
  bool smoke = false;
  bool use_mem_env = false;
  bool check = false;
  // The paper's claim is 10%; smoke runs are too short/noisy for that, so
  // main() widens the band to 25% when --smoke is set.
  double check_slack = 0.10;
  std::string json_path;
  std::string trace_prefix;  // --trace P: per-variant JSONL at P.<i>.jsonl
};

struct Variant {
  const char* tuner;  // "static-leveled" | "static-tiered" | "adaptive"
  bool adaptive;
  GrowthPolicyConfig start;
};

struct PhaseResult {
  double kops_per_sec = 0;
  double wall_seconds = 0;
  double get_p99_us = 0;
  double write_amp = 0;
  double read_amp = 0;
  uint64_t retunes = 0;
  uint64_t switches = 0;
  std::string designs;  // per-shard labels after the phase, "a|b"
};

uint64_t PhaseOps(const BenchConfig& cfg) {
  // Smoke's timed window is (ops - ops/4); much below ~36k timed ops the
  // per-phase wall time drops under ~0.3s and scheduler noise swamps the
  // shape the ±25% normalized gate compares. CI also passes --mem for the
  // same reason.
  return cfg.smoke ? 48000 : 160000;
}

std::string RunPath(const BenchConfig& cfg, int run_index) {
  if (cfg.use_mem_env) return "/db";
  return "/tmp/talus_bench_adaptive_" +
         std::to_string(static_cast<unsigned>(::getpid())) + "_" +
         std::to_string(run_index);
}

void CleanupTree(Env* env, const std::string& path) {
  std::vector<std::string> children;
  if (!env->GetChildren(path, &children).ok()) return;
  for (const auto& name : children) {
    const std::string child = path + "/" + name;
    if (env->RemoveFile(child).ok()) continue;
    CleanupTree(env, child);  // shard-<i> subdirectory.
  }
}

// One phase: interleaved per-shard op streams with per-shard write
// fractions. write_frac[s] is the Put share of shard s's ops; the rest
// are Gets over that shard's half of the key space.
//
// The first quarter of each phase is an adaptation window: the tuner's
// windowed mix estimate still blends the previous phase, and the policy
// switch plus its catch-up compactions land inside it. That window is
// excluded from the timed region — the gated kops measure the steady state
// AFTER adaptation, which is the paper's claim (the adapted design tracks
// the best static one; the transition cost is real but bounded, and the
// JSONL trace + retune counters keep it observable). Static variants skip
// the identical prefix so the comparison stays apples-to-apples. Returns
// the steady-window wall seconds; the caller divides by ops - warmup_ops.
double RunPhase(shard::ShardedDB* db, uint64_t ops, uint64_t warmup_ops,
                const double write_frac[2], uint64_t tune_every,
                bool adaptive, Random* rnd) {
  const std::string value(100, 'a');
  std::string got;
  auto steady_start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; i++) {
    if (i == warmup_ops) steady_start = std::chrono::steady_clock::now();
    const int s = static_cast<int>(i & 1);  // Alternate shards evenly.
    const uint64_t base = s == 0 ? 0 : kKeySpace / 2;
    const std::string key =
        workload::FormatKey(base + rnd->Uniform(kKeySpace / 2), 16);
    if (rnd->Uniform(1000) < static_cast<uint32_t>(write_frac[s] * 1000)) {
      db->Put(key, value);
    } else {
      db->Get(key, &got);
    }
    if (adaptive && tune_every != 0 && (i + 1) % tune_every == 0) {
      db->TuneNow();
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             end - steady_start)
      .count();
}

void CollectPhase(shard::ShardedDB* db, const obs::AmpSnapshot& amp_before,
                  PhaseResult* r) {
  const obs::AmpSnapshot amp = db->AggregatedAmpSnapshot();
  // Per-phase amplification from the cumulative counter deltas.
  uint64_t written = 0, written_before = 0;
  for (int i = 0; i < amp.num_levels; i++) {
    written += amp.levels[i].flush_bytes_written +
               amp.levels[i].compaction_bytes_written;
  }
  for (int i = 0; i < amp_before.num_levels; i++) {
    written_before += amp_before.levels[i].flush_bytes_written +
                      amp_before.levels[i].compaction_bytes_written;
  }
  uint64_t probed = 0, probed_before = 0;
  for (int i = 0; i < amp.num_levels; i++) {
    probed += amp.levels[i].files_probed;
  }
  for (int i = 0; i < amp_before.num_levels; i++) {
    probed_before += amp_before.levels[i].files_probed;
  }
  const uint64_t payload =
      amp.user_payload_bytes - amp_before.user_payload_bytes;
  const uint64_t lookups = amp.lookups - amp_before.lookups;
  r->write_amp = payload == 0 ? 0
                              : static_cast<double>(written - written_before) /
                                    static_cast<double>(payload);
  r->read_amp = lookups == 0 ? 0
                             : static_cast<double>(probed - probed_before) /
                                   static_cast<double>(lookups);
  const std::vector<Histogram> lat = db->GetLatencyHistograms();
  r->get_p99_us = lat[static_cast<size_t>(obs::OpType::kGet)].Percentile(99);
  uint64_t retunes = 0, switches = 0;
  for (size_t i = 0; i < db->shard_count(); i++) {
    DB* sh = db->shard(i);
    if (sh->adaptive_tuner() != nullptr) {
      const tune::TunerStats ts = sh->adaptive_tuner()->GetStats();
      retunes += ts.retunes;
      switches += ts.switches_applied;
    }
    if (!r->designs.empty()) r->designs += "|";
    r->designs += sh->CurrentPolicyConfig().Label();
  }
  r->retunes = retunes;
  r->switches = switches;
}

std::vector<PhaseResult> RunOne(const BenchConfig& cfg, const Variant& v,
                                int run_index) {
  std::unique_ptr<Env> owned_env;
  Env* env;
  if (cfg.use_mem_env) {
    owned_env = NewMemEnv();
    env = owned_env.get();
  } else {
    env = Env::Default();
  }

  DbOptions opts;
  opts.env = env;
  opts.path = RunPath(cfg, run_index);
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  // Small enough that the read-heavy shard's working set does not fit:
  // lookups pay real block loads, so read amplification (the thing
  // leveling buys down) shows up in wall-clock, not just in counters.
  opts.block_cache_bytes = 1 << 20;
  opts.policy = v.start;
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 4;
  opts.shard_count = kShards;
  opts.shard_split_points.push_back(workload::FormatKey(kKeySpace / 2, 16));
  opts.adaptive_tuning = v.adaptive;
  opts.tune_interval_ms = 0;  // Driver-paced: TuneNow() below.
  opts.tune_min_window_ops = 512;
  if (!cfg.trace_prefix.empty()) {
    opts.trace_file_path =
        cfg.trace_prefix + "." + std::to_string(run_index) + ".jsonl";
  }

  std::unique_ptr<shard::ShardedDB> db;
  Status s = shard::ShardedDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  // Preload: two full passes over the key space, so phase 0 starts on an
  // AGED tree — every key present, update depth, several populated levels.
  // On a freshly-seeded shallow tree read amplification is ~1 and tiering
  // dominates every mix, which would make the phase-0 comparison
  // uninformative; the paper's trade-off only exists once reads cost
  // something.
  {
    for (int pass = 0; pass < 2; pass++) {
      const std::string value(100, static_cast<char>('a' + pass));
      for (uint64_t k = 0; k < kKeySpace; k++) {
        db->Put(workload::FormatKey(k, 16), value);
      }
    }
    db->FlushMemTable();
    // Drain the preload from the tuner's sensing window so phase 0 starts
    // from a clean mix estimate. The first tick navigates on the preload's
    // pure-update mix (and may legitimately retune for the bulk load —
    // that is the tuner doing its job); the second sees an empty window
    // and holds, leaving phase-0 ticks to measure only phase-0 ops.
    // Without this the first phase-0 windows blend ~80k preload puts, the
    // read-heavy shard flaps tiered-then-back, and the double migration
    // churn dominates the phase.
    if (v.adaptive) {
      db->TuneNow();
      db->TuneNow();
    }
  }

  const uint64_t ops = PhaseOps(cfg);
  // Adaptation budget: the first quarter of each phase. The tick cadence
  // must give the tuner several non-thin windows inside that budget (a
  // retune needs a clean window plus the cooldown), so full runs tick
  // every ops/32 while smoke keeps 1500 ops/tick — any finer and the
  // 512-op per-shard window minimum turns every smoke tick into a
  // thin-window hold.
  const uint64_t warmup_ops = ops / 4;
  const uint64_t tune_every = std::max<uint64_t>(ops / 32, 1500);
  Random rnd(4200 + run_index);
  std::vector<PhaseResult> phases;
  for (int phase = 0; phase < 2; phase++) {
    // Phase 0: shard 0 write-heavy (90% puts), shard 1 read-heavy (10%).
    // Phase 1 flips both.
    const double write_frac[2] = {phase == 0 ? 0.9 : 0.1,
                                  phase == 0 ? 0.1 : 0.9};
    const obs::AmpSnapshot amp_before = db->AggregatedAmpSnapshot();
    PhaseResult r;
    r.wall_seconds = RunPhase(db.get(), ops, warmup_ops, write_frac,
                              tune_every, v.adaptive, &rnd);
    r.kops_per_sec =
        static_cast<double>(ops - warmup_ops) / r.wall_seconds / 1000;
    CollectPhase(db.get(), amp_before, &r);
    phases.push_back(std::move(r));
  }

  const std::string path = opts.path;
  db.reset();
  if (!cfg.use_mem_env) CleanupTree(env, path);
  return phases;
}

}  // namespace
}  // namespace talus

int main(int argc, char** argv) {
  using namespace talus;

  BenchConfig cfg;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--mem") == 0) {
      cfg.use_mem_env = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      cfg.check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      cfg.trace_prefix = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--mem] [--check] [--json PATH] "
                   "[--trace PREFIX]\n",
                   argv[0]);
      return 1;
    }
  }
  if (cfg.smoke) cfg.check_slack = 0.25;

  // The start policy is T=6 full vertical; adaptive starts leveled (the
  // WRONG shape for phase 0's write-heavy shard) so the ablation exercises
  // a real runtime switch, not a lucky initial guess.
  const std::vector<Variant> variants = {
      {"static-leveled", false, GrowthPolicyConfig::VTLevelFull(6)},
      {"static-tiered", false, GrowthPolicyConfig::VTTierFull(6)},
      {"adaptive", true, GrowthPolicyConfig::VTLevelFull(6)},
  };

  std::printf("# Adaptive-tuning ablation: %llu ops/phase (first quarter = "
              "untimed adaptation window), 2 shards, 2 flipped phases, "
              "100B values, %s env\n",
              static_cast<unsigned long long>(PhaseOps(cfg)),
              cfg.use_mem_env ? "mem" : "posix");
  std::printf("%-15s %6s %9s %8s %8s %9s %8s %9s  %s\n", "tuner", "phase",
              "kops/s", "get_p99", "w_amp", "r_amp", "retunes", "switches",
              "designs");

  std::string json = "{\"bench\":\"ablation_adaptive\",\"smoke\":" +
                     std::string(cfg.smoke ? "true" : "false") +
                     ",\"rows\":[\n";
  bool first_row = true;
  int run_index = 0;
  // kops[variant][phase] for the --check gate.
  std::vector<std::vector<double>> kops;
  for (const auto& v : variants) {
    const std::vector<PhaseResult> phases = RunOne(cfg, v, run_index++);
    kops.emplace_back();
    for (size_t p = 0; p < phases.size(); p++) {
      const PhaseResult& r = phases[p];
      kops.back().push_back(r.kops_per_sec);
      std::printf("%-15s %6zu %9.1f %8.0f %8.2f %9.2f %8llu %9llu  %s\n",
                  v.tuner, p, r.kops_per_sec, r.get_p99_us, r.write_amp,
                  r.read_amp, static_cast<unsigned long long>(r.retunes),
                  static_cast<unsigned long long>(r.switches),
                  r.designs.c_str());
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s{\"tuner\":\"%s\",\"phase\":%zu,\"policy\":\"%s\","
          "\"shards\":%d,\"writers\":1,\"kops_per_sec\":%.1f,"
          "\"wall_seconds\":%.3f,\"lat_p99_us\":%.1f,"
          "\"write_amp\":%.3f,\"read_amp\":%.3f,"
          "\"retunes\":%llu,\"switches\":%llu,\"final_designs\":\"%s\"}",
          first_row ? "" : ",\n", v.tuner, p, v.start.Label().c_str(),
          kShards, r.kops_per_sec, r.wall_seconds, r.get_p99_us, r.write_amp,
          r.read_amp, static_cast<unsigned long long>(r.retunes),
          static_cast<unsigned long long>(r.switches), r.designs.c_str());
      json += row;
      first_row = false;
    }
    std::printf("\n");
  }
  json += "\n]}\n";

  if (!cfg.json_path.empty()) {
    std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", cfg.json_path.c_str());
  }

  if (cfg.check && kops.size() == 3) {
    // Adaptive must track the best static variant in BOTH phases.
    bool ok = true;
    for (size_t p = 0; p < 2; p++) {
      const double best = std::max(kops[0][p], kops[1][p]);
      const double floor = best * (1.0 - cfg.check_slack);
      if (kops[2][p] < floor) {
        std::fprintf(stderr,
                     "CHECK FAILED phase %zu: adaptive %.1f kops < %.1f "
                     "(best static %.1f, slack %.0f%%)\n",
                     p, kops[2][p], floor, best, cfg.check_slack * 100);
        ok = false;
      }
    }
    if (!ok) return 2;
    std::printf("check passed: adaptive within %.0f%% of best static in "
                "both phases\n",
                cfg.check_slack * 100);
  }
  return 0;
}
