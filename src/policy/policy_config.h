// GrowthPolicyConfig: declarative description of a growth scheme, mirroring
// the paper's design space (§3–§5). A factory turns a config into a live
// GrowthPolicy. Every method of the roster (GrowthPolicyNames, 13 names) is
// expressible here; the named presets below match the paper's baseline
// labels (Figure 7).
#ifndef TALUS_POLICY_POLICY_CONFIG_H_
#define TALUS_POLICY_POLICY_CONFIG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "policy/growth_policy.h"
#include "tuning/workload_mix.h"

namespace talus {

enum class GrowthScheme {
  kVertical,            // §3: fixed capacities B·T^i, growing level count.
  kHorizontalLeveling,  // §3 Algorithm 1 (+ optional §5.3 skew δ).
  kHorizontalTiering,   // §4 Algorithm 2.
  kLazyLeveling,        // Dostoevsky baseline (+ optional §5.4 embedding).
  kUniversal,           // RocksDB universal-compaction analog.
  kVertiorizon,         // §5: hybrid horizontal + vertical.
};

enum class Granularity { kFull, kPartial };
enum class FilePick { kRoundRobin, kOldestSmallestSeqFirst };

struct GrowthPolicyConfig {
  GrowthScheme scheme = GrowthScheme::kVertical;

  // ---- Vertical scheme ----
  MergePolicy merge = MergePolicy::kLeveling;
  Granularity granularity = Granularity::kPartial;
  double size_ratio = 6.0;  // T.
  // RocksDB-Tuned: anchor capacities to the last level so it is always full.
  bool dynamic_level_bytes = false;
  FilePick file_pick = FilePick::kRoundRobin;

  // ---- Horizontal schemes ----
  int horizontal_levels = 3;  // ℓ.
  // HR-Tier: expected total data size N (bytes) for the counter init
  // (Algorithm 2 line 2). 0 means "unknown": start small. Whenever the
  // counters drain, they re-arm at k+1, one above the k they started at.
  uint64_t horizontal_data_size = 0;
  // §5.3: relax the first-level trigger by δ derived from skewness α (Eq. 6).
  bool skew_adaptation = false;
  double skew_alpha = 0.0;  // α = U_h / B; 0 disables even when enabled.

  // ---- Lazy-leveling ----
  int lazy_levels = 4;  // L (total levels; largest is leveled).
  bool lazy_embed_vertiorizon = false;  // §5.4 embedding.

  // ---- Universal ----
  int universal_run_trigger = 4;
  double universal_max_size_amp = 2.0;

  // ---- Vertiorizon ----
  int vrn_initial_capacity_buffers = 16;  // n: horizontal capacity in buffers.
  bool vrn_self_tuning = true;
  // Fixed design when self-tuning is off (VRN-Level / VRN-Tier baselines).
  MergePolicy vrn_fixed_merge = MergePolicy::kTiering;
  int vrn_fixed_levels = 2;
  bool vrn_optimize_ratio = true;  // T' = T/√2 (Eq. 2).
  // Workload mix used by the §5.2 navigator. When measure_mix is true the
  // policy re-estimates the mix from observed operations at every
  // horizontal-part clearing instead.
  WorkloadMix expected_mix;
  bool vrn_measure_mix = false;

  // ---- Shared ----
  // False positive rate of the Bloom filters, fed to the cost model.
  double bloom_bits_per_key = 5.0;
  // Page size in entries, the §5.2 navigator's P. The engine never sets
  // it (the figure benches do); the drift sample derives its own P from
  // block_size / mean entry size (DESIGN.md §6.7 records the two).
  double page_entries = 4.0;

  std::string Label() const;

  // ---- Named presets matching the paper's Figure 7 methods ----
  static GrowthPolicyConfig VTLevelPart(double T = 6.0);
  static GrowthPolicyConfig VTLevelFull(double T = 6.0);
  static GrowthPolicyConfig VTTierPart(double T = 6.0);
  static GrowthPolicyConfig VTTierFull(double T = 6.0);
  static GrowthPolicyConfig RocksDBTuned();
  static GrowthPolicyConfig Universal();
  static GrowthPolicyConfig HRLevel(int levels = 3);
  static GrowthPolicyConfig HRTier(int levels = 3, uint64_t data_size = 0);
  static GrowthPolicyConfig VRNLevel(double T = 6.0);
  static GrowthPolicyConfig VRNTier(double T = 6.0);
  static GrowthPolicyConfig Vertiorizon(double T = 6.0,
                                        WorkloadMix mix = WorkloadMix());
  static GrowthPolicyConfig LazyLeveling(double T = 6.0, int levels = 4,
                                         bool embed = false);
};

/// Resolves a command-line policy name (vt-level-part, ..., lazy-vrn; see
/// GrowthPolicyNames) to its preset with size ratio T. `data_bytes` seeds
/// HR-Tier's expected data size (0 = unknown). Returns false, leaving
/// *config untouched, when the name is not in the roster.
bool GrowthPolicyConfigByName(const std::string& name, double T,
                              uint64_t data_bytes, GrowthPolicyConfig* config);
/// Every name GrowthPolicyConfigByName accepts, '|'-separated.
std::string GrowthPolicyNames();

/// Instantiates the policy described by `config`.
std::unique_ptr<GrowthPolicy> CreateGrowthPolicy(
    const GrowthPolicyConfig& config, const PolicyContext& ctx);

/// Round-trips a full GrowthPolicyConfig through a single-line text form
/// (versioned, field-ordered). The manifest persists this next to the
/// policy name so a store whose policy was retuned at runtime
/// (DB::ApplyPolicyConfig, DESIGN.md §9) can re-resolve its *current*
/// design at reopen instead of failing the policy-name check against the
/// statically configured one.
std::string EncodeGrowthPolicyConfig(const GrowthPolicyConfig& config);
bool DecodeGrowthPolicyConfig(const std::string& encoded,
                              GrowthPolicyConfig* config);

}  // namespace talus

#endif  // TALUS_POLICY_POLICY_CONFIG_H_
