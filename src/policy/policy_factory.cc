// Factory and named presets for the growth policies (the paper's Figure 7
// method roster).
#include <cstdio>

#include "policy/composed_policy.h"
#include "policy/policy_config.h"
#include "policy/universal_policy.h"

namespace talus {

std::string GrowthPolicyConfig::Label() const {
  switch (scheme) {
    case GrowthScheme::kVertical:
      if (dynamic_level_bytes) return "RocksDB-Tuned";
      if (merge == MergePolicy::kLeveling) {
        return granularity == Granularity::kPartial ? "VT-Level-Part"
                                                    : "VT-Level-Full";
      }
      return granularity == Granularity::kPartial ? "VT-Tier-Part"
                                                  : "VT-Tier-Full";
    case GrowthScheme::kHorizontalLeveling:
      return "HR-Level";
    case GrowthScheme::kHorizontalTiering:
      return "HR-Tier";
    case GrowthScheme::kLazyLeveling:
      return lazy_embed_vertiorizon ? "Lazy-Level+VRN" : "Lazy-Level";
    case GrowthScheme::kUniversal:
      return "Universal";
    case GrowthScheme::kVertiorizon:
      if (vrn_self_tuning) return "Vertiorizon";
      return vrn_fixed_merge == MergePolicy::kTiering ? "VRN-Tier"
                                                      : "VRN-Level";
  }
  return "unknown";
}

GrowthPolicyConfig GrowthPolicyConfig::VTLevelPart(double T) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kVertical;
  c.merge = MergePolicy::kLeveling;
  c.granularity = Granularity::kPartial;
  c.size_ratio = T;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::VTLevelFull(double T) {
  GrowthPolicyConfig c = VTLevelPart(T);
  c.granularity = Granularity::kFull;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::VTTierPart(double T) {
  GrowthPolicyConfig c = VTLevelPart(T);
  c.merge = MergePolicy::kTiering;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::VTTierFull(double T) {
  GrowthPolicyConfig c = VTTierPart(T);
  c.granularity = Granularity::kFull;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::RocksDBTuned() {
  // Mirrors the paper's tuned baseline: dynamic level bytes, T = 10,
  // kOldestSmallestSeqFirst file picking, partial leveling.
  GrowthPolicyConfig c = VTLevelPart(10.0);
  c.dynamic_level_bytes = true;
  c.file_pick = FilePick::kOldestSmallestSeqFirst;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::Universal() {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kUniversal;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::HRLevel(int levels) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kHorizontalLeveling;
  c.horizontal_levels = levels;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::HRTier(int levels,
                                              uint64_t data_size) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kHorizontalTiering;
  c.horizontal_levels = levels;
  c.horizontal_data_size = data_size;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::VRNLevel(double T) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kVertiorizon;
  c.size_ratio = T;
  c.vrn_self_tuning = false;
  c.vrn_fixed_merge = MergePolicy::kLeveling;
  c.vrn_fixed_levels = 2;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::VRNTier(double T) {
  GrowthPolicyConfig c = VRNLevel(T);
  c.vrn_fixed_merge = MergePolicy::kTiering;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::Vertiorizon(double T,
                                                   WorkloadMix mix) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kVertiorizon;
  c.size_ratio = T;
  c.vrn_self_tuning = true;
  c.expected_mix = mix;
  return c;
}

GrowthPolicyConfig GrowthPolicyConfig::LazyLeveling(double T, int levels,
                                                    bool embed) {
  GrowthPolicyConfig c;
  c.scheme = GrowthScheme::kLazyLeveling;
  c.size_ratio = T;
  c.lazy_levels = levels;
  c.lazy_embed_vertiorizon = embed;
  return c;
}

namespace {

struct NamedPolicy {
  const char* name;
  GrowthPolicyConfig (*make)(double T, uint64_t data_bytes);
};

using C = GrowthPolicyConfig;
constexpr NamedPolicy kNamedPolicies[] = {
    {"vt-level-part", [](double T, uint64_t) { return C::VTLevelPart(T); }},
    {"vt-level-full", [](double T, uint64_t) { return C::VTLevelFull(T); }},
    {"vt-tier-part", [](double T, uint64_t) { return C::VTTierPart(T); }},
    {"vt-tier-full", [](double T, uint64_t) { return C::VTTierFull(T); }},
    {"rocksdb-tuned", [](double, uint64_t) { return C::RocksDBTuned(); }},
    {"universal", [](double, uint64_t) { return C::Universal(); }},
    {"hr-level", [](double, uint64_t) { return C::HRLevel(3); }},
    {"hr-tier", [](double, uint64_t n) { return C::HRTier(3, n); }},
    {"vrn-level", [](double T, uint64_t) { return C::VRNLevel(T); }},
    {"vrn-tier", [](double T, uint64_t) { return C::VRNTier(T); }},
    {"vertiorizon", [](double T, uint64_t) { return C::Vertiorizon(T); }},
    {"lazy", [](double T, uint64_t) { return C::LazyLeveling(T, 4, false); }},
    {"lazy-vrn",
     [](double T, uint64_t) { return C::LazyLeveling(T, 4, true); }},
};

}  // namespace

bool GrowthPolicyConfigByName(const std::string& name, double T,
                              uint64_t data_bytes, GrowthPolicyConfig* config) {
  for (const NamedPolicy& p : kNamedPolicies) {
    if (name == p.name) {
      *config = p.make(T, data_bytes);
      return true;
    }
  }
  return false;
}

std::string GrowthPolicyNames() {
  std::string names;
  for (const NamedPolicy& p : kNamedPolicies) {
    if (!names.empty()) names += '|';
    names += p.name;
  }
  return names;
}

std::string EncodeGrowthPolicyConfig(const GrowthPolicyConfig& c) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "v1 scheme=%d merge=%d granularity=%d size_ratio=%.9g dyn=%d pick=%d "
      "hlevels=%d hdata=%llu skew=%d alpha=%.9g lazy=%d embed=%d "
      "urun=%d usa=%.9g vcap=%d vself=%d vmerge=%d vlevels=%d vopt=%d "
      "mix=%.9g,%.9g,%.9g vmeasure=%d bits=%.9g pentries=%.9g",
      static_cast<int>(c.scheme), static_cast<int>(c.merge),
      static_cast<int>(c.granularity), c.size_ratio,
      c.dynamic_level_bytes ? 1 : 0, static_cast<int>(c.file_pick),
      c.horizontal_levels,
      static_cast<unsigned long long>(c.horizontal_data_size),
      c.skew_adaptation ? 1 : 0, c.skew_alpha, c.lazy_levels,
      c.lazy_embed_vertiorizon ? 1 : 0, c.universal_run_trigger,
      c.universal_max_size_amp, c.vrn_initial_capacity_buffers,
      c.vrn_self_tuning ? 1 : 0, static_cast<int>(c.vrn_fixed_merge),
      c.vrn_fixed_levels, c.vrn_optimize_ratio ? 1 : 0,
      c.expected_mix.updates, c.expected_mix.point_lookups,
      c.expected_mix.range_lookups, c.vrn_measure_mix ? 1 : 0,
      c.bloom_bits_per_key, c.page_entries);
  return buf;
}

bool DecodeGrowthPolicyConfig(const std::string& encoded,
                              GrowthPolicyConfig* config) {
  int scheme, merge, granularity, dyn, pick, hlevels, skew, lazy, embed;
  int urun, vcap, vself, vmerge, vlevels, vopt, vmeasure;
  unsigned long long hdata;
  double size_ratio, alpha, usa, mw, mp, mr, bits, pentries;
  const int matched = std::sscanf(
      encoded.c_str(),
      "v1 scheme=%d merge=%d granularity=%d size_ratio=%lg dyn=%d pick=%d "
      "hlevels=%d hdata=%llu skew=%d alpha=%lg lazy=%d embed=%d "
      "urun=%d usa=%lg vcap=%d vself=%d vmerge=%d vlevels=%d vopt=%d "
      "mix=%lg,%lg,%lg vmeasure=%d bits=%lg pentries=%lg",
      &scheme, &merge, &granularity, &size_ratio, &dyn, &pick, &hlevels,
      &hdata, &skew, &alpha, &lazy, &embed, &urun, &usa, &vcap, &vself,
      &vmerge, &vlevels, &vopt, &mw, &mp, &mr, &vmeasure, &bits, &pentries);
  if (matched != 25) return false;
  if (scheme < 0 || scheme > static_cast<int>(GrowthScheme::kVertiorizon)) {
    return false;
  }
  GrowthPolicyConfig c;
  c.scheme = static_cast<GrowthScheme>(scheme);
  c.merge = merge == 1 ? MergePolicy::kTiering : MergePolicy::kLeveling;
  c.granularity =
      granularity == 1 ? Granularity::kPartial : Granularity::kFull;
  c.size_ratio = size_ratio;
  c.dynamic_level_bytes = dyn != 0;
  c.file_pick = pick == 1 ? FilePick::kOldestSmallestSeqFirst
                          : FilePick::kRoundRobin;
  c.horizontal_levels = hlevels;
  c.horizontal_data_size = hdata;
  c.skew_adaptation = skew != 0;
  c.skew_alpha = alpha;
  c.lazy_levels = lazy;
  c.lazy_embed_vertiorizon = embed != 0;
  c.universal_run_trigger = urun;
  c.universal_max_size_amp = usa;
  c.vrn_initial_capacity_buffers = vcap;
  c.vrn_self_tuning = vself != 0;
  c.vrn_fixed_merge =
      vmerge == 1 ? MergePolicy::kTiering : MergePolicy::kLeveling;
  c.vrn_fixed_levels = vlevels;
  c.vrn_optimize_ratio = vopt != 0;
  c.expected_mix.updates = mw;
  c.expected_mix.point_lookups = mp;
  c.expected_mix.range_lookups = mr;
  c.vrn_measure_mix = vmeasure != 0;
  c.bloom_bits_per_key = bits;
  c.page_entries = pentries;
  *config = c;
  return true;
}

std::unique_ptr<GrowthPolicy> CreateGrowthPolicy(
    const GrowthPolicyConfig& config, const PolicyContext& ctx) {
  // Universal compaction's same-level merges are not a stack of levels;
  // every other design is a horizontal part over a vertical part.
  switch (config.scheme) {
    case GrowthScheme::kUniversal:
      return std::make_unique<UniversalPolicy>(config, ctx);
    case GrowthScheme::kVertical:
    case GrowthScheme::kHorizontalLeveling:
    case GrowthScheme::kHorizontalTiering:
    case GrowthScheme::kLazyLeveling:
    case GrowthScheme::kVertiorizon:
      return std::make_unique<ComposedPolicy>(config, ctx);
  }
  return nullptr;
}

}  // namespace talus
