// Compaction visualizer: ingest the same data under different growth
// schemes and print the evolving tree shape — a terminal rendition of the
// paper's Figure 1/6 intuition. Runs per level are drawn as [###] bars
// scaled by size.
//
//   ./examples/compaction_visualizer [scheme]
//   scheme ∈ {vt-level, vt-tier, hr-level, hr-tier, vrn, lazy, all}
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "workload/generator.h"

using namespace talus;

namespace {

void DrawTree(const Version& v, uint64_t buffer_bytes) {
  for (size_t i = 0; i < v.levels.size(); i++) {
    const LevelState& level = v.levels[i];
    if (level.empty() && i > 4) continue;
    std::printf("  L%zu |", i);
    for (const auto& run : level.runs) {
      const uint64_t bytes = run.TotalBytes();
      int width = static_cast<int>(bytes / (buffer_bytes / 4));
      if (width < 1) width = 1;
      if (width > 48) width = 48;
      std::printf(" [%.*s]", width, "################################################");
    }
    if (level.empty()) std::printf(" (empty)");
    std::printf("\n");
  }
}

void Visualize(const std::string& name, const GrowthPolicyConfig& policy) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.path = "/viz";
  options.write_buffer_size = 16 << 10;
  options.target_file_size = 16 << 10;
  options.policy = policy;

  std::unique_ptr<DB> db;
  if (!DB::Open(options, &db).ok()) {
    std::printf("open failed for %s\n", name.c_str());
    return;
  }

  std::printf("\n==== %s (policy '%s') ====\n", name.c_str(),
              db->policy()->name().c_str());
  workload::KeySpaceSpec keys;
  keys.num_keys = 4000;
  keys.key_size = 24;
  keys.value_size = 232;

  uint64_t written = 0;
  const uint64_t step = 1000;
  for (uint64_t i = 0; i < 6000; i++) {
    const uint64_t k = (i * 2654435761u) % keys.num_keys;  // Scatter.
    db->Put(workload::FormatKey(k, keys.key_size),
            workload::MakeValue(k, i, keys.value_size));
    written++;
    if (written % step == 0) {
      std::printf(" after %llu inserts (%llu flushes, %llu compactions):\n",
                  static_cast<unsigned long long>(written),
                  static_cast<unsigned long long>(db->stats().flushes),
                  static_cast<unsigned long long>(
                      db->GetAmpSnapshot().Total(
                          &obs::AmpSnapshot::Level::compactions)));
      DrawTree(db->current_version(), options.write_buffer_size);
    }
  }
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  std::printf(" final write-amp %.2f, read-amp %.2f, runs total %zu\n",
              amp.WriteAmp(), amp.ReadAmp(),
              db->current_version().TotalRuns());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "all";
  const std::vector<std::pair<std::string, GrowthPolicyConfig>> schemes = {
      {"vt-level", GrowthPolicyConfig::VTLevelPart(4)},
      {"vt-tier", GrowthPolicyConfig::VTTierFull(4)},
      {"hr-level", GrowthPolicyConfig::HRLevel(3)},
      {"hr-tier", GrowthPolicyConfig::HRTier(3, 6000ull * 256)},
      {"vrn", GrowthPolicyConfig::Vertiorizon(4)},
      {"lazy", GrowthPolicyConfig::LazyLeveling(4, 4, false)},
  };
  bool matched = false;
  for (const auto& [name, policy] : schemes) {
    if (which == "all" || which == name) {
      Visualize(name, policy);
      matched = true;
    }
  }
  if (!matched) {
    std::printf("unknown scheme '%s'; use one of:", which.c_str());
    for (const auto& [name, policy] : schemes) std::printf(" %s", name.c_str());
    std::printf(" all\n");
    return 1;
  }
  return 0;
}
