// db_inspect: offline inspection of a talus database directory — what a
// production operator reaches for first. Dumps the CURRENT/manifest chain,
// the tree structure with per-level occupancy, per-file key ranges, and
// (optionally) every live key-value pair.
//
//   ./examples/db_inspect <db_path> [--files] [--dump[=N]]
//
// Works on any directory produced with Env::Default(); for a demo run with
// no arguments it creates a small throwaway DB first.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/manifest.h"
#include "workload/generator.h"

using namespace talus;

namespace {

void InspectManifest(Env* env, const std::string& path, bool show_files) {
  ManifestData manifest;
  uint64_t number = 0;
  Status s = ReadCurrentManifest(env, path, &manifest, &number);
  if (!s.ok()) {
    std::printf("cannot read manifest: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("MANIFEST-%06llu\n", static_cast<unsigned long long>(number));
  std::printf("  policy           : %s\n", manifest.policy_name.c_str());
  std::printf("  policy state     : %zu bytes\n",
              manifest.policy_state.size());
  std::printf("  last sequence    : %llu\n",
              static_cast<unsigned long long>(manifest.last_sequence));
  std::printf("  flush count      : %llu\n",
              static_cast<unsigned long long>(manifest.flush_count));
  std::printf("  next file number : %llu\n",
              static_cast<unsigned long long>(manifest.next_file_number));
  std::printf("  live WAL         : %06llu\n",
              static_cast<unsigned long long>(manifest.wal_number));

  const Version& v = manifest.version;
  std::printf("\ntree (%zu levels, %zu runs, %llu bytes):\n",
              v.levels.size(), v.TotalRuns(),
              static_cast<unsigned long long>(v.TotalBytes()));
  for (size_t i = 0; i < v.levels.size(); i++) {
    const LevelState& level = v.levels[i];
    if (level.empty()) continue;
    std::printf("  L%-2zu %8llu KB in %zu run(s)\n", i,
                static_cast<unsigned long long>(level.TotalBytes() >> 10),
                level.NumRuns());
    for (const auto& run : level.runs) {
      std::printf("      run %-5llu %3zu file(s) %8llu KB  [%.24s .. %.24s]\n",
                  static_cast<unsigned long long>(run.run_id),
                  run.files.size(),
                  static_cast<unsigned long long>(run.TotalBytes() >> 10),
                  run.files.empty()
                      ? "-"
                      : run.files.front()->smallest.user_key().ToString()
                            .c_str(),
                  run.files.empty()
                      ? "-"
                      : run.files.back()->largest.user_key().ToString()
                            .c_str());
      if (show_files) {
        for (const auto& f : run.files) {
          std::printf("        %06llu.sst %7llu B %6llu entries "
                      "[%.20s .. %.20s] oldest_seq=%llu\n",
                      static_cast<unsigned long long>(f->number),
                      static_cast<unsigned long long>(f->file_size),
                      static_cast<unsigned long long>(f->num_entries),
                      f->smallest.user_key().ToString().c_str(),
                      f->largest.user_key().ToString().c_str(),
                      static_cast<unsigned long long>(f->oldest_seq));
        }
      }
    }
  }
}

void DumpEntries(Env* env, const std::string& path,
                 const ManifestData& manifest, size_t limit) {
  // Open read-only-ish: we must know the policy; read it from the manifest.
  DbOptions options;
  options.env = env;
  options.path = path;
  // Policy is matched by name on open; reconstruct the config by label.
  const std::string& policy_name = manifest.policy_name;
  GrowthPolicyConfig config;
  if (policy_name.rfind("vertical-", 0) == 0) {
    config = GrowthPolicyConfig::VTLevelPart(6);
    config.merge = policy_name.find("tiering") != std::string::npos
                       ? MergePolicy::kTiering
                       : MergePolicy::kLeveling;
    config.granularity = policy_name.find("full") != std::string::npos
                             ? Granularity::kFull
                             : Granularity::kPartial;
    if (policy_name.find("dynbytes") != std::string::npos) {
      config.dynamic_level_bytes = true;
    }
  } else if (policy_name == "horizontal-leveling") {
    config = GrowthPolicyConfig::HRLevel(3);
  } else if (policy_name == "horizontal-tiering") {
    config = GrowthPolicyConfig::HRTier(3);
  } else if (policy_name == "universal") {
    config = GrowthPolicyConfig::Universal();
  } else if (policy_name.rfind("lazy-leveling", 0) == 0) {
    config = GrowthPolicyConfig::LazyLeveling(
        6, 4, policy_name.find("vertiorizon") != std::string::npos);
  } else {
    config = GrowthPolicyConfig::Vertiorizon(6);
    if (policy_name == "vertiorizon-fixed-tiering") {
      config = GrowthPolicyConfig::VRNTier(6);
    } else if (policy_name == "vertiorizon-fixed-leveling") {
      config = GrowthPolicyConfig::VRNLevel(6);
    }
  }
  // The design the manifest persists, when it has one, is exact: its ℓ,
  // which no policy name carries, must match the persisted policy state.
  DecodeGrowthPolicyConfig(manifest.policy_config, &config);
  options.policy = config;

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, &db);
  if (!s.ok()) {
    std::printf("cannot open for dump: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("\nlive entries (limit %zu):\n", limit);
  auto iter = db->NewIterator();
  size_t n = 0;
  for (iter->SeekToFirst(); iter->Valid() && n < limit; iter->Next(), n++) {
    std::printf("  %.40s = %.32s%s\n", iter->key().ToString().c_str(),
                iter->value().ToString().c_str(),
                iter->value().size() > 32 ? "..." : "");
  }
  std::printf("  (%zu shown)\n", n);
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Env> owned;
  Env* env;
  std::string path;
  bool show_files = false;
  size_t dump = 0;

  for (int i = 2; i < argc; i++) {
    if (std::strcmp(argv[i], "--files") == 0) show_files = true;
    if (std::strncmp(argv[i], "--dump", 6) == 0) {
      dump = argv[i][6] == '=' ? std::strtoull(argv[i] + 7, nullptr, 10) : 20;
    }
  }

  if (argc > 1) {
    env = Env::Default();
    path = argv[1];
  } else {
    // Demo mode: build a small DB in memory, then inspect it.
    owned = NewMemEnv();
    env = owned.get();
    path = "/demo";
    DbOptions options;
    options.env = env;
    options.path = path;
    options.write_buffer_size = 8 << 10;
    options.policy = GrowthPolicyConfig::Vertiorizon(4);
    std::unique_ptr<DB> db;
    if (!DB::Open(options, &db).ok()) return 1;
    for (int i = 0; i < 1200; i++) {
      db->Put(workload::FormatKey(i % 500, 16),
              workload::MakeValue(i, i, 120));
    }
    db.reset();
    show_files = true;
    dump = 5;
    std::printf("(demo mode: inspecting a freshly generated in-memory db)\n\n");
  }

  InspectManifest(env, path, show_files);
  if (dump > 0) {
    ManifestData manifest;
    uint64_t number;
    if (ReadCurrentManifest(env, path, &manifest, &number).ok()) {
      DumpEntries(env, path, manifest, dump);
    }
  }
  return 0;
}
