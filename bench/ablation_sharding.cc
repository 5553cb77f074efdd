// Ablation: range-sharded frontend — shard count × writer threads × growth
// policy (DESIGN.md §3).
//
// Wall-clock put throughput under concurrent writers against a ShardedDB.
// One shard is the PR-4 engine (single write queue, single WAL, single
// version mutex); more shards split the key space into independent engines
// behind one thread pool and one global sequence allocator, each shard
// admitting its own writers with its own stall controller — so the
// interesting column is throughput scaling as shards are added at a fixed
// writer count. The balance column (min/max per-shard puts) confirms the
// uniform workload actually spreads across the explicit split points.
//
// Runs on the real filesystem by default; --mem switches to the in-memory
// env. --smoke shrinks the sweep to a CI-friendly run; --json PATH emits
// the rows for the nightly BENCH trajectory (BENCH_shard.json).
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

#include "obs/metric_catalog.h"
#include "shard/sharded_db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

constexpr uint64_t kKeySpace = 50000;

struct BenchConfig {
  bool smoke = false;
  bool use_mem_env = false;
  std::string json_path;
};

struct PolicyVariant {
  const char* name;
  GrowthPolicyConfig config;
};

struct RunResult {
  double kops_per_sec = 0;
  double wall_seconds = 0;
  uint64_t min_shard_puts = 0;
  uint64_t max_shard_puts = 0;
  uint64_t stall_ms = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  // Fleet-wide Put percentiles (microseconds): the per-shard latency
  // histograms merged exactly, so the tail covers every shard.
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  // Fleet-wide amplification (merged per-shard talus.amp snapshots).
  double write_amp = 0;
  double read_amp = 0;
  double space_amp = 0;
};

uint64_t OpsPerThread(const BenchConfig& cfg) {
  return cfg.smoke ? 4000 : 30000;
}

std::string RunPath(const BenchConfig& cfg, int run_index) {
  if (cfg.use_mem_env) return "/db";
  return "/tmp/talus_bench_sharding_" +
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

RunResult RunOne(const BenchConfig& cfg, const PolicyVariant& policy,
                 int shards, int writers, int run_index) {
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
  opts.block_cache_bytes = 4 << 20;
  opts.policy = policy.config;
  opts.execution_mode = ExecutionMode::kBackground;
  // Fixed background resources across shard counts: the ablation isolates
  // the write-path serialization, not extra flush parallelism.
  opts.num_background_threads = 4;
  opts.shard_count = shards;
  for (int i = 1; i < shards; i++) {
    opts.shard_split_points.push_back(
        workload::FormatKey(kKeySpace * i / shards, 16));
  }

  std::unique_ptr<shard::ShardedDB> db;
  Status s = shard::ShardedDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  const uint64_t ops = OpsPerThread(cfg);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; w++) {
    threads.emplace_back([&db, w, ops] {
      Random rnd(9200 + w);
      const std::string value(100, 's');
      for (uint64_t i = 0; i < ops; i++) {
        std::string key = workload::FormatKey(rnd.Uniform(kKeySpace), 16);
        db->Put(key, value);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  r.kops_per_sec = static_cast<double>(ops) * writers / r.wall_seconds / 1000;
  r.min_shard_puts = ~uint64_t{0};
  for (size_t i = 0; i < db->shard_count(); i++) {
    const uint64_t puts = db->shard(i)->GetAmpSnapshot().puts;
    r.min_shard_puts = std::min(r.min_shard_puts, puts);
    r.max_shard_puts = std::max(r.max_shard_puts, puts);
  }
  uint64_t stall_micros = 0;
  for (const obs::MetricSnapshot& s : db->SnapshotMetrics()) {
    stall_micros += s.stats.stall_micros();
    r.flushes += s.stats.flushes;
    r.compactions += s.amp.Total(&obs::AmpSnapshot::Level::compactions);
  }
  r.stall_ms = stall_micros / 1000;
  {
    const std::vector<Histogram> lat = db->GetLatencyHistograms();
    const Histogram& put = lat[static_cast<size_t>(obs::OpType::kPut)];
    r.lat_p50_us = put.Median();
    r.lat_p99_us = put.Percentile(99);
    r.lat_p999_us = put.Percentile(99.9);
  }
  const obs::AmpSnapshot amp = db->AggregatedAmpSnapshot();
  r.write_amp = amp.WriteAmp();
  r.read_amp = amp.ReadAmp();
  r.space_amp = amp.SpaceAmp();
  const std::string path = opts.path;
  db.reset();
  if (!cfg.use_mem_env) CleanupTree(env, path);
  return r;
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
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--mem] [--json PATH]\n",
                   argv[0]);
      return 1;
    }
  }

  const std::vector<PolicyVariant> policies =
      cfg.smoke
          ? std::vector<PolicyVariant>{{"vertical",
                                        GrowthPolicyConfig::VTLevelFull(3)}}
          : std::vector<PolicyVariant>{
                {"vertical", GrowthPolicyConfig::VTLevelFull(3)},
                {"lazy", GrowthPolicyConfig::LazyLeveling(3)}};
  const std::vector<int> shard_counts =
      cfg.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  const std::vector<int> thread_counts =
      cfg.smoke ? std::vector<int>{8} : std::vector<int>{1, 4, 8};

  std::printf("# Sharding ablation: %llu puts/thread, 100B values, "
              "background mode, 4 bg threads, %s env, %u cores\n",
              static_cast<unsigned long long>(OpsPerThread(cfg)),
              cfg.use_mem_env ? "mem" : "posix",
              std::thread::hardware_concurrency());
  std::printf("%-10s %7s %8s %9s %8s %10s %10s %9s %8s %11s %8s\n", "policy",
              "shards", "writers", "kops/s", "wall_s", "min_puts", "max_puts",
              "stall_ms", "flushes", "compactions", "p99_us");

  std::string json = "{\"bench\":\"ablation_sharding\",\"smoke\":" +
                     std::string(cfg.smoke ? "true" : "false") +
                     ",\"rows\":[\n";
  bool first_row = true;
  int run_index = 0;
  for (const auto& policy : policies) {
    for (int shards : shard_counts) {
      for (int writers : thread_counts) {
        RunResult r = RunOne(cfg, policy, shards, writers, run_index++);
        std::printf(
            "%-10s %7d %8d %9.1f %8.2f %10llu %10llu %9llu %8llu %11llu "
            "%8.0f\n",
            policy.name, shards, writers, r.kops_per_sec, r.wall_seconds,
            static_cast<unsigned long long>(r.min_shard_puts),
            static_cast<unsigned long long>(r.max_shard_puts),
            static_cast<unsigned long long>(r.stall_ms),
            static_cast<unsigned long long>(r.flushes),
            static_cast<unsigned long long>(r.compactions),
            r.lat_p99_us);
        char row[640];
        std::snprintf(
            row, sizeof(row),
            "%s{\"policy\":\"%s\",\"shards\":%d,\"writers\":%d,"
            "\"kops_per_sec\":%.1f,\"wall_seconds\":%.3f,"
            "\"min_shard_puts\":%llu,\"max_shard_puts\":%llu,"
            "\"stall_ms\":%llu,\"flushes\":%llu,\"compactions\":%llu,"
            "\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f,\"lat_p999_us\":%.1f,"
            "\"write_amp\":%.3f,\"read_amp\":%.3f,\"space_amp\":%.3f}",
            first_row ? "" : ",\n", policy.name, shards, writers,
            r.kops_per_sec, r.wall_seconds,
            static_cast<unsigned long long>(r.min_shard_puts),
            static_cast<unsigned long long>(r.max_shard_puts),
            static_cast<unsigned long long>(r.stall_ms),
            static_cast<unsigned long long>(r.flushes),
            static_cast<unsigned long long>(r.compactions),
            r.lat_p50_us, r.lat_p99_us, r.lat_p999_us, r.write_amp,
            r.read_amp, r.space_amp);
        json += row;
        first_row = false;
      }
      std::printf("\n");
    }
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
  return 0;
}
