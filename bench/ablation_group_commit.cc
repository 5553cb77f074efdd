// Ablation: group-commit write pipeline — writer threads × commit mode ×
// WAL sync mode (DESIGN.md §2.9).
//
// Wall-clock put throughput under concurrent writers. "serial" caps the
// group byte budget so every batch commits alone (one WAL append + one sync
// per batch — the pre-pipeline engine's behavior); "group" uses the default
// budget so the leader absorbs queued batches. Either way the leader is the
// memtable's only writer: it applies every batch of its group itself. The
// interesting columns are the throughput scaling as writers are added under
// wal_sync=per_group (where the amortized fsync dominates) and the
// group-size / queue-wait counters.
//
// Runs on the real filesystem by default so fsync costs are real; --mem
// switches to the deterministic in-memory env. --smoke shrinks the sweep to
// a CI-friendly <60 s run; --json PATH additionally emits the rows as JSON
// (the CI bench-smoke job uploads BENCH_write.json per PR to accumulate a
// perf trajectory). Rows carry put-latency percentiles (lat_p50_us /
// lat_p99_us / lat_p999_us from the engine's obs::LatencyRecorder) so the
// same baseline that gates throughput also gates tail latency.
//
// --trace PATH streams the engine's event ring (flushes, compactions,
// stalls) to PATH as JSONL while the sweep runs; --stats-jsonl PREFIX
// additionally runs the obs::StatsSnapshotter during each run, writing the
// amp/latency/drift time series to PREFIX.<run>.jsonl.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

struct BenchConfig {
  bool smoke = false;
  bool use_mem_env = false;
  std::string json_path;
  std::string trace_path;
  std::string stats_jsonl_prefix;
};

struct RunResult {
  double kops_per_sec = 0;
  double wall_seconds = 0;
  obs::GroupCommitStats gc;
  uint64_t stall_ms = 0;
  // Caller-observed Put percentiles (microseconds) from talus.latency.
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  // Cumulative amplification (talus.amp) at the end of the run.
  double write_amp = 0;
  double read_amp = 0;
  double space_amp = 0;
};

struct Variant {
  const char* name;          // Row label and JSON "mode".
  bool grouped;              // false: byte budget forces 1-batch groups.
  WalSyncMode sync_mode;
  const char* sync_name;
};

uint64_t OpsPerThread(const BenchConfig& cfg) {
  return cfg.smoke ? 4000 : 30000;
}

// Unique per-run directory so repeated sweeps never share files.
std::string RunPath(const BenchConfig& cfg, int run_index) {
  if (cfg.use_mem_env) return "/db";
  return "/tmp/talus_bench_group_commit_" +
         std::to_string(static_cast<unsigned>(::getpid())) + "_" +
         std::to_string(run_index);
}

void CleanupDir(Env* env, const std::string& path) {
  std::vector<std::string> children;
  if (env->GetChildren(path, &children).ok()) {
    for (const auto& name : children) env->RemoveFile(path + "/" + name);
  }
}

RunResult RunOne(const BenchConfig& cfg, const Variant& variant, int writers,
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
  opts.block_cache_bytes = 4 << 20;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 2;
  opts.wal_sync_mode = variant.sync_mode;
  if (!cfg.trace_path.empty()) {
    // One trace per run: OpenTraceFile truncates, so sharing PATH across
    // the sweep would leave only the last run's events.
    opts.trace_file_path =
        cfg.trace_path + "." + std::to_string(run_index) + ".jsonl";
  }
  if (!cfg.stats_jsonl_prefix.empty()) {
    // Same per-run naming as --trace: the snapshotter's file is truncated
    // at Open.
    opts.stats_snapshot_interval_ms = 100;
    opts.stats_snapshot_path =
        cfg.stats_jsonl_prefix + "." + std::to_string(run_index) + ".jsonl";
  }
  if (!variant.grouped) {
    // A 1-byte budget always keeps just the leader: every batch pays its
    // own WAL append and sync, like the pre-group-commit engine.
    opts.max_write_group_bytes = 1;
  }

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  const uint64_t ops = OpsPerThread(cfg);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; w++) {
    threads.emplace_back([&db, w, ops] {
      Random rnd(7100 + w);
      const std::string value(100, 'g');
      for (uint64_t i = 0; i < ops; i++) {
        std::string key = workload::FormatKey(rnd.Uniform(50000), 16);
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
  r.gc = db->GetGroupCommitStats();
  r.stall_ms = db->stats().stall_micros() / 1000;
  const std::vector<Histogram> lat = db->GetLatencyHistograms();
  const Histogram& put = lat[static_cast<size_t>(obs::OpType::kPut)];
  r.lat_p50_us = put.Median();
  r.lat_p99_us = put.Percentile(99);
  r.lat_p999_us = put.Percentile(99.9);
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  r.write_amp = amp.WriteAmp();
  r.read_amp = amp.ReadAmp();
  r.space_amp = amp.SpaceAmp();
  const std::string path = opts.path;
  db.reset();
  if (!cfg.use_mem_env) CleanupDir(env, path);
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
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      cfg.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-jsonl") == 0 && i + 1 < argc) {
      cfg.stats_jsonl_prefix = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--mem] [--json PATH] [--trace PATH] "
                   "[--stats-jsonl PREFIX]\n",
                   argv[0]);
      return 1;
    }
  }

  const std::vector<Variant> variants = {
      {"serial", false, WalSyncMode::kNone, "none"},
      {"group", true, WalSyncMode::kNone, "none"},
      {"serial", false, WalSyncMode::kPerGroup, "per_group"},
      {"group", true, WalSyncMode::kPerGroup, "per_group"},
      {"group", true, WalSyncMode::kInterval, "interval"},
  };
  const std::vector<int> thread_counts =
      cfg.smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};

  std::printf("# Group-commit ablation: %llu puts/thread, 100B values, "
              "background mode, %s env\n",
              static_cast<unsigned long long>(OpsPerThread(cfg)),
              cfg.use_mem_env ? "mem" : "posix");
  std::printf("%-10s %-10s %7s %9s %8s %10s %10s %9s %11s %9s %8s %8s\n",
              "mode", "wal_sync", "writers", "kops/s", "wall_s", "groups",
              "grp_avg", "grp_max", "wal_syncs", "wait_us", "p99_us",
              "p999_us");

  std::string json = "{\"bench\":\"ablation_group_commit\",\"smoke\":" +
                     std::string(cfg.smoke ? "true" : "false") +
                     ",\"rows\":[\n";
  bool first_row = true;
  int run_index = 0;
  for (const auto& variant : variants) {
    for (int writers : thread_counts) {
      RunResult r = RunOne(cfg, variant, writers, run_index++);
      std::printf("%-10s %-10s %7d %9.1f %8.2f %10llu %10.2f %9.0f %11llu "
                  "%9llu %8.0f %8.0f\n",
                  variant.name, variant.sync_name, writers, r.kops_per_sec,
                  r.wall_seconds,
                  static_cast<unsigned long long>(r.gc.group_commits),
                  r.gc.group_size_avg, r.gc.group_size_max,
                  static_cast<unsigned long long>(r.gc.wal_syncs),
                  static_cast<unsigned long long>(
                      r.gc.write_queue_wait_micros),
                  r.lat_p99_us, r.lat_p999_us);
      char row[768];
      std::snprintf(
          row, sizeof(row),
          "%s{\"mode\":\"%s\",\"wal_sync\":\"%s\",\"writers\":%d,"
          "\"kops_per_sec\":%.1f,\"wall_seconds\":%.3f,"
          "\"group_commits\":%llu,\"group_size_avg\":%.3f,"
          "\"group_size_p50\":%.1f,\"group_size_max\":%.0f,"
          "\"wal_syncs\":%llu,\"write_queue_wait_micros\":%llu,"
          "\"stall_ms\":%llu,\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f,"
          "\"lat_p999_us\":%.1f,\"write_amp\":%.3f,\"read_amp\":%.3f,"
          "\"space_amp\":%.3f}",
          first_row ? "" : ",\n", variant.name, variant.sync_name, writers,
          r.kops_per_sec, r.wall_seconds,
          static_cast<unsigned long long>(r.gc.group_commits),
          r.gc.group_size_avg, r.gc.group_size_p50, r.gc.group_size_max,
          static_cast<unsigned long long>(r.gc.wal_syncs),
          static_cast<unsigned long long>(r.gc.write_queue_wait_micros),
          static_cast<unsigned long long>(r.stall_ms), r.lat_p50_us,
          r.lat_p99_us, r.lat_p999_us, r.write_amp, r.read_amp, r.space_amp);
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
  return 0;
}
