// Ablation: execution mode × writer threads × growth policy.
//
// Unlike the paper-figure benches (virtual clock, deterministic), this one
// measures wall-clock throughput: N writer threads issue a mixed put/get/
// scan stream against one DB, inline vs background execution. The
// interesting columns are the throughput scaling as writers are added and
// the backpressure counters (switches, stalls, queue depth) that only the
// background mode produces.
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

struct RunResult {
  double wall_seconds = 0;
  double kops_per_sec = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t switches = 0;
  uint64_t stall_ms = 0;
  uint64_t slowdowns = 0;
  uint64_t stops = 0;
};

// Reduced by --smoke for the CI bench-smoke job's <60 s sweep.
uint64_t g_ops_per_thread = 30000;
constexpr uint32_t kKeySpace = 20000;

void WorkerLoop(DB* db, int worker, uint64_t ops) {
  Random rnd(9000 + worker);
  for (uint64_t i = 0; i < ops; i++) {
    std::string key = workload::FormatKey(rnd.Uniform(kKeySpace), 16);
    const uint32_t action = rnd.Uniform(10);
    if (action < 8) {
      db->Put(key, "value-" + std::to_string(i));
    } else if (action < 9) {
      std::string value;
      db->Get(key, &value);
    } else {
      std::vector<std::pair<std::string, std::string>> out;
      db->Scan(key, 16, &out);
    }
  }
}

RunResult RunOne(ExecutionMode mode, int writers,
                 const GrowthPolicyConfig& policy) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 64 << 10;
  opts.target_file_size = 64 << 10;
  opts.block_size = 4096;
  opts.block_cache_bytes = 1 << 20;
  opts.policy = policy;
  opts.execution_mode = mode;
  opts.num_background_threads = 2;

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; w++) {
    threads.emplace_back(
        [&db, w] { WorkerLoop(db.get(), w, g_ops_per_thread); });
  }
  for (auto& t : threads) t.join();
  db->FlushMemTable();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  const double total_ops =
      static_cast<double>(g_ops_per_thread) * static_cast<double>(writers);
  r.kops_per_sec = total_ops / r.wall_seconds / 1000.0;
  const EngineStats& stats = db->stats();
  r.flushes = stats.flushes;
  r.compactions =
      db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions);
  r.switches = stats.memtable_switches;
  r.stall_ms = stats.stall_micros() / 1000;
  r.slowdowns = stats.stall_slowdowns();
  r.stops = stats.stall_stops();
  return r;
}

}  // namespace
}  // namespace talus

int main(int argc, char** argv) {
  using namespace talus;

  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) g_ops_per_thread = 5000;

  struct NamedPolicy {
    const char* name;
    GrowthPolicyConfig config;
  };
  std::vector<NamedPolicy> policies = {
      {"VT-Level-Full", GrowthPolicyConfig::VTLevelFull(3)},
      {"VT-Tier-Full", GrowthPolicyConfig::VTTierFull(3)},
      {"Lazy-Level", GrowthPolicyConfig::LazyLeveling(3, 4, false)},
  };
  if (smoke) policies.resize(1);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  std::printf(
      "# Concurrency ablation: %llu ops/thread, mixed 80/10/10 "
      "put/get/scan\n",
      static_cast<unsigned long long>(g_ops_per_thread));
  std::printf("%-14s %-11s %7s %9s %8s %8s %9s %9s %10s %7s\n", "policy",
              "mode", "writers", "kops/s", "wall_s", "flushes", "compacts",
              "switches", "slowdowns", "stops");

  for (const auto& p : policies) {
    for (int writers : thread_counts) {
      for (ExecutionMode mode :
           {ExecutionMode::kInline, ExecutionMode::kBackground}) {
        RunResult r = RunOne(mode, writers, p.config);
        std::printf("%-14s %-11s %7d %9.1f %8.2f %8llu %9llu %9llu %10llu "
                    "%7llu\n",
                    p.name,
                    mode == ExecutionMode::kInline ? "inline" : "background",
                    writers, r.kops_per_sec, r.wall_seconds,
                    static_cast<unsigned long long>(r.flushes),
                    static_cast<unsigned long long>(r.compactions),
                    static_cast<unsigned long long>(r.switches),
                    static_cast<unsigned long long>(r.slowdowns),
                    static_cast<unsigned long long>(r.stops));
      }
    }
    std::printf("\n");
  }
  return 0;
}
