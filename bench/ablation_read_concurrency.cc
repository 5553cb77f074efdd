// Ablation: read-path scaling — reader threads × writer threads.
//
// Exercises the lock-free read path (DESIGN.md §2.7): after preloading a
// key space and flushing it to disk, N reader threads issue point lookups
// and short scans (pinning ReadViews, probing through the table cache)
// while M writer threads overwrite keys, driving background flushes and
// compactions that install new versions and delete files under the
// readers. Reported: reader throughput scaling with thread count plus
// table-cache / block-cache hit rates from talus.stats.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

constexpr uint32_t kKeySpace = 50000;
constexpr uint64_t kReadsPerThread = 60000;
constexpr uint64_t kWritesPerThread = 30000;
constexpr size_t kScanLength = 16;

uint64_t StatField(const std::string& stats, const std::string& token) {
  const std::string needle = " " + token + "=";
  size_t pos = stats.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

struct RunResult {
  double read_kops = 0;
  double wall_seconds = 0;
  double tc_hit_rate = 0;
  double bc_hit_rate = 0;
  uint64_t compactions = 0;
};

RunResult RunOne(ExecutionMode mode, int readers, int writers) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.block_cache_bytes = 4 << 20;
  opts.table_cache_open_files = 256;
  opts.policy = GrowthPolicyConfig::VTTierFull(3);
  opts.execution_mode = mode;
  opts.num_background_threads = 2;

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }
  Random preload_rnd(7);
  for (uint32_t i = 0; i < kKeySpace; i++) {
    db->Put(workload::FormatKey(i, 16),
            "value-" + std::to_string(preload_rnd.Next()));
  }
  db->FlushMemTable();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; r++) {
    threads.emplace_back([&db, r] {
      Random rnd(5000 + r);
      for (uint64_t i = 0; i < kReadsPerThread; i++) {
        std::string key = workload::FormatKey(rnd.Uniform(kKeySpace), 16);
        if (rnd.Uniform(10) < 8) {
          std::string value;
          db->Get(key, &value);
        } else {
          std::vector<std::pair<std::string, std::string>> out;
          db->Scan(key, kScanLength, &out);
        }
      }
    });
  }
  std::vector<std::thread> write_threads;
  for (int w = 0; w < writers; w++) {
    write_threads.emplace_back([&db, w] {
      Random rnd(9000 + w);
      for (uint64_t i = 0; i < kWritesPerThread; i++) {
        db->Put(workload::FormatKey(rnd.Uniform(kKeySpace), 16),
                "update-" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto read_end = std::chrono::steady_clock::now();
  for (auto& t : write_threads) t.join();
  db->FlushMemTable();

  RunResult result;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(read_end -
                                                                start)
          .count();
  result.read_kops = static_cast<double>(kReadsPerThread) * readers /
                     result.wall_seconds / 1000.0;
  std::string stats;
  db->GetProperty("talus.stats", &stats);
  const uint64_t tc_hits = StatField(stats, "tc_hits");
  const uint64_t tc_misses = StatField(stats, "tc_misses");
  const uint64_t bc_hits = StatField(stats, "bc_hits");
  const uint64_t bc_misses = StatField(stats, "bc_misses");
  if (tc_hits + tc_misses > 0) {
    result.tc_hit_rate =
        static_cast<double>(tc_hits) / static_cast<double>(tc_hits + tc_misses);
  }
  if (bc_hits + bc_misses > 0) {
    result.bc_hit_rate =
        static_cast<double>(bc_hits) / static_cast<double>(bc_hits + bc_misses);
  }
  result.compactions =
      db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions);
  return result;
}

}  // namespace
}  // namespace talus

int main() {
  using namespace talus;

  std::printf(
      "# Read-concurrency ablation: %llu reads/thread (80/20 get/scan%zu) "
      "over %u preloaded keys\n",
      static_cast<unsigned long long>(kReadsPerThread), kScanLength,
      kKeySpace);
  std::printf("%-11s %7s %7s %10s %8s %8s %8s %9s\n", "mode", "readers",
              "writers", "read_kops", "wall_s", "tc_hit%", "bc_hit%",
              "compacts");

  for (ExecutionMode mode :
       {ExecutionMode::kInline, ExecutionMode::kBackground}) {
    for (int writers : {0, 2}) {
      for (int readers : {1, 2, 4, 8}) {
        RunResult r = RunOne(mode, readers, writers);
        std::printf(
            "%-11s %7d %7d %10.1f %8.2f %8.1f %8.1f %9llu\n",
            mode == ExecutionMode::kInline ? "inline" : "background", readers,
            writers, r.read_kops, r.wall_seconds, r.tc_hit_rate * 100.0,
            r.bc_hit_rate * 100.0,
            static_cast<unsigned long long>(r.compactions));
      }
      std::printf("\n");
    }
  }
  return 0;
}
