// YCSB-style workload runner: load a key space, run an operation mix
// against a chosen growth scheme, and report the paper's metrics. This is
// the CLI equivalent of one cell in Figure 7.
//
//   ./examples/ycsb_runner [options]
//     --policy=<vt-level-part|vt-level-full|vt-tier-part|vt-tier-full|
//               rocksdb-tuned|universal|hr-level|hr-tier|vrn-level|
//               vrn-tier|vertiorizon|lazy|lazy-vrn>  (an unknown name
//               exits non-zero with this list)
//     --workload=<read-heavy|balanced|write-heavy|range-scan>
//     --dist=<uniform|zipfian|hotcold>
//     --keys=N --ops=N --ratio=T --bpk=B --cache=BYTES
//
// Networked mode: --connect=HOST:PORT runs the same load + mix against a
// running talus server (examples/talus_server.cpp) over the wire protocol
// instead of an embedded DB; --depth=N pipelines that many requests per
// connection (docs/PROTOCOL.md). Policy/cache flags are ignored — those
// belong to the server — and engine metrics come back via the talus.stats
// property.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/db.h"
#include "obs/throughput.h"
#include "policy/policy_config.h"
#include "server/client.h"
#include "util/random.h"
#include "workload/generator.h"

using namespace talus;

namespace {

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

// Runs load + op mix against a remote talus server. The pipelined window
// (depth) is the client half of the server's group-commit coalescing:
// updates issued back-to-back commit as one WriteBatch server-side.
int RunNetworked(const std::string& endpoint, const workload::KeySpaceSpec& keys,
                 const workload::OpMix& mix, uint64_t num_keys,
                 uint64_t num_ops, int depth) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 1;
  }
  const std::string host = endpoint.substr(0, colon);
  const uint16_t port = static_cast<uint16_t>(
      std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));

  server::Client client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Load, pipelined `depth` at a time.
  std::vector<uint64_t> window;
  auto drain = [&]() -> Status {
    Status first;
    for (uint64_t id : window) {
      Status w = client.Wait(id, nullptr);
      if (first.ok() && !w.ok()) first = w;
    }
    window.clear();
    return first;
  };
  for (uint64_t i = 0; i < num_keys; i++) {
    const uint64_t k = (i * 2654435761u) % num_keys;
    window.push_back(
        client.SendPut(workload::FormatKey(k, keys.key_size),
                       workload::MakeValue(k, 0, keys.value_size)));
    if (window.size() >= static_cast<size_t>(depth)) {
      s = drain();
      if (!s.ok()) {
        std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  s = drain();
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("loaded %llu entries over the wire\n",
              static_cast<unsigned long long>(num_keys));

  // Run. Reads are sync (their result gates nothing but models a real
  // client waiting on a value); updates pipeline up to `depth`.
  workload::OpStream stream(keys, mix, 7);
  uint64_t updates = 0, lookups = 0, scans = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_ops; i++) {
    const auto op = stream.Next();
    const std::string key = workload::FormatKey(op.key_index, keys.key_size);
    switch (op.type) {
      case workload::OpType::kUpdate:
        window.push_back(client.SendPut(
            key, workload::MakeValue(op.key_index, i, keys.value_size)));
        if (window.size() >= static_cast<size_t>(depth)) drain();
        updates++;
        break;
      case workload::OpType::kPointLookup: {
        drain();
        std::string value;
        client.Get(key, &value);
        lookups++;
        break;
      }
      case workload::OpType::kRangeLookup: {
        drain();
        std::vector<std::pair<std::string, std::string>> out;
        client.Scan(key, 32, &out);
        scans++;
        break;
      }
    }
  }
  drain();
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();

  std::printf("\nresults (networked):\n");
  std::printf("  throughput         : %.1f kops/s over %.2fs\n",
              num_ops / wall / 1000, wall);
  std::printf("  op counts          : %llu updates, %llu lookups, %llu scans\n",
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(scans));
  std::string stats;
  if (client.GetProperty("talus.stats", &stats).ok()) {
    std::printf("  server talus.stats :\n%s", stats.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string policy_name =
      FlagValue(argc, argv, "policy", "vertiorizon");
  const std::string workload_name =
      FlagValue(argc, argv, "workload", "balanced");
  const std::string dist_name = FlagValue(argc, argv, "dist", "uniform");
  const uint64_t num_keys =
      std::strtoull(FlagValue(argc, argv, "keys", "20000").c_str(), nullptr, 10);
  const uint64_t num_ops =
      std::strtoull(FlagValue(argc, argv, "ops", "30000").c_str(), nullptr, 10);
  const double T = std::strtod(FlagValue(argc, argv, "ratio", "6").c_str(),
                               nullptr);
  const double bpk =
      std::strtod(FlagValue(argc, argv, "bpk", "5").c_str(), nullptr);
  const uint64_t cache = std::strtoull(
      FlagValue(argc, argv, "cache", "262144").c_str(), nullptr, 10);
  GrowthPolicyConfig policy;
  if (!GrowthPolicyConfigByName(policy_name, T, num_keys * 1024, &policy)) {
    std::fprintf(stderr, "unknown --policy=%s (accepted: %s)\n",
                 policy_name.c_str(), GrowthPolicyNames().c_str());
    return 2;
  }

  workload::KeySpaceSpec keys;
  keys.num_keys = num_keys;
  keys.key_size = 128;
  keys.value_size = 896;
  if (dist_name == "zipfian") {
    keys.distribution = workload::Distribution::kZipfian;
  } else if (dist_name == "hotcold") {
    keys.distribution = workload::Distribution::kHotCold;
  }

  workload::OpMix mix = workload::BalancedMix();
  if (workload_name == "read-heavy") mix = workload::ReadHeavyMix();
  if (workload_name == "write-heavy") mix = workload::WriteHeavyMix();
  if (workload_name == "range-scan") mix = workload::RangeScanMix();

  const std::string connect = FlagValue(argc, argv, "connect", "");
  if (!connect.empty()) {
    const int depth =
        std::atoi(FlagValue(argc, argv, "depth", "32").c_str());
    return RunNetworked(connect, keys, mix, num_keys, num_ops,
                        depth > 0 ? depth : 1);
  }

  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.path = "/ycsb";
  options.write_buffer_size = 64 << 10;
  options.target_file_size = 64 << 10;
  options.block_cache_bytes = cache;
  options.bloom_bits_per_key = bpk;
  options.policy = policy;

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("policy=%s workload=%s dist=%s keys=%llu ops=%llu T=%.0f "
              "bpk=%.0f cache=%llu\n",
              db->policy()->name().c_str(), workload_name.c_str(),
              dist_name.c_str(), static_cast<unsigned long long>(num_keys),
              static_cast<unsigned long long>(num_ops), T, bpk,
              static_cast<unsigned long long>(cache));

  // Load.
  for (uint64_t i = 0; i < num_keys; i++) {
    const uint64_t k = (i * 2654435761u) % num_keys;
    s = db->Put(workload::FormatKey(k, keys.key_size),
                workload::MakeValue(k, 0, keys.value_size));
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("loaded %llu entries; tree:\n%s",
              static_cast<unsigned long long>(num_keys),
              db->DebugString().c_str());

  // Run.
  IoStats* io = env->io_stats();
  io->Reset();
  io->ResetPeak();
  obs::ThroughputMeter meter(1000);
  workload::OpStream stream(keys, mix, 7);
  for (uint64_t i = 0; i < num_ops; i++) {
    const auto op = stream.Next();
    const std::string key = workload::FormatKey(op.key_index, keys.key_size);
    switch (op.type) {
      case workload::OpType::kUpdate:
        db->Put(key, workload::MakeValue(op.key_index, i, keys.value_size));
        break;
      case workload::OpType::kPointLookup: {
        std::string value;
        db->Get(key, &value);
        break;
      }
      case workload::OpType::kRangeLookup: {
        std::vector<std::pair<std::string, std::string>> out;
        db->Scan(key, 32, &out);
        break;
      }
    }
    meter.RecordOp(io->clock());
  }

  const EngineStats& stats = db->stats();
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  using Level = obs::AmpSnapshot::Level;
  std::printf("\nresults:\n");
  std::printf("  avg throughput     : %.4f ops/clock-unit\n",
              meter.AverageThroughput());
  std::printf("  worst-case tput    : %.4f (window 1000 ops)\n",
              meter.WorstCaseThroughput());
  std::printf("  write-amp          : %.2f\n", amp.WriteAmp());
  std::printf("  read-amp           : %.3f runs probed per lookup\n",
              amp.ReadAmp());
  std::printf("  bloom negatives    : %llu\n",
              static_cast<unsigned long long>(
                  amp.Total(&Level::filter_negatives)));
  std::printf("  cache hits         : %llu\n",
              static_cast<unsigned long long>(amp.Total(&Level::cache_hits)));
  std::printf("  peak storage       : %.1f MB\n",
              io->peak_storage_bytes() / 1048576.0);
  std::printf("  flushes/compactions: %llu / %llu\n",
              static_cast<unsigned long long>(stats.flushes),
              static_cast<unsigned long long>(amp.Total(&Level::compactions)));
  return 0;
}
