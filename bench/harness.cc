#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/throughput.h"
#include "util/random.h"

namespace talus {
namespace bench {

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  ExperimentResult result;
  result.label = config.label;

  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/bench";
  opts.write_buffer_size = config.write_buffer_size;
  opts.target_file_size = config.target_file_size;
  opts.block_cache_bytes = config.block_cache_bytes;
  opts.bloom_bits_per_key = config.bloom_bits_per_key;
  opts.filter_layout = config.filter_layout;
  opts.policy = config.policy;
  // Cost-model page size in entries for the self-tuner.
  opts.policy.page_entries = std::max(
      1.0, static_cast<double>(opts.block_size) /
               static_cast<double>(config.keys.key_size +
                                   config.keys.value_size));

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    result.error = s.ToString();
    return result;
  }

  // ---- Load phase: every key once, in shuffled order. ----
  {
    std::vector<uint64_t> order(config.keys.num_keys);
    std::iota(order.begin(), order.end(), 0);
    Random shuffle_rnd(config.seed ^ 0x5eed);
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[shuffle_rnd.Uniform(i)]);
    }
    const uint64_t limit =
        std::min<uint64_t>(config.preload_entries, order.size());
    for (uint64_t i = 0; i < limit; i++) {
      s = db->Put(workload::FormatKey(order[i], config.keys.key_size),
                  workload::MakeValue(order[i], 0, config.keys.value_size));
      if (!s.ok()) {
        result.error = "load: " + s.ToString();
        return result;
      }
    }
  }

  // ---- Measured run phase. ----
  IoStats* io = env->io_stats();
  io->Reset();
  io->ResetPeak();
  const EngineStats before = db->stats();
  const obs::AmpSnapshot amp_before = db->GetAmpSnapshot();

  obs::ThroughputMeter meter(config.worst_case_window);
  workload::OpStream stream(config.keys, config.mix, config.seed);
  double update_clock = 0, lookup_clock = 0, range_clock = 0;
  uint64_t updates = 0, lookups = 0, ranges = 0;

  for (uint64_t i = 0; i < config.num_ops; i++) {
    const workload::Op op = stream.Next();
    const std::string key =
        workload::FormatKey(op.key_index, config.keys.key_size);
    const double t0 = io->clock();
    switch (op.type) {
      case workload::OpType::kUpdate: {
        s = db->Put(key, workload::MakeValue(op.key_index, i + 1,
                                             config.keys.value_size));
        update_clock += io->clock() - t0;
        updates++;
        break;
      }
      case workload::OpType::kPointLookup: {
        std::string value;
        Status gs = db->Get(key, &value);
        if (!gs.ok() && !gs.IsNotFound()) s = gs;
        lookup_clock += io->clock() - t0;
        lookups++;
        break;
      }
      case workload::OpType::kRangeLookup: {
        std::vector<std::pair<std::string, std::string>> out;
        s = db->Scan(key, config.scan_length, &out);
        range_clock += io->clock() - t0;
        ranges++;
        break;
      }
    }
    if (!s.ok()) {
      result.error = "run: " + s.ToString();
      return result;
    }
    meter.RecordOp(io->clock());
  }

  // ---- Metrics. ----
  result.avg_throughput =
      static_cast<double>(config.num_ops) / std::max(1e-9, io->clock());
  result.worst_throughput = meter.WorstCaseThroughput();

  const double unique_bytes =
      static_cast<double>(config.keys.num_keys) *
      static_cast<double>(config.keys.key_size + config.keys.value_size);
  result.space_amp =
      (static_cast<double>(io->peak_storage_bytes()) - unique_bytes) /
      unique_bytes;
  if (result.space_amp < 0) result.space_amp = 0;

  const EngineStats& stats = db->stats();
  obs::AmpSnapshot amp = db->GetAmpSnapshot();
  amp.Subtract(amp_before);
  result.write_amp = amp.WriteAmp();
  result.read_amp = amp.ReadAmp();
  result.update_cost = updates > 0 ? update_clock / updates : 0;
  result.lookup_cost = lookups > 0 ? lookup_clock / lookups : 0;
  result.range_cost = ranges > 0 ? range_clock / ranges : 0;
  result.flushes = stats.flushes - before.flushes;
  result.compactions = amp.Total(&obs::AmpSnapshot::Level::compactions);
  result.max_stall = stats.max_stall_clock;
  // Wall-clock tail latency from the engine recorder. The preload phase is
  // included in the put histogram; with preload ≈ num_ops the mixture still
  // tracks steady-state behaviour, and the p99/p999 tail is dominated by
  // stalls either way.
  {
    const std::vector<Histogram> lat = db->GetLatencyHistograms();
    const auto& put = lat[static_cast<size_t>(obs::OpType::kPut)];
    const auto& get = lat[static_cast<size_t>(obs::OpType::kGet)];
    result.put_p50_us = put.Median();
    result.put_p99_us = put.Percentile(99);
    result.put_p999_us = put.Percentile(99.9);
    result.get_p50_us = get.Median();
    result.get_p99_us = get.Percentile(99);
    result.get_p999_us = get.Percentile(99.9);
  }
  result.ok = true;
  return result;
}

void PrintResultTable(const std::string& title,
                      const std::vector<ExperimentResult>& results,
                      bool normalize) {
  double best_avg = 0, best_worst = 0;
  for (const auto& r : results) {
    best_avg = std::max(best_avg, r.avg_throughput);
    best_worst = std::max(best_worst, r.worst_throughput);
  }
  if (!normalize || best_avg <= 0) best_avg = 1;
  if (!normalize || best_worst <= 0) best_worst = 1;

  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-18s %10s %10s %9s %9s %9s %8s %7s\n", "method",
              normalize ? "avg(norm)" : "avg-tput",
              normalize ? "worst(nm)" : "worst-tput", "space-amp",
              "write-amp", "read-amp", "flushes", "compact");
  for (const auto& r : results) {
    if (!r.ok) {
      std::printf("%-18s FAILED: %s\n", r.label.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-18s %10.3f %10.3f %9.3f %9.2f %9.3f %8llu %7llu\n",
                r.label.c_str(), r.avg_throughput / best_avg,
                r.worst_throughput / best_worst, r.space_amp, r.write_amp,
                r.read_amp, static_cast<unsigned long long>(r.flushes),
                static_cast<unsigned long long>(r.compactions));
  }
}

void PrintRanking(const std::string& title,
                  const std::vector<ExperimentResult>& results,
                  double (*get)(const ExperimentResult&),
                  bool higher_is_better) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < results.size(); i++) {
    if (results[i].ok) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    const double va = get(results[a]);
    const double vb = get(results[b]);
    return higher_is_better ? va > vb : va < vb;
  });
  std::printf("%-28s:", title.c_str());
  for (size_t rank = 0; rank < idx.size(); rank++) {
    std::printf(" %s(%zu)", results[idx[rank]].label.c_str(), rank + 1);
  }
  std::printf("\n");
}

std::vector<std::pair<std::string, GrowthPolicyConfig>> PaperMethodRoster(
    double T, uint64_t total_data_bytes, const workload::OpMix& mix) {
  WorkloadMix wm;
  wm.updates = mix.updates;
  wm.point_lookups = mix.point_lookups;
  wm.range_lookups = mix.range_lookups;
  return {
      {"VT-Level-Part", GrowthPolicyConfig::VTLevelPart(T)},
      {"VT-Level-Full", GrowthPolicyConfig::VTLevelFull(T)},
      {"VT-Tier-Part", GrowthPolicyConfig::VTTierPart(T)},
      {"VT-Tier-Full", GrowthPolicyConfig::VTTierFull(T)},
      {"Universal", GrowthPolicyConfig::Universal()},
      {"RocksDB-Tuned", GrowthPolicyConfig::RocksDBTuned()},
      {"HR-Level", GrowthPolicyConfig::HRLevel(3)},
      {"HR-Tier", GrowthPolicyConfig::HRTier(3, total_data_bytes)},
      {"VRN-Level", GrowthPolicyConfig::VRNLevel(T)},
      {"VRN-Tier", GrowthPolicyConfig::VRNTier(T)},
      {"Vertiorizon", GrowthPolicyConfig::Vertiorizon(T, wm)},
  };
}

}  // namespace bench
}  // namespace talus
