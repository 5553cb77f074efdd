// Time-series scenario (the paper's intro motivates LSM backends for
// time-series stores like InfluxDB): high-rate appends of timestamped
// samples, windowed range queries over recent data, and retention deletes
// of expired windows. Append-mostly + range-scan workloads are where growth
// schemes differ most, so the example runs the same load under three
// schemes and reports the engine-side amplification metrics.
//
//   ./examples/time_series [samples_per_series]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "util/random.h"

using namespace talus;

namespace {

// series id (4 hex) + timestamp (16 digits, zero padded): keys sort by
// series then time, so a windowed query is one short range scan.
std::string SampleKey(int series, uint64_t timestamp) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "s%04x.%016llu", series,
                static_cast<unsigned long long>(timestamp));
  return buf;
}

std::string SampleValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"v\":%.6f}", v);
  return std::string(buf) + std::string(100, ' ');  // Pad like real JSON.
}

struct RunResult {
  std::string scheme;
  double write_amp;
  double read_amp;
  uint64_t window_rows;
  double clock;
};

RunResult RunScenario(const std::string& name,
                      const GrowthPolicyConfig& policy, int num_series,
                      uint64_t samples) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.path = "/tsdb";
  options.write_buffer_size = 64 << 10;
  options.target_file_size = 64 << 10;
  options.policy = policy;

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  Random rnd(2026);
  uint64_t now = 1700000000000;  // Milliseconds.
  uint64_t window_rows = 0;

  for (uint64_t t = 0; t < samples; t++) {
    now += 1000;
    // One sample per series per tick, batched like a collector would.
    WriteBatch batch;
    for (int series = 0; series < num_series; series++) {
      batch.Put(SampleKey(series, now),
                SampleValue(20.0 + 5.0 * rnd.NextDouble()));
    }
    s = db->Write(batch);
    if (!s.ok()) {
      std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }

    // Every 32 ticks: dashboard queries the last 60s of a random series.
    if (t % 32 == 31) {
      const int series = static_cast<int>(rnd.Uniform(num_series));
      std::vector<std::pair<std::string, std::string>> rows;
      db->Scan(SampleKey(series, now - 60000), 60, &rows);
      window_rows += rows.size();
    }

    // Every 256 ticks: retention - drop samples older than 10 minutes for
    // one series (ranged delete via iterator).
    if (t % 256 == 255) {
      const int series = static_cast<int>(rnd.Uniform(num_series));
      auto iter = db->NewIterator();
      std::vector<std::string> expired;
      for (iter->Seek(SampleKey(series, 0));
           iter->Valid() && iter->key().ToString() <
                                SampleKey(series, now - 600000);
           iter->Next()) {
        expired.push_back(iter->key().ToString());
        if (expired.size() >= 512) break;
      }
      WriteBatch reaper;
      for (const auto& k : expired) reaper.Delete(k);
      db->Write(reaper);
    }
  }

  RunResult result;
  result.scheme = name;
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  result.write_amp = amp.WriteAmp();
  result.read_amp = amp.ReadAmp();
  result.window_rows = window_rows;
  result.clock = env->io_stats()->clock();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t samples = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : 4000;
  const int num_series = 16;

  std::printf("time-series scenario: %d series x %llu ticks, windowed "
              "queries + retention deletes\n\n",
              num_series, static_cast<unsigned long long>(samples));
  std::printf("%-16s %10s %10s %12s %14s\n", "scheme", "write-amp",
              "read-amp", "window-rows", "virtual-clock");

  const std::vector<std::pair<std::string, GrowthPolicyConfig>> schemes = {
      {"VT-Level-Part", GrowthPolicyConfig::VTLevelPart(6)},
      {"HR-Tier", GrowthPolicyConfig::HRTier(3, samples * num_series * 140)},
      {"Vertiorizon", GrowthPolicyConfig::Vertiorizon(
                          6.0, WorkloadMix{0.9, 0.02, 0.08})},
  };
  for (const auto& [name, policy] : schemes) {
    const RunResult r = RunScenario(name, policy, num_series, samples);
    std::printf("%-16s %10.2f %10.2f %12llu %14.0f\n", r.scheme.c_str(),
                r.write_amp, r.read_amp,
                static_cast<unsigned long long>(r.window_rows), r.clock);
  }
  std::printf("\nLower clock = less total device time for the same "
              "workload; append-mostly favors tiering-style growth, which "
              "is exactly what self-tuning Vertiorizon picks.\n");
  return 0;
}
