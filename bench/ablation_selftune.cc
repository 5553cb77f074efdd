// Ablation for §5.2: the self-tuning navigator. For a grid of workload
// mixes, show the (merge policy, ℓ) the navigator picks from the cost
// model, then measure self-tuned Vertiorizon against the fixed designs —
// the self-tuned engine should track the best fixed design everywhere.
#include <cstdio>

#include "bench/harness.h"
#include "filter/bloom.h"
#include "tuning/cost_model.h"

using namespace talus;
using namespace talus::bench;

int main() {
  const uint64_t kKeys = 20000;
  const double T = 6.0;

  std::printf("Navigator decisions (n=16 buffers, f=%.3f, P=4):\n",
              BloomFalsePositiveRate(5.0));
  std::printf("%12s %12s | %-26s\n", "updates", "lookups", "choice");
  for (double w : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    WorkloadMix mix;
    mix.updates = w;
    mix.point_lookups = 1.0 - w;
    mix.range_lookups = 0;
    const auto choice =
        tuning::Navigate(16, BloomFalsePositiveRate(5.0), 4.0, mix);
    std::printf("%12.2f %12.2f | %-26s\n", w, 1.0 - w,
                choice.ToString().c_str());
  }

  std::printf("\nMeasured: self-tuned Vertiorizon vs fixed designs "
              "(normalized avg throughput per mix):\n");
  std::printf("%-14s %12s %12s %12s\n", "mix(w/r)", "VRN-Level", "VRN-Tier",
              "Vertiorizon");
  for (double w : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    workload::OpMix mix;
    mix.updates = w;
    mix.point_lookups = 1.0 - w;
    mix.range_lookups = 0;

    double tputs[3] = {0, 0, 0};
    GrowthPolicyConfig configs[3] = {
        GrowthPolicyConfig::VRNLevel(T),
        GrowthPolicyConfig::VRNTier(T),
        GrowthPolicyConfig::Vertiorizon(T),
    };
    configs[2].expected_mix.updates = w;
    configs[2].expected_mix.point_lookups = 1.0 - w;
    configs[2].expected_mix.range_lookups = 0;
    for (int i = 0; i < 3; i++) {
      ExperimentConfig config;
      config.label = "cfg";
      config.policy = configs[i];
      config.keys.num_keys = kKeys;
      config.keys.key_size = 128;
      config.keys.value_size = 896;
      config.mix = mix;
      config.preload_entries = kKeys;
      config.num_ops = 20000;
      auto r = RunExperiment(config);
      tputs[i] = r.ok ? r.avg_throughput : 0;
    }
    const double best = std::max({tputs[0], tputs[1], tputs[2], 1e-12});
    std::printf("%4.1f/%-8.1f %12.3f %12.3f %12.3f\n", w, 1.0 - w,
                tputs[0] / best, tputs[1] / best, tputs[2] / best);
  }

  std::printf("\nSelf-designing check: Vertiorizon with live mix "
              "measurement (no oracle mix), workload shifts write->read "
              "mid-run:\n");
  {
    ExperimentConfig config;
    config.label = "Vertiorizon-live";
    config.policy = GrowthPolicyConfig::Vertiorizon(T);
    config.policy.vrn_measure_mix = true;
    config.keys.num_keys = kKeys;
    config.keys.key_size = 128;
    config.keys.value_size = 896;
    config.mix = workload::WriteHeavyMix();
    config.preload_entries = kKeys;
    config.num_ops = 20000;
    auto r = RunExperiment(config);
    std::printf("  write-heavy phase: ok=%d avg=%.4f wa=%.2f ra=%.2f\n",
                r.ok, r.avg_throughput, r.write_amp, r.read_amp);
  }
  return 0;
}
