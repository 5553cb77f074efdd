// Self-tuning demo (§5.2): watch Vertiorizon redesign its horizontal part
// as the workload changes. The engine measures the live operation mix; at
// every horizontal-part clearing the navigator re-picks (merge policy, ℓ)
// from the cost model.
#include <cstdio>
#include <memory>

#include "env/env.h"
#include "filter/bloom.h"
#include "lsm/db.h"
#include "tuning/cost_model.h"
#include "workload/generator.h"

using namespace talus;

namespace {

void ShowCostModel() {
  std::printf("Cost model landscape (n = 32 buffers, 5 bits/key, P = 4):\n");
  std::printf("%10s | %-24s\n", "update %", "navigator choice");
  for (int w = 0; w <= 100; w += 10) {
    WorkloadMix mix;
    mix.updates = w / 100.0;
    mix.point_lookups = 1.0 - mix.updates;
    const auto r =
        tuning::Navigate(32, BloomFalsePositiveRate(5.0), 4.0, mix);
    std::printf("%9d%% | %-24s\n", w, r.ToString().c_str());
  }
}

void RunPhase(DB* db, const char* name, const workload::OpMix& mix,
              int ops) {
  workload::KeySpaceSpec keys;
  keys.num_keys = 20000;
  keys.key_size = 32;
  keys.value_size = 480;
  workload::OpStream stream(keys, mix, 42);
  for (int i = 0; i < ops; i++) {
    const auto op = stream.Next();
    const std::string key = workload::FormatKey(op.key_index, keys.key_size);
    if (op.type == workload::OpType::kUpdate) {
      db->Put(key, workload::MakeValue(op.key_index, i, keys.value_size));
    } else {
      std::string value;
      db->Get(key, &value);
    }
  }
  const tuning::HorizontalDesign top = *db->policy()->design()->horizontal;
  std::printf("%-14s -> horizontal part: %s with l=%d, capacity %llu "
              "buffers\n",
              name, MergePolicyName(top.merge), top.levels,
              static_cast<unsigned long long>(top.buffers));
}

}  // namespace

int main() {
  ShowCostModel();

  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.path = "/selftune";
  options.write_buffer_size = 32 << 10;
  options.target_file_size = 32 << 10;
  options.policy = GrowthPolicyConfig::Vertiorizon(6.0);
  options.policy.vrn_measure_mix = true;  // Self-designing: no oracle mix.

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("\nLive redesign across workload phases (policy re-tunes at "
              "each horizontal clear):\n");
  RunPhase(db.get(), "write-heavy", workload::WriteHeavyMix(), 30000);
  RunPhase(db.get(), "balanced", workload::BalancedMix(), 30000);
  RunPhase(db.get(), "read-heavy", workload::ReadHeavyMix(), 30000);
  RunPhase(db.get(), "write-heavy", workload::WriteHeavyMix(), 30000);

  std::printf("\nfinal tree:\n%s", db->DebugString().c_str());
  return 0;
}
