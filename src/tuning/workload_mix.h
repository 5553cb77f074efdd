// The two inputs every cost-model evaluation shares (§5.2): MergePolicy,
// the leveling/tiering choice a design prices, and WorkloadMix, the
// (w, r, q) operation fractions — updates, point lookups, range lookups —
// that weight its costs. The engine measures the mix from its operation
// counts (obs::AmpSnapshot::Mix).
#ifndef TALUS_TUNING_WORKLOAD_MIX_H_
#define TALUS_TUNING_WORKLOAD_MIX_H_

namespace talus {

enum class MergePolicy { kLeveling, kTiering };

/// "leveling" or "tiering": the name every text surface prints.
inline const char* MergePolicyName(MergePolicy merge) {
  return merge == MergePolicy::kLeveling ? "leveling" : "tiering";
}

struct WorkloadMix {
  double updates = 0.5;        // w
  double point_lookups = 0.5;  // r
  double range_lookups = 0.0;  // q

  void Normalize() {
    double total = updates + point_lookups + range_lookups;
    if (total <= 0) {
      updates = point_lookups = 0.5;
      range_lookups = 0;
      return;
    }
    updates /= total;
    point_lookups /= total;
    range_lookups /= total;
  }
};

}  // namespace talus

#endif  // TALUS_TUNING_WORKLOAD_MIX_H_
