// WorkloadMix: the (w, r, q) operation fractions of §5.2 — updates, point
// lookups, range lookups — used to weight the cost model. The engine
// measures it from its operation counts (obs::AmpSnapshot::Mix).
#ifndef TALUS_TUNING_WORKLOAD_MIX_H_
#define TALUS_TUNING_WORKLOAD_MIX_H_

namespace talus {

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
