// Analytical cost model for the *vertical* growth scheme (the classic
// Monkey/Dostoevsky formulas), complementing the horizontal model in
// cost_model.h. The drift monitor prices each window's running design
// with it, the adaptive tuner re-solves it from that window's sample
// (BestVertical), and tests certify the paper's model-space claim behind
// Figure 10(a) with it: for matched read cost, the horizontal scheme's
// write cost never exceeds the vertical scheme's (Bentley–Saxe
// optimality). `merge` is the engine's MergePolicy (tuning/workload_mix.h).
//
// With L levels, size ratio T, Bloom FPR f, page size P entries:
//   leveling: W = L·(T+1)/(2P)   R = L·f      Q = L
//   tiering:  W = L/P            R = L·T·f    Q = L·T
#ifndef TALUS_TUNING_VERTICAL_COST_MODEL_H_
#define TALUS_TUNING_VERTICAL_COST_MODEL_H_

#include <cstdint>

#include "tuning/cost_model.h"

namespace talus {
namespace tuning {

struct VerticalCostModel {
  double size_ratio = 6.0;    // T.
  double bloom_fpr = 0.1;     // f.
  double page_entries = 4.0;  // P.
  uint64_t data_buffers = 1024;  // N/B: total data in buffers.

  /// Number of levels needed for the data volume: ceil(log_T(N/B)).
  int Levels() const;

  double PointLookupCost(MergePolicy merge) const;
  double RangeLookupCost(MergePolicy merge) const;
  double UpdateCost(MergePolicy merge) const;

  double Zeta(MergePolicy merge, const WorkloadMix& mix) const;
};

/// Best vertical design (merge policy × T over `ratios`) for a mix.
struct VerticalChoice {
  MergePolicy merge = MergePolicy::kLeveling;
  double size_ratio = 6.0;
  double cost = 0;
};
VerticalChoice BestVertical(double bloom_fpr, double page_entries,
                            uint64_t data_buffers, const WorkloadMix& mix);

}  // namespace tuning
}  // namespace talus

#endif  // TALUS_TUNING_VERTICAL_COST_MODEL_H_
