// Cost model for the horizontal part of Vertiorizon (§5.2) and the
// saddle-point navigator that picks the merge policy and level count.
//
// Per-operation I/O costs for a horizontal part holding n buffers across ℓ
// levels, with Bloom false-positive rate f and page size P entries:
//
//   R_l = ℓ·f                                   point lookup, leveling
//   R_t = τ(n,ℓ)·f / n                          point lookup, tiering (Eq. 3)
//   Q   = R / f                                 range lookup
//   W_t = ℓ / P                                 update, tiering
//   W_l = Ω(n,ℓ) / (n·P)                        update, leveling (Eq. 4)
//   ζ   = w·W + r·R + q·Q                       weighted mix (Eq. 5)
//
// where τ is Lemma 9.4's read-cost closed form and Ω is Lemma 5.2's
// write-cost closed form. The merge policy is the engine's one MergePolicy
// (tuning/workload_mix.h), so the Vertiorizon policy installs the
// navigator's pick as is.
#ifndef TALUS_TUNING_COST_MODEL_H_
#define TALUS_TUNING_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "tuning/workload_mix.h"

namespace talus {
namespace tuning {

struct HorizontalCostModel {
  uint64_t capacity_buffers = 16;  // n.
  double bloom_fpr = 0.1;          // f.
  double page_entries = 4.0;       // P.

  double PointLookupCost(MergePolicy merge, int levels) const;
  double RangeLookupCost(MergePolicy merge, int levels) const;
  double UpdateCost(MergePolicy merge, int levels) const;

  /// ζ (Eq. 5) for a candidate design.
  double Zeta(MergePolicy merge, int levels,
              const WorkloadMix& mix) const;
};

struct NavigatorResult {
  MergePolicy merge = MergePolicy::kLeveling;
  int levels = 2;
  double cost = 0;

  std::string ToString() const;
};

/// §5.2 navigator: for each merge policy walk ℓ from 2 upward to the saddle
/// point of the convex cost curve, then take the cheaper policy.
/// `max_levels` bounds the search (ℓ can never exceed n).
NavigatorResult Navigate(const HorizontalCostModel& model,
                         const WorkloadMix& mix, int max_levels = 64);

/// Reference oracle: full scan over both policies and every ℓ in range.
/// The property tests assert Navigate() == NavigateExhaustive().
NavigatorResult NavigateExhaustive(const HorizontalCostModel& model,
                                   const WorkloadMix& mix,
                                   int max_levels = 64);

}  // namespace tuning
}  // namespace talus

#endif  // TALUS_TUNING_COST_MODEL_H_
