#include "tuning/cost_model.h"

#include <algorithm>
#include <cstdio>

#include "theory/schemes.h"

namespace talus {
namespace tuning {

double HorizontalCostModel::PointLookupCost(MergePolicy merge,
                                            int levels) const {
  if (merge == MergePolicy::kLeveling) {
    return static_cast<double>(levels) * bloom_fpr;  // R_l = ℓ·f.
  }
  // R_t (Eq. 3): amortized probes per lookup over the fill of the part.
  const uint64_t n = std::max<uint64_t>(1, capacity_buffers);
  const uint64_t tau = theory::TieringReadCostClosedForm(n, levels);
  return static_cast<double>(tau) * bloom_fpr / static_cast<double>(n);
}

double HorizontalCostModel::RangeLookupCost(MergePolicy merge,
                                            int levels) const {
  // Q = R / f: every run is touched regardless of the filters.
  if (bloom_fpr <= 0) return 0;
  return PointLookupCost(merge, levels) / bloom_fpr;
}

double HorizontalCostModel::UpdateCost(MergePolicy merge, int levels) const {
  if (merge == MergePolicy::kTiering) {
    return static_cast<double>(levels) / page_entries;  // W_t = ℓ/P.
  }
  // W_l (Eq. 4).
  const uint64_t n = std::max<uint64_t>(1, capacity_buffers);
  const uint64_t omega = theory::LevelingWriteCostClosedForm(n, levels);
  return static_cast<double>(omega) /
         (static_cast<double>(n) * page_entries);
}

double HorizontalCostModel::Zeta(MergePolicy merge, int levels,
                                 const WorkloadMix& mix) const {
  return mix.updates * UpdateCost(merge, levels) +
         mix.point_lookups * PointLookupCost(merge, levels) +
         mix.range_lookups * RangeLookupCost(merge, levels);
}

std::string NavigatorResult::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s l=%d zeta=%.6f",
                MergePolicyName(merge), levels, cost);
  return buf;
}

namespace {

int LevelCap(const HorizontalCostModel& model, int max_levels) {
  // ℓ cannot usefully exceed n (one buffer per level already fits the data).
  const uint64_t n = std::max<uint64_t>(2, model.capacity_buffers);
  return static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(max_levels), n));
}

}  // namespace

NavigatorResult Navigate(const HorizontalCostModel& model,
                         const WorkloadMix& mix, int max_levels) {
  const int cap = LevelCap(model, max_levels);
  NavigatorResult best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    // The cost curves are convex in ℓ (§5.2): walk up from the minimum
    // feasible ℓ = 2 and stop at the first increase (saddle point). ℓ = 1
    // is included as a degenerate candidate for tiny capacities.
    int lo = std::min(2, cap);
    double prev = model.Zeta(merge, lo, mix);
    int best_l = lo;
    double best_cost = prev;
    for (int l = lo + 1; l <= cap; l++) {
      const double c = model.Zeta(merge, l, mix);
      if (c < best_cost) {
        best_cost = c;
        best_l = l;
      }
      if (c > prev) break;  // Past the saddle point.
      prev = c;
    }
    if (first || best_cost < best.cost) {
      best.merge = merge;
      best.levels = best_l;
      best.cost = best_cost;
      first = false;
    }
  }
  return best;
}

NavigatorResult NavigateExhaustive(const HorizontalCostModel& model,
                                   const WorkloadMix& mix, int max_levels) {
  const int cap = LevelCap(model, max_levels);
  NavigatorResult best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    for (int l = std::min(2, cap); l <= cap; l++) {
      const double c = model.Zeta(merge, l, mix);
      if (first || c < best.cost) {
        best.merge = merge;
        best.levels = l;
        best.cost = c;
        first = false;
      }
    }
  }
  return best;
}

}  // namespace tuning
}  // namespace talus
