#include "tuning/vertical_cost_model.h"

#include <algorithm>
#include <cmath>

namespace talus {
namespace tuning {

int VerticalCostModel::Levels() const {
  const double n = std::max<double>(2.0, static_cast<double>(data_buffers));
  const double t = std::max(2.0, size_ratio);
  return std::max(1, static_cast<int>(std::ceil(std::log(n) / std::log(t))));
}

double VerticalCostModel::PointLookupCost(MergePolicy merge) const {
  const double L = Levels();
  if (merge == MergePolicy::kLeveling) {
    return L * bloom_fpr;
  }
  return L * size_ratio * bloom_fpr;  // Up to T runs per level.
}

double VerticalCostModel::RangeLookupCost(MergePolicy merge) const {
  if (bloom_fpr <= 0) return 0;
  return PointLookupCost(merge) / bloom_fpr;
}

double VerticalCostModel::UpdateCost(MergePolicy merge) const {
  const double L = Levels();
  if (merge == MergePolicy::kLeveling) {
    // Each entry is rewritten ~(T+1)/2 times per level before moving on.
    return L * (size_ratio + 1.0) / (2.0 * page_entries);
  }
  return L / page_entries;  // One write per level.
}

double VerticalCostModel::Zeta(MergePolicy merge,
                               const WorkloadMix& mix) const {
  return mix.updates * UpdateCost(merge) +
         mix.point_lookups * PointLookupCost(merge) +
         mix.range_lookups * RangeLookupCost(merge);
}

VerticalChoice BestVertical(double bloom_fpr, double page_entries,
                            uint64_t data_buffers, const WorkloadMix& mix) {
  VerticalChoice best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    for (double t : {2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 16.0, 32.0}) {
      VerticalCostModel model;
      model.size_ratio = t;
      model.bloom_fpr = bloom_fpr;
      model.page_entries = page_entries;
      model.data_buffers = data_buffers;
      const double c = model.Zeta(merge, mix);
      if (first || c < best.cost) {
        best.merge = merge;
        best.size_ratio = t;
        best.cost = c;
        first = false;
      }
    }
  }
  return best;
}

}  // namespace tuning
}  // namespace talus
