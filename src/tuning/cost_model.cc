#include "tuning/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "theory/schemes.h"

namespace talus {
namespace tuning {

namespace {

void Add(double update, double point, int levels, double f, Cost* total) {
  total->update += update;
  total->point += point;
  total->range += f > 0 ? point / f : 0;  // Every run is touched.
  total->levels += levels;
}

// `count` vertical levels of one merge at ratio T.
void AddVertical(MergePolicy merge, double T, int count, double f, double P,
                 Cost* total) {
  const double L = count;
  if (merge == MergePolicy::kLeveling) {
    // Each entry is rewritten ~(T+1)/2 times per level before moving on.
    Add(L * (T + 1.0) / (2.0 * P), L * f, count, f, total);
  } else {
    Add(L / P, L * T * f, count, f, total);  // Up to T runs per level.
  }
}

}  // namespace

Design Design::Horizontal(MergePolicy merge, int levels, uint64_t buffers) {
  return Design{HorizontalDesign{merge, levels, buffers}, {}, false};
}

Design Design::Vertical(MergePolicy merge, double size_ratio) {
  return Design{std::nullopt, {{merge, size_ratio}}, true};
}

std::string HorizontalDesign::ToString() const {
  return std::string("merge=") + MergePolicyName(merge) +
         " l=" + std::to_string(levels) +
         " n=" + (buffers > 0 ? std::to_string(buffers) : "N/B");
}

std::string Design::ToString() const {
  std::string out = horizontal ? "horizontal" : "";
  char buf[96];
  for (const VerticalLevel& level : vertical) {
    std::snprintf(buf, sizeof(buf), "%smerge=%s T=%.1f",
                  out.empty() ? "" : " + ", MergePolicyName(level.merge),
                  level.ratio);
    out += buf;
  }
  return out;
}

double Cost::Zeta(const WorkloadMix& mix) const {
  return mix.updates * update + mix.point_lookups * point +
         mix.range_lookups * range;
}

Cost Predict(const Design& design, double f, double page_entries,
             uint64_t data_buffers) {
  const double P = std::max(1.0, page_entries);
  const uint64_t nb = std::max<uint64_t>(1, data_buffers);
  const double data = std::max(2.0, static_cast<double>(nb));
  Cost total;
  double above = 1.0;  // Capacity above the first vertical level, buffers.
  if (const auto& h = design.horizontal) {
    const uint64_t n = std::max<uint64_t>(1, h->buffers > 0 ? h->buffers : nb);
    above = h->buffers > 0 ? static_cast<double>(n) : data;
    const double l = h->levels;
    if (h->merge == MergePolicy::kLeveling) {
      const uint64_t omega = theory::LevelingWriteCostClosedForm(n, h->levels);
      Add(static_cast<double>(omega) / (static_cast<double>(n) * P), l * f,
          h->levels, f, &total);
    } else {
      // Amortized probes per lookup over the fill of the part.
      const uint64_t tau = theory::TieringReadCostClosedForm(n, h->levels);
      Add(l / P, static_cast<double>(tau) * f / static_cast<double>(n),
          h->levels, f, &total);
    }
  }
  if (design.grows) {
    const VerticalLevel& level = design.vertical.front();
    const double T = std::max(2.0, level.ratio);
    AddVertical(level.merge, T,
                std::max(1, static_cast<int>(
                                std::ceil(std::log(data) / std::log(T)))),
                f, P, &total);
    return total;
  }
  for (const VerticalLevel& level : design.vertical) {
    if (data <= above) break;  // The data has not reached this level.
    AddVertical(level.merge, level.ratio, 1, f, P, &total);
    above *= level.ratio;
  }
  return total;
}

std::string NavigatorResult::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s l=%d zeta=%.6f",
                MergePolicyName(merge), levels, cost);
  return buf;
}

NavigatorResult Navigate(uint64_t buffers, double bloom_fpr,
                         double page_entries, const WorkloadMix& mix,
                         int max_levels) {
  // ℓ cannot usefully exceed n (one buffer per level already fits the data).
  const int cap = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(max_levels), std::max<uint64_t>(2, buffers)));
  NavigatorResult best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    // The cost curves are convex in ℓ (§5.2): walk up from the minimum
    // feasible ℓ = 2 and stop at the first increase (saddle point). ℓ = 1
    // is included as a degenerate candidate for tiny capacities.
    const int lo = std::min(2, cap);
    double prev = 0;
    for (int l = lo; l <= cap; l++) {
      const double c = Predict(Design::Horizontal(merge, l, buffers),
                               bloom_fpr, page_entries, buffers)
                           .Zeta(mix);
      if (first || c < best.cost) {
        best = {merge, l, c};
        first = false;
      }
      if (l > lo && c > prev) break;  // Past the saddle point.
      prev = c;
    }
  }
  return best;
}

NavigatorResult NavigateExhaustive(uint64_t buffers, double bloom_fpr,
                                   double page_entries, const WorkloadMix& mix,
                                   int max_levels) {
  // Every ℓ from 2 (1 when n < 2) up to min(n, max_levels).
  const uint64_t cap = std::min<uint64_t>(static_cast<uint64_t>(max_levels),
                                          std::max<uint64_t>(2, buffers));
  NavigatorResult best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    for (int l = cap < 2 ? 1 : 2; static_cast<uint64_t>(l) <= cap; l++) {
      const double c = Predict(Design::Horizontal(merge, l, buffers),
                               bloom_fpr, page_entries, buffers)
                           .Zeta(mix);
      if (first || c < best.cost) {
        best = {merge, l, c};
        first = false;
      }
    }
  }
  return best;
}

VerticalChoice BestVertical(double bloom_fpr, double page_entries,
                            uint64_t data_buffers, const WorkloadMix& mix) {
  VerticalChoice best;
  bool first = true;
  for (MergePolicy merge : {MergePolicy::kLeveling, MergePolicy::kTiering}) {
    for (double t : {2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 16.0, 32.0}) {
      const double c = Predict(Design::Vertical(merge, t), bloom_fpr,
                               page_entries, data_buffers)
                           .Zeta(mix);
      if (first || c < best.cost) {
        best = {merge, t, c};
        first = false;
      }
    }
  }
  return best;
}

}  // namespace tuning
}  // namespace talus
