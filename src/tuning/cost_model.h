// The cost model: Predict prices every growth design as the sum of its
// parts' per-operation I/O costs (DESIGN.md §6.7). With Bloom FPR f and P
// entries per page:
//
//   horizontal part, n buffers over ℓ levels (§5.2):
//     leveling: W = Ω(n,ℓ) / (n·P)  (Eq. 4, Lemma 5.2)   R = ℓ·f
//     tiering:  W = ℓ / P           R = τ(n,ℓ)·f / n  (Eq. 3, Lemma 5.1;
//                                   τ from Lemma 9.4)
//   vertical level at size ratio T to the capacity above it:
//     leveling: W = (T+1) / (2P)    R = f
//     tiering:  W = 1 / P           R = T·f
//   every part: Q = R / f;  ζ = w·W + r·R + q·Q  (Eq. 5)
//
// A growing vertical part has L = ceil(log_T(N/B)) levels, priced as L·W
// and L·R. A fixed one prices each level the data has reached: one whose
// capacity above (n buffers under a horizontal part, else one) is below
// N/B. The §5.2 navigator, the §9 tuner and the drift monitor all call it.
#ifndef TALUS_TUNING_COST_MODEL_H_
#define TALUS_TUNING_COST_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tuning/workload_mix.h"

namespace talus {
namespace tuning {

struct HorizontalDesign {
  MergePolicy merge = MergePolicy::kLeveling;
  int levels = 2;        // ℓ.
  uint64_t buffers = 0;  // n; 0: the part alone holds the data, n = N/B.

  /// "merge=<m> l=<ℓ> n=<n>", with "n=N/B" when the part holds the data.
  std::string ToString() const;
};

/// A vertical level's merge and its capacity over the capacity above it.
struct VerticalLevel {
  MergePolicy merge = MergePolicy::kLeveling;
  double ratio = 6.0;
};

/// The parts a design runs: an optional horizontal part above an optional
/// vertical part.
struct Design {
  std::optional<HorizontalDesign> horizontal;
  std::vector<VerticalLevel> vertical;  // Top level first.
  bool grows = false;  // The one vertical level repeats as the data grows.

  static Design Horizontal(MergePolicy merge, int levels, uint64_t buffers);
  static Design Vertical(MergePolicy merge, double size_ratio);

  /// Parts top first, joined by " + ": "horizontal" for the horizontal part
  /// (a Vertiorizon phase redesigns it), "merge=<m> T=<ratio>" for a
  /// growing part or each fixed level. Fixed while a configuration runs.
  std::string ToString() const;
};

inline bool operator==(const HorizontalDesign& a, const HorizontalDesign& b) {
  return a.merge == b.merge && a.levels == b.levels && a.buffers == b.buffers;
}
inline bool operator==(const VerticalLevel& a, const VerticalLevel& b) {
  return a.merge == b.merge && a.ratio == b.ratio;
}
inline bool operator==(const Design& a, const Design& b) {
  return a.horizontal == b.horizontal && a.vertical == b.vertical &&
         a.grows == b.grows;
}

struct Cost {
  double update = 0;  // W: page I/Os per update.
  double point = 0;   // R: false-positive probes per zero-result lookup.
  double range = 0;   // Q: runs a range lookup touches.
  int levels = 0;     // Levels priced.
  double Zeta(const WorkloadMix& mix) const;  // Eq. 5.
};

/// Prices `design` at f, P (at least 1) and N/B (at least 1); a growing
/// part's ratio counts as at least 2.
Cost Predict(const Design& design, double bloom_fpr, double page_entries,
             uint64_t data_buffers);

struct NavigatorResult {
  MergePolicy merge = MergePolicy::kLeveling;
  int levels = 2;
  double cost = 0;

  std::string ToString() const;
};

/// §5.2 navigator over a horizontal part of n = `buffers`: per merge policy
/// walk ℓ up from 2 to the saddle point of the convex cost curve (ℓ at most
/// min(n, max_levels)), then take the cheaper policy.
NavigatorResult Navigate(uint64_t buffers, double bloom_fpr,
                         double page_entries, const WorkloadMix& mix,
                         int max_levels = 64);
/// Reference oracle over every ℓ in range; tests assert it equals Navigate.
NavigatorResult NavigateExhaustive(uint64_t buffers, double bloom_fpr,
                                   double page_entries, const WorkloadMix& mix,
                                   int max_levels = 64);

/// The §9 tuner's pick: the cheapest growing vertical design, merge policy
/// × T over {2, 3, 4, 6, 8, 10, 16, 32}.
struct VerticalChoice {
  MergePolicy merge = MergePolicy::kLeveling;
  double size_ratio = 6.0;
  double cost = 0;
};
VerticalChoice BestVertical(double bloom_fpr, double page_entries,
                            uint64_t data_buffers, const WorkloadMix& mix);

}  // namespace tuning
}  // namespace talus

#endif  // TALUS_TUNING_COST_MODEL_H_
