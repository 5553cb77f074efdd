// The horizontal part (§3–§4): a fixed number ℓ of levels whose capacities
// grow with the data, compacted only by full merges that counters schedule.
//
//  * Leveling — Algorithm 1 (§3): counters C_i start at 0; a flush
//    increments C_1; level i compacts into i+1 when C_i > C_{i+1}
//    (first-level trigger relaxed by δ under §5.3 skew adaptation).
//  * Tiering — Algorithm 2 (§4): counters start at k, the smallest k with
//    C(k+ℓ-1, ℓ) ≥ N/B; a flush decrements C_1; level i compacts when
//    C_i = 0, then C_{i+1} -= 1 and C_j ← C_{i+1} for all j ≤ i. The
//    resulting compaction sequence is read-optimal (Theorem 4.2).
//
// Triggered levels always form a prefix [1..e], merged into one multi-level
// op (footnote 6). HorizontalPart is that machinery. ComposedPolicy runs it
// alone (HR-Level, HR-Tier) or above a VerticalPart (Vertiorizon §5, lazy
// leveling's §5.4 embedding), clearing it into the first vertical level by
// one full compaction when it fills.
#ifndef TALUS_POLICY_HORIZONTAL_PART_H_
#define TALUS_POLICY_HORIZONTAL_PART_H_

#include "policy/growth_policy.h"
#include "policy/policy_config.h"

namespace talus {

/// One horizontal part's state and lifecycle over levels [0, ℓ).
class HorizontalPart {
 public:
  /// A part of `levels` levels at [0, levels), merging per `merge`. Its
  /// cascades are labeled `tag`, its clears `clear_tag`. Under leveling
  /// with skew adaptation, the first-level trigger is relaxed by δ(α).
  HorizontalPart(MergePolicy merge, int levels,
                 const GrowthPolicyConfig& config, std::string tag,
                 std::string clear_tag = {});

  const std::string& tag() const { return tag_; }
  const std::string& clear_tag() const { return clear_tag_; }
  MergePolicy merge() const { return merge_; }
  int levels() const { return static_cast<int>(counters_.size()); }
  uint64_t k() const { return k_; }
  const std::vector<uint64_t>& counters() const { return counters_; }
  MergeMode FlushMode() const;

  /// Starts a phase sized for `flushes` flushes (at least 2): tiering
  /// counters start at the smallest k with C(k+ℓ-1, ℓ) ≥ flushes
  /// (Algorithm 2, line 2), leveling counters at 0.
  void Arm(uint64_t flushes);
  /// Starts a phase with every counter at `k`.
  void Rearm(uint64_t k);

  /// Runs the counters for one flush and folds the cascade it triggers into
  /// the recorded one, which then ends at the deeper of the two. Returns
  /// this flush's cascade end e (levels [0..e] merge into e+1), or -1.
  int OnFlush();
  /// Only tiering counters drain: all zero, the phase's flushes are spent.
  bool Drained() const;

  /// The recorded cascade as a request, consuming it.
  std::optional<CompactionRequest> PickCascade(const Version& v);
  void DropCascade() { pending_cascade_ = -1; }
  /// One full compaction of levels [0..through] into through+1, merged into
  /// the run there. It supersedes the recorded cascade.
  std::optional<CompactionRequest> PickClear(const Version& v, int through);
  bool IsClear(const CompactionRequest& req) const;

  /// State codec: [k] counters, δ, merge and the recorded cascade. The
  /// decoder rejects a counter count other than ℓ or another merge, so a
  /// store reopened with another design fails to open.
  void EncodeTo(std::string* out, bool with_k) const;
  bool DecodeFrom(Slice* input, bool with_k);

  /// Multi-level full-compaction request for a cascade [0..e] → e+1 over
  /// `v`. `merge_into_existing` lands it in the target's run (leveling)
  /// rather than as a fresh run (tiering).
  static std::optional<CompactionRequest> MakeCascadeRequest(
      const Version& v, int cascade_end, bool merge_into_existing,
      const std::string& tag);

 private:
  MergePolicy merge_;
  std::vector<uint64_t> counters_;
  uint64_t delta_;
  uint64_t k_ = 0;
  int pending_cascade_ = -1;
  std::string tag_;
  std::string clear_tag_;
};

}  // namespace talus

#endif  // TALUS_POLICY_HORIZONTAL_PART_H_
