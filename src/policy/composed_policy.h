// ComposedPolicy: every growth design but universal compaction, as an
// optional horizontal part (HorizontalPart, §3–§4) above an optional
// vertical part (VerticalPart, §3):
//
//  * VT-* and RocksDB-Tuned: a vertical part alone;
//  * HR-Level and HR-Tier: a horizontal part alone. Tiering counters that
//    drain (the data outgrew the estimate N) re-arm one higher, k+1, so the
//    decreasing-frequency pattern continues at the next scale (§4.2);
//  * Vertiorizon, VRN-Level and VRN-Tier (§5): a horizontal part of
//    capacity n·B over the two-level vertical part V1 (n·B·T′, T′ = T/√2 by
//    Eq. 2) and V2 (n·B·T²). Each clear starts a phase: the navigator
//    (§5.2) or the fixed design re-arms the part, and n grows by 1 + 1/T
//    once V2 has overflowed (§5.1). Skew adaptation (§5.3) relaxes a
//    leveled part's first-level trigger by δ(α) per Eq. 6;
//  * lazy leveling (Dostoevsky): a vertical part tiered except its last
//    level, which is leveled; its §5.4 embedding puts a horizontal-tiering
//    part of ℓ = L-1 levels over that one leveled level, with the capacity
//    B·T^(L-1) of the largest tiering level it replaces, re-armed at the
//    same k after each clear.
//
// When the horizontal part is full it is cleared into the first vertical
// level by one full compaction. Picks run in that order: the clear, the
// part's cascade, the vertical part's picks; when none is due and V2 is
// over capacity, Vertiorizon arms a resize for its next clear.
#ifndef TALUS_POLICY_COMPOSED_POLICY_H_
#define TALUS_POLICY_COMPOSED_POLICY_H_

#include <optional>

#include "policy/horizontal_part.h"
#include "policy/policy_config.h"
#include "policy/vertical_part.h"

namespace talus {

class ComposedPolicy : public GrowthPolicy {
 public:
  /// Vertiorizon reserves levels [0, 8) for its horizontal part (the active
  /// design uses the first ℓ) and pins V1 and V2 at 8 and 9, so the
  /// navigator can change ℓ without relocating the vertical levels.
  static constexpr int kMaxHorizontalLevels = 8;

  ComposedPolicy(const GrowthPolicyConfig& config, const PolicyContext& ctx);

  std::string name() const override { return name_; }
  MergeMode FlushMode(const Version& v) const override;
  int RequiredLevels(const Version& v) const override;
  void OnFlushCompleted(const Version& v) override;
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;
  void OnCompactionCompleted(const CompactionRequest& req,
                             const Version& v) override;
  std::vector<LevelFilterInfo> FilterInfo(const Version& v) const override;
  /// The horizontal part's live (merge, ℓ, n) above the vertical levels.
  std::optional<tuning::Design> design() const override;
  std::string EncodeState() const override;
  bool DecodeState(const std::string& state) override;

  // Introspection for tests, benches and examples.
  int v1_level() const { return bottom_->first_level(); }
  int v2_level() const { return bottom_->first_level() + 1; }
  uint64_t LevelCapacity(const Version& v, int level) const {
    return bottom_->Capacity(v, level);
  }

 private:
  /// Vertiorizon: the bottom's capacities follow n, and each phase may run
  /// another design of the horizontal part.
  bool redesigns() const { return bottom_ && bottom_->follows_top(); }
  /// HR-Level's state has no k: leveling counters alone have none.
  bool state_has_k() const {
    return bottom_ || top_->merge() == MergePolicy::kTiering;
  }
  /// Arms a fresh horizontal part for Vertiorizon's next phase: the
  /// navigator's design when self-tuning, else the running one.
  void StartPhase();

  GrowthPolicyConfig config_;
  const obs::AmpTracker* amp_;  // May be null.
  std::string name_;
  std::optional<HorizontalPart> top_;
  std::optional<VerticalPart> bottom_;
  bool pending_clear_ = false;
  bool pending_resize_ = false;
};

}  // namespace talus

#endif  // TALUS_POLICY_COMPOSED_POLICY_H_
