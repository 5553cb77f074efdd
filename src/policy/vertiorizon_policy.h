// VertiorizonPolicy (§5): the hybrid growth scheme.
//
// Layout: level indices [0, kMaxHorizontalLevels) are reserved for the
// horizontal part (the active design uses the first ℓ of them); the two
// vertical levels are pinned at kMaxHorizontalLevels and +1. Pinning lets
// the self-tuner change ℓ freely while the horizontal part is empty without
// relocating the vertical levels.
//
//  * Horizontal part: capacity n·B; a HorizontalPart running Algorithm 1
//    (leveling) or Algorithm 2 (tiering); on reaching capacity it is
//    cleared by one full compaction into V1.
//  * Vertical part: V1 capacity n·B·T' and V2 capacity n·B·T² with
//    T' = T/√2 (Eq. 2) when ratio optimization is on; V1 drains into V2 by
//    single-file partial compactions — the space-amplification/stall fix.
//  * Dynamic resizing: V2 reaching capacity arms a resize; at the next
//    clear, n grows by the factor (1 + 1/T).
//  * Self-tuning (§5.2): at every clear boundary the navigator re-picks
//    (merge policy, ℓ) from the cost model, fed by the configured workload
//    mix or the live mix measured by the engine.
//  * Skew adaptation (§5.3): under leveling, the first-level trigger is
//    relaxed by δ(α) per Eq. 6.
#ifndef TALUS_POLICY_VERTIORIZON_POLICY_H_
#define TALUS_POLICY_VERTIORIZON_POLICY_H_

#include "policy/horizontal_policy.h"
#include "policy/policy_config.h"
#include "tuning/cost_model.h"

namespace talus {

class VertiorizonPolicy : public GrowthPolicy {
 public:
  static constexpr int kMaxHorizontalLevels = 8;

  VertiorizonPolicy(const GrowthPolicyConfig& config,
                    const PolicyContext& ctx);

  std::string name() const override;
  MergeMode FlushMode(const Version& v) const override {
    return part_.FlushMode();
  }
  int RequiredLevels(const Version& v) const override {
    return kMaxHorizontalLevels + 2;
  }
  void OnFlushCompleted(const Version& v) override;
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;
  void OnCompactionCompleted(const CompactionRequest& req,
                             const Version& v) override;
  std::vector<LevelFilterInfo> FilterInfo(const Version& v) const override;
  std::string EncodeState() const override;
  bool DecodeState(const std::string& state) override;

  // Introspection for tests/benches.
  int horizontal_levels() const { return part_.levels(); }
  MergePolicy horizontal_merge() const { return part_.merge(); }
  uint64_t capacity_buffers() const { return n_cap_; }
  int v1_level() const { return kMaxHorizontalLevels; }
  int v2_level() const { return kMaxHorizontalLevels + 1; }

 private:
  uint64_t HorizontalBytes(const Version& v) const;
  uint64_t HorizontalCapacityBytes() const;
  double TPrime() const;
  uint64_t V1CapacityBytes() const;
  uint64_t V2CapacityBytes() const;
  HorizontalPart Part(MergePolicy merge, int levels) const;
  /// Arms a fresh part for the next phase: the navigator's design when
  /// self-tuning, else the running one.
  void StartPhase();

  GrowthPolicyConfig config_;
  uint64_t buffer_bytes_;
  const obs::AmpTracker* amp_;  // May be null.

  uint64_t n_cap_;  // Horizontal capacity in buffers.
  HorizontalPart part_;
  bool pending_clear_ = false;
  bool pending_resize_ = false;

  // Round-robin cursor for V1 → V2 partial compactions.
  std::string v1_cursor_;
};

}  // namespace talus

#endif  // TALUS_POLICY_VERTIORIZON_POLICY_H_
