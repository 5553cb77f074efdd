// LazyLevelingPolicy: Dostoevsky's lazy-leveling (Dayan & Idreos, SIGMOD'18)
// — tiering at every level except the largest, which is leveled. Two modes:
//
//  * baseline: vertical-style tiered upper levels (merge at T runs);
//  * embedded (§5.4): the upper levels are replaced by a horizontal-tiering
//    part (a HorizontalPart) with ℓ = L-1 levels and capacity B·T^(L-1)
//    (the size of the largest tiering level it replaces). When the part
//    fills, a full compaction merges it into the leveled last level and the
//    counters re-arm. Update cost matches the baseline; lookup cost
//    improves by Theorem 4.2 — exactly the claim Figure 10(b–e) validates.
#ifndef TALUS_POLICY_LAZY_LEVELING_POLICY_H_
#define TALUS_POLICY_LAZY_LEVELING_POLICY_H_

#include "policy/horizontal_policy.h"
#include "policy/policy_config.h"

namespace talus {

class LazyLevelingPolicy : public GrowthPolicy {
 public:
  LazyLevelingPolicy(const GrowthPolicyConfig& config,
                     const PolicyContext& ctx);

  std::string name() const override {
    return config_.lazy_embed_vertiorizon ? "lazy-leveling-vertiorizon"
                                          : "lazy-leveling";
  }
  MergeMode FlushMode(const Version& v) const override {
    return MergeMode::kNewRun;
  }
  int RequiredLevels(const Version& v) const override {
    return config_.lazy_levels;
  }
  void OnFlushCompleted(const Version& v) override;
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;
  void OnCompactionCompleted(const CompactionRequest& req,
                             const Version& v) override;
  std::vector<LevelFilterInfo> FilterInfo(const Version& v) const override;
  std::string EncodeState() const override;
  bool DecodeState(const std::string& state) override;

 private:
  int last_level() const { return config_.lazy_levels - 1; }
  uint64_t UpperCapacityBytes() const;

  GrowthPolicyConfig config_;
  uint64_t buffer_bytes_;
  // Embedded mode: the horizontal part over the upper L-1 levels. The
  // baseline leaves it unarmed but persists it all the same.
  HorizontalPart part_;
  bool pending_clear_ = false;
};

}  // namespace talus

#endif  // TALUS_POLICY_LAZY_LEVELING_POLICY_H_
