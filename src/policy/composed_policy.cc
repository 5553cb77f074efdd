#include "policy/composed_policy.h"

#include <algorithm>
#include <cmath>

#include "filter/bloom.h"
#include "obs/amp_tracker.h"
#include "util/coding.h"

namespace talus {

namespace {

// Mean payload bytes per entry across `v` (1024 while it holds none), at
// least 1: FilterInfo converts byte capacities to entries with it.
double MeanEntryBytes(const Version& v) {
  const uint64_t entries = v.TotalEntries();
  uint64_t payload = 0;
  for (const auto& l : v.levels) payload += l.PayloadBytes();
  return std::max(1.0, entries > 0 ? static_cast<double>(payload) / entries
                                   : 1024.0);
}

}  // namespace

ComposedPolicy::ComposedPolicy(const GrowthPolicyConfig& config,
                               const PolicyContext& ctx)
    : config_(config), amp_(ctx.amp) {
  const uint64_t B = ctx.buffer_bytes;
  const double T = config.size_ratio;
  VerticalPart::Shape shape;
  shape.size_ratio = T;
  switch (config.scheme) {
    case GrowthScheme::kVertical:
      shape.sizing = config.dynamic_level_bytes
                         ? VerticalPart::Sizing::kDynamicBytes
                         : VerticalPart::Sizing::kExponential;
      shape.merge = config.merge;
      shape.granularity = config.granularity;
      shape.file_pick = config.file_pick;
      shape.tag = std::string("vertical-") + MergePolicyName(config.merge) +
                  (config.granularity == Granularity::kFull ? "-full"
                                                            : "-partial");
      name_ = shape.tag + (config.dynamic_level_bytes ? "-dynbytes" : "");
      bottom_.emplace(shape, B);
      break;
    case GrowthScheme::kHorizontalLeveling:
    case GrowthScheme::kHorizontalTiering: {
      const MergePolicy merge =
          config.scheme == GrowthScheme::kHorizontalTiering
              ? MergePolicy::kTiering
              : MergePolicy::kLeveling;
      name_ = std::string("horizontal-") + MergePolicyName(merge);
      top_.emplace(merge, config.horizontal_levels, config, name_);
      // N/B flushes (Algorithm 2, line 2); an unknown N arms for the fewest.
      uint64_t flushes = 0;
      if (config.horizontal_data_size > 0 && B > 0) {
        flushes = (config.horizontal_data_size + B - 1) / B;
      }
      top_->Arm(flushes);
      break;
    }
    case GrowthScheme::kVertiorizon:
      name_ = config.vrn_self_tuning ? "vertiorizon"
              : config.vrn_fixed_merge == MergePolicy::kTiering
                  ? "vertiorizon-fixed-tiering"
                  : "vertiorizon-fixed-leveling";
      shape.first_level = kMaxHorizontalLevels;
      shape.fixed_levels = 2;
      shape.sizing = VerticalPart::Sizing::kFollowsTop;
      shape.granularity = Granularity::kPartial;
      shape.first_ratio = config.vrn_optimize_ratio ? T / std::sqrt(2.0) : T;
      shape.top_buffers = std::max(2, config.vrn_initial_capacity_buffers);
      shape.tag = "vertiorizon-partial-v1v2";
      bottom_.emplace(shape, B);
      top_.emplace(config.vrn_fixed_merge,
                   std::clamp(config.vrn_fixed_levels, 1, kMaxHorizontalLevels),
                   config, "vertiorizon-horizontal", "vertiorizon-clear");
      StartPhase();
      break;
    case GrowthScheme::kLazyLeveling:
      if (!config.lazy_embed_vertiorizon) {
        name_ = "lazy-leveling";
        shape.fixed_levels = config.lazy_levels;
        shape.merge = MergePolicy::kTiering;
        shape.leveled_last = true;
        shape.tag = name_;
        bottom_.emplace(shape, B);
        break;
      }
      name_ = "lazy-leveling-vertiorizon";
      shape.first_level = config.lazy_levels - 1;
      shape.fixed_levels = 1;
      bottom_.emplace(shape, B);
      top_.emplace(MergePolicy::kTiering, config.lazy_levels - 1, config,
                   "lazy-embedded", "lazy-embedded-clear");
      top_->Arm(bottom_->TopCapacity() / std::max<uint64_t>(1, B));
      break;
    case GrowthScheme::kUniversal:
      break;  // UniversalPolicy: same-level merges, not a stack of levels.
  }
}

void ComposedPolicy::StartPhase() {
  MergePolicy merge = top_->merge();
  int levels = top_->levels();
  if (config_.vrn_self_tuning) {
    WorkloadMix mix = config_.expected_mix;
    if (config_.vrn_measure_mix && amp_ != nullptr) {
      const obs::AmpSnapshot ops = amp_->Snapshot();
      if (ops.Operations() >= 100) mix = ops.Mix();
    }
    mix.Normalize();

    const tuning::NavigatorResult best = tuning::Navigate(
        bottom_->top_buffers(),
        BloomFalsePositiveRate(config_.bloom_bits_per_key),
        config_.page_entries, mix, kMaxHorizontalLevels);
    merge = best.merge;
    levels = best.levels;
  }
  top_ = HorizontalPart(merge, std::clamp(levels, 1, kMaxHorizontalLevels),
                        config_, top_->tag(), top_->clear_tag());
  top_->Arm(bottom_->top_buffers());
}

MergeMode ComposedPolicy::FlushMode(const Version& /*v*/) const {
  return top_ ? top_->FlushMode() : bottom_->FlushMode();
}

int ComposedPolicy::RequiredLevels(const Version& v) const {
  return bottom_ ? bottom_->RequiredLevels(v) : top_->levels();
}

void ComposedPolicy::OnFlushCompleted(const Version& v) {
  if (!top_) return;
  top_->OnFlush();
  if (!bottom_) {
    if (top_->Drained()) top_->Rearm(top_->k() + 1);
    return;
  }
  uint64_t top_bytes = 0;
  const int first =
      std::min(bottom_->first_level(), static_cast<int>(v.levels.size()));
  for (int i = 0; i < first; i++) top_bytes += v.levels[i].TotalBytes();
  if (top_bytes >= bottom_->TopCapacity()) {
    pending_clear_ = true;
    // The clear supersedes the recorded cascade. Vertiorizon drops it
    // here; lazy leveling's embedding when it picks the clear.
    if (redesigns()) top_->DropCascade();
  }
}

std::optional<CompactionRequest> ComposedPolicy::PickCompaction(
    const Version& v) {
  if (top_) {
    // The horizontal part full → one full compaction of the levels above
    // the vertical part into its first level, merging into its run.
    if (pending_clear_) {
      pending_clear_ = false;
      if (auto req = top_->PickClear(v, bottom_->first_level() - 1)) {
        return req;
      }
    }
    if (auto req = top_->PickCascade(v)) return req;
  }
  if (!bottom_) return std::nullopt;
  if (auto req = bottom_->Pick(v)) return req;
  // V2 over capacity → arm a resize for the next clear boundary.
  if (redesigns() && bottom_->BottomOverflows(v)) pending_resize_ = true;
  return std::nullopt;
}

void ComposedPolicy::OnCompactionCompleted(const CompactionRequest& req,
                                           const Version& v) {
  if (bottom_) bottom_->OnCompactionCompleted(req, v);
  if (!top_ || !top_->IsClear(req)) return;
  // Clear boundary: the horizontal part is empty. Lazy leveling's embedding
  // starts its next phase at the same k. For Vertiorizon it is the free
  // moment to resize and redesign (§5.1, §5.2).
  if (!redesigns()) {
    top_->Rearm(top_->k());
    return;
  }
  if (pending_resize_) {
    bottom_->ResizeTop();
    pending_resize_ = false;
  }
  StartPhase();
}

std::vector<LevelFilterInfo> ComposedPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  const double entry_bytes = MeanEntryBytes(v);
  for (size_t i = 0; i < v.levels.size(); i++) {
    const int level = static_cast<int>(i);
    info[i].current_entries = v.levels[i].TotalEntries();
    if (bottom_) bottom_->Forecast(v, level, entry_bytes, &info[i]);
    if (top_ && (!bottom_ || level < bottom_->first_level())) {
      // Full compactions repeatedly empty horizontal levels; a level
      // averages about half the occupancy a capacity-based layout would
      // assume (§5.4). Alone, the part's levels grow unboundedly.
      info[i].expected_fill = 0.5;
    }
  }
  return info;
}

std::optional<tuning::Design> ComposedPolicy::design() const {
  tuning::Design d;
  if (top_) {
    d.horizontal = tuning::HorizontalDesign{top_->merge(), top_->levels()};
  }
  if (bottom_) bottom_->Describe(&d);
  return d;
}

std::string ComposedPolicy::EncodeState() const {
  std::string out;
  if (!top_ && bottom_->leveled_last()) {
    // Baseline lazy leveling keeps no state. Its stores hold what its §5.4
    // embedding persists while unarmed: ℓ = L-1 zero counters, no clear.
    HorizontalPart(MergePolicy::kTiering, config_.lazy_levels - 1, config_,
                   {})
        .EncodeTo(&out, /*with_k=*/true);
    out.push_back(0);
    return out;
  }
  if (redesigns()) {
    PutVarint64(&out, static_cast<uint64_t>(top_->levels()));
    out.push_back(top_->merge() == MergePolicy::kTiering ? 1 : 0);
    PutVarint64(&out, bottom_->top_buffers());
  }
  if (top_) top_->EncodeTo(&out, state_has_k());
  if (top_ && bottom_) out.push_back(pending_clear_ ? 1 : 0);
  if (redesigns()) out.push_back(pending_resize_ ? 1 : 0);
  if (bottom_) bottom_->EncodeTo(&out);
  return out;
}

bool ComposedPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;  // A fresh store.
  if (!top_ && bottom_->leveled_last()) return state == EncodeState();
  Slice input(state);
  if (redesigns()) {
    uint64_t levels, n;
    if (!GetVarint64(&input, &levels) || levels < 1 ||
        levels > kMaxHorizontalLevels || input.empty()) {
      return false;
    }
    // A fixed design's ℓ is the configured one, which its name does not
    // carry; only the navigator may have moved it.
    if (!config_.vrn_self_tuning &&
        levels != static_cast<uint64_t>(top_->levels())) {
      return false;
    }
    top_ = HorizontalPart(
        input[0] != 0 ? MergePolicy::kTiering : MergePolicy::kLeveling,
        static_cast<int>(levels), config_, top_->tag(), top_->clear_tag());
    input.remove_prefix(1);
    // n starts at 2 or more and only grows.
    if (!GetVarint64(&input, &n) || n < 2) return false;
    bottom_->set_top_buffers(n);
  }
  auto flag = [&input](bool* out) {
    if (input.empty()) return false;
    *out = input[0] != 0;
    input.remove_prefix(1);
    return true;
  };
  if (top_ && !top_->DecodeFrom(&input, state_has_k())) return false;
  if (top_ && bottom_ && !flag(&pending_clear_)) return false;
  if (redesigns() && !flag(&pending_resize_)) return false;
  if (bottom_ && !bottom_->DecodeFrom(&input)) return false;
  return input.empty();  // Trailing bytes are not this design's state.
}

}  // namespace talus
