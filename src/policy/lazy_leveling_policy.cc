#include "policy/lazy_leveling_policy.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"

namespace talus {

LazyLevelingPolicy::LazyLevelingPolicy(const GrowthPolicyConfig& config,
                                       const PolicyContext& ctx)
    : config_(config),
      buffer_bytes_(ctx.buffer_bytes),
      part_(MergePolicy::kTiering, config.lazy_levels - 1, config,
            "lazy-embedded", "lazy-embedded-clear") {
  if (config_.lazy_embed_vertiorizon) {
    part_.Arm(UpperCapacityBytes() / std::max<uint64_t>(1, buffer_bytes_));
  }
}

uint64_t LazyLevelingPolicy::UpperCapacityBytes() const {
  // Capacity of the replaced tiering structure: B·T^(L-1) (§5.4).
  return static_cast<uint64_t>(
      static_cast<double>(buffer_bytes_) *
      std::pow(config_.size_ratio, config_.lazy_levels - 1));
}

void LazyLevelingPolicy::OnFlushCompleted(const Version& v) {
  if (!config_.lazy_embed_vertiorizon) return;
  part_.OnFlush();

  // Horizontal part full → clear into the leveled last level.
  uint64_t upper_bytes = 0;
  for (int i = 0; i < last_level() && i < static_cast<int>(v.levels.size());
       i++) {
    upper_bytes += v.levels[i].TotalBytes();
  }
  if (upper_bytes >= UpperCapacityBytes()) {
    pending_clear_ = true;
  }
}

std::optional<CompactionRequest> LazyLevelingPolicy::PickCompaction(
    const Version& v) {
  if (config_.lazy_embed_vertiorizon) {
    if (pending_clear_) {
      pending_clear_ = false;
      if (auto req = part_.PickClear(v, last_level() - 1)) return req;
    }
    // Cascades stay within the part: they end above the last level.
    return part_.PickCascade(v);
  }

  // Baseline lazy-leveling: tiering with trigger T at levels 0..L-2; runs
  // arriving at the last level merge into its single leveled run.
  const auto trigger =
      static_cast<size_t>(std::max(2.0, std::floor(config_.size_ratio)));
  for (int i = 0; i < last_level() && i < static_cast<int>(v.levels.size());
       i++) {
    const LevelState& level = v.levels[i];
    if (level.NumRuns() < trigger) continue;
    CompactionRequest req;
    for (const auto& run : level.runs) {
      req.inputs.push_back({i, run.run_id, {}});
    }
    req.output_level = i + 1;
    if (i + 1 == last_level() &&
        i + 1 < static_cast<int>(v.levels.size()) &&
        !v.levels[i + 1].empty()) {
      req.output_run_id = v.levels[i + 1].runs[0].run_id;  // Leveled landing.
    }
    req.reason = "lazy-leveling L" + std::to_string(i);
    return req;
  }
  return std::nullopt;
}

void LazyLevelingPolicy::OnCompactionCompleted(const CompactionRequest& req,
                                               const Version& v) {
  // New phase for the emptied horizontal part.
  if (part_.IsClear(req)) part_.Rearm(part_.k());
}

std::vector<LevelFilterInfo> LazyLevelingPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  const double entry_bytes = MeanEntryBytes(v);
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    if (static_cast<int>(i) == last_level()) {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(buffer_bytes_) *
          std::pow(config_.size_ratio, config_.lazy_levels) / entry_bytes);
      info[i].expected_fill = 1.0;
    } else {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(buffer_bytes_) *
          std::pow(config_.size_ratio, i + 1) / entry_bytes);
      info[i].expected_fill = 0.5;  // Emptied by full compactions.
    }
  }
  return info;
}

std::string LazyLevelingPolicy::EncodeState() const {
  std::string out;
  part_.EncodeTo(&out, /*with_k=*/true);
  out.push_back(pending_clear_ ? 1 : 0);
  return out;
}

bool LazyLevelingPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  if (!part_.DecodeFrom(&input, /*with_k=*/true) || input.empty()) {
    return false;
  }
  pending_clear_ = input[0] != 0;
  return true;
}

}  // namespace talus
