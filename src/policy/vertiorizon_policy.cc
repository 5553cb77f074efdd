#include "policy/vertiorizon_policy.h"

#include <algorithm>
#include <cmath>

#include "filter/bloom.h"
#include "obs/amp_tracker.h"
#include "util/coding.h"

namespace talus {

VertiorizonPolicy::VertiorizonPolicy(const GrowthPolicyConfig& config,
                                     const PolicyContext& ctx)
    : config_(config),
      buffer_bytes_(ctx.buffer_bytes),
      amp_(ctx.amp),
      n_cap_(std::max(2, config.vrn_initial_capacity_buffers)),
      part_(Part(config.vrn_fixed_merge, config.vrn_fixed_levels)) {
  StartPhase();
}

std::string VertiorizonPolicy::name() const {
  if (config_.vrn_self_tuning) return "vertiorizon";
  return config_.vrn_fixed_merge == MergePolicy::kTiering
             ? "vertiorizon-fixed-tiering"
             : "vertiorizon-fixed-leveling";
}

uint64_t VertiorizonPolicy::HorizontalBytes(const Version& v) const {
  uint64_t total = 0;
  const int limit =
      std::min(kMaxHorizontalLevels, static_cast<int>(v.levels.size()));
  for (int i = 0; i < limit; i++) total += v.levels[i].TotalBytes();
  return total;
}

uint64_t VertiorizonPolicy::HorizontalCapacityBytes() const {
  return n_cap_ * buffer_bytes_;
}

double VertiorizonPolicy::TPrime() const {
  const double T = config_.size_ratio;
  return config_.vrn_optimize_ratio ? T / std::sqrt(2.0) : T;
}

uint64_t VertiorizonPolicy::V1CapacityBytes() const {
  return static_cast<uint64_t>(
      static_cast<double>(HorizontalCapacityBytes()) * TPrime());
}

uint64_t VertiorizonPolicy::V2CapacityBytes() const {
  const double T = config_.size_ratio;
  return static_cast<uint64_t>(
      static_cast<double>(HorizontalCapacityBytes()) * T * T);
}

HorizontalPart VertiorizonPolicy::Part(MergePolicy merge, int levels) const {
  return HorizontalPart(merge, std::clamp(levels, 1, kMaxHorizontalLevels),
                        config_, "vertiorizon-horizontal",
                        "vertiorizon-clear");
}

void VertiorizonPolicy::StartPhase() {
  MergePolicy merge = part_.merge();
  int levels = part_.levels();
  if (config_.vrn_self_tuning) {
    WorkloadMix mix = config_.expected_mix;
    if (config_.vrn_measure_mix && amp_ != nullptr) {
      const obs::AmpSnapshot ops = amp_->Snapshot();
      if (ops.Operations() >= 100) mix = ops.Mix();
    }
    mix.Normalize();

    tuning::HorizontalCostModel model;
    model.capacity_buffers = n_cap_;
    model.bloom_fpr = BloomFalsePositiveRate(config_.bloom_bits_per_key);
    model.page_entries = std::max(1.0, config_.page_entries);

    const tuning::NavigatorResult best =
        tuning::Navigate(model, mix, kMaxHorizontalLevels);
    merge = best.merge;
    levels = best.levels;
  }
  part_ = Part(merge, levels);
  part_.Arm(n_cap_);
}

void VertiorizonPolicy::OnFlushCompleted(const Version& v) {
  part_.OnFlush();
  if (HorizontalBytes(v) >= HorizontalCapacityBytes()) {
    pending_clear_ = true;
    part_.DropCascade();  // Superseded by the clear.
  }
}

std::optional<CompactionRequest> VertiorizonPolicy::PickCompaction(
    const Version& v) {
  // 1. Horizontal part full → full compaction of the reserved levels into
  //    V1 (= kMaxHorizontalLevels), merging into its run when present.
  if (pending_clear_) {
    pending_clear_ = false;
    if (auto req = part_.PickClear(v, kMaxHorizontalLevels - 1)) return req;
  }

  // 2. Internal horizontal cascade.
  if (auto req = part_.PickCascade(v)) return req;

  // 3. V1 over capacity → single-file partial compactions into V2.
  const int v1 = v1_level();
  const int v2 = v2_level();
  if (v1 < static_cast<int>(v.levels.size()) && !v.levels[v1].empty() &&
      v.levels[v1].TotalBytes() > V1CapacityBytes()) {
    const SortedRun& run = v.levels[v1].runs[0];
    const FileMetaPtr& picked =
        PickRoundRobin(run, v1_cursor_.empty() ? nullptr : &v1_cursor_);
    v1_cursor_ = picked->largest.user_key().ToString();
    CompactionRequest req;
    req.inputs.push_back({v1, run.run_id, {picked->number}});
    req.output_level = v2;
    if (v2 < static_cast<int>(v.levels.size()) && !v.levels[v2].empty()) {
      req.output_run_id = v.levels[v2].runs[0].run_id;
    }
    req.reason = "vertiorizon-partial-v1v2";
    return req;
  }

  // 4. V2 over capacity → arm a resize for the next clear boundary.
  if (v2 < static_cast<int>(v.levels.size()) &&
      v.levels[v2].TotalBytes() > V2CapacityBytes()) {
    pending_resize_ = true;
  }
  return std::nullopt;
}

void VertiorizonPolicy::OnCompactionCompleted(const CompactionRequest& req,
                                              const Version& v) {
  if (!part_.IsClear(req)) return;
  // Clear boundary: the horizontal part is empty — the free moment to
  // resize and redesign (§5.1, §5.2).
  if (pending_resize_) {
    const double T = config_.size_ratio;
    n_cap_ = static_cast<uint64_t>(
        std::ceil(static_cast<double>(n_cap_) * (1.0 + 1.0 / T)));
    pending_resize_ = false;
  }
  StartPhase();
}

std::vector<LevelFilterInfo> VertiorizonPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  const double to_entries = 1.0 / MeanEntryBytes(v);
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    if (static_cast<int>(i) < kMaxHorizontalLevels) {
      // Horizontal levels share the part's capacity and oscillate
      // empty ↔ full between clears (§5.4's motivation).
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(HorizontalCapacityBytes()) * to_entries);
      info[i].expected_fill = 0.5;
    } else if (static_cast<int>(i) == v1_level()) {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(V1CapacityBytes()) * to_entries);
      info[i].expected_fill = 1.0;  // Partial compaction keeps V1 near full.
    } else {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(V2CapacityBytes()) * to_entries);
      info[i].expected_fill = 1.0;
    }
  }
  return info;
}

std::string VertiorizonPolicy::EncodeState() const {
  std::string out;
  PutVarint64(&out, static_cast<uint64_t>(part_.levels()));
  out.push_back(part_.merge() == MergePolicy::kTiering ? 1 : 0);
  PutVarint64(&out, n_cap_);
  part_.EncodeTo(&out, /*with_k=*/true);
  out.push_back(pending_clear_ ? 1 : 0);
  out.push_back(pending_resize_ ? 1 : 0);
  PutLengthPrefixedSlice(&out, Slice(v1_cursor_));
  return out;
}

bool VertiorizonPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  uint64_t levels;
  if (!GetVarint64(&input, &levels) || levels < 1 ||
      levels > kMaxHorizontalLevels || input.empty()) {
    return false;
  }
  // A fixed design's ℓ is the configured one, which its name does not
  // carry; only the navigator may have moved it.
  if (!config_.vrn_self_tuning &&
      levels != static_cast<uint64_t>(part_.levels())) {
    return false;
  }
  part_ = Part(input[0] != 0 ? MergePolicy::kTiering : MergePolicy::kLeveling,
               static_cast<int>(levels));
  input.remove_prefix(1);
  if (!GetVarint64(&input, &n_cap_) || !part_.DecodeFrom(&input, true) ||
      input.size() < 2) {
    return false;
  }
  pending_clear_ = input[0] != 0;
  pending_resize_ = input[1] != 0;
  input.remove_prefix(2);
  Slice cursor;
  if (!GetLengthPrefixedSlice(&input, &cursor)) return false;
  v1_cursor_ = cursor.ToString();
  return true;
}

}  // namespace talus
