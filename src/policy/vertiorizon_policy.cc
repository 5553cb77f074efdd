#include "policy/vertiorizon_policy.h"

#include <algorithm>
#include <cmath>

#include "filter/bloom.h"
#include "obs/amp_tracker.h"
#include "theory/binomial.h"
#include "theory/schemes.h"
#include "util/coding.h"

namespace talus {

VertiorizonPolicy::VertiorizonPolicy(const GrowthPolicyConfig& config,
                                     const PolicyContext& ctx)
    : config_(config),
      buffer_bytes_(ctx.buffer_bytes),
      amp_(ctx.amp),
      h_levels_(std::clamp(config.vrn_fixed_levels, 1,
                           kMaxHorizontalLevels)),
      h_merge_(config.vrn_fixed_merge),
      n_cap_(std::max(2, config.vrn_initial_capacity_buffers)),
      counters_(h_levels_, h_merge_ == MergePolicy::kTiering, 0, 0) {
  if (config_.vrn_self_tuning) {
    Retune();
  } else {
    RearmCounters();
  }
}

std::string VertiorizonPolicy::name() const {
  if (config_.vrn_self_tuning) return "vertiorizon";
  return config_.vrn_fixed_merge == MergePolicy::kTiering
             ? "vertiorizon-fixed-tiering"
             : "vertiorizon-fixed-leveling";
}

MergeMode VertiorizonPolicy::FlushMode(const Version& v) const {
  return h_merge_ == MergePolicy::kTiering ? MergeMode::kNewRun
                                           : MergeMode::kMergeIntoRun;
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

uint64_t VertiorizonPolicy::CurrentDelta() const {
  if (!config_.skew_adaptation || h_merge_ != MergePolicy::kLeveling) {
    return 0;
  }
  return theory::SkewDelta(config_.skew_alpha);
}

void VertiorizonPolicy::Retune() {
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
  h_levels_ = std::clamp(best.levels, 1, kMaxHorizontalLevels);
  h_merge_ = best.merge;
  RearmCounters();
}

void VertiorizonPolicy::RearmCounters() {
  if (h_merge_ == MergePolicy::kTiering) {
    k_ = theory::FindK(std::max<uint64_t>(2, n_cap_),
                       static_cast<uint64_t>(h_levels_));
    counters_ = HorizontalCounters(h_levels_, /*tiering=*/true, k_, 0);
  } else {
    k_ = 0;
    counters_ =
        HorizontalCounters(h_levels_, /*tiering=*/false, 0, CurrentDelta());
  }
}

void VertiorizonPolicy::OnFlushCompleted(const Version& v) {
  pending_cascade_ = counters_.OnFlush();
  if (HorizontalBytes(v) >= HorizontalCapacityBytes()) {
    pending_clear_ = true;
    pending_cascade_ = -1;  // Superseded by the clear.
  }
}

std::optional<CompactionRequest> VertiorizonPolicy::PickCompaction(
    const Version& v) {
  // 1. Horizontal part full → full compaction into V1.
  if (pending_clear_) {
    pending_clear_ = false;
    auto req = MakeCascadeRequest(v, 0, kMaxHorizontalLevels - 1,
                                  /*merge_into_existing=*/true,
                                  "vertiorizon-clear");
    // MakeCascadeRequest targets base+cascade_end+1 = kMaxHorizontalLevels,
    // which is exactly V1, merging into its run when present.
    if (req.has_value()) return req;
  }

  // 2. Internal horizontal cascade.
  if (pending_cascade_ >= 0) {
    const int e = pending_cascade_;
    pending_cascade_ = -1;
    if (e + 1 < h_levels_) {
      return MakeCascadeRequest(v, 0, e,
                                h_merge_ == MergePolicy::kLeveling,
                                "vertiorizon-horizontal");
    }
    // A cascade that would spill past the active horizontal levels is
    // deferred to the capacity clear (the part is nearly full anyway).
    pending_clear_ = true;
    return PickCompaction(v);
  }

  // 3. V1 over capacity → single-file partial compactions into V2.
  const int v1 = v1_level();
  const int v2 = v2_level();
  if (v1 < static_cast<int>(v.levels.size()) && !v.levels[v1].empty() &&
      v.levels[v1].TotalBytes() > V1CapacityBytes()) {
    const SortedRun& run = v.levels[v1].runs[0];
    // Round-robin pick.
    const FileMetaPtr* picked = &run.files.front();
    if (!v1_cursor_.empty()) {
      for (const auto& f : run.files) {
        if (f->smallest.user_key().compare(Slice(v1_cursor_)) > 0) {
          picked = &f;
          break;
        }
      }
    }
    v1_cursor_ = (*picked)->largest.user_key().ToString();
    CompactionRequest req;
    req.inputs.push_back({v1, run.run_id, {(*picked)->number}});
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
  if (req.reason.rfind("vertiorizon-clear", 0) != 0) return;
  // Clear boundary: the horizontal part is empty — the free moment to
  // resize and redesign (§5.1, §5.2).
  if (pending_resize_) {
    const double T = config_.size_ratio;
    n_cap_ = static_cast<uint64_t>(
        std::ceil(static_cast<double>(n_cap_) * (1.0 + 1.0 / T)));
    pending_resize_ = false;
  }
  if (config_.vrn_self_tuning) {
    Retune();
  } else {
    RearmCounters();
  }
}

std::vector<LevelFilterInfo> VertiorizonPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  const uint64_t entries = v.TotalEntries();
  uint64_t payload = 0;
  for (const auto& l : v.levels) payload += l.PayloadBytes();
  const double entry_bytes =
      entries > 0 ? static_cast<double>(payload) / entries : 1024.0;
  const double to_entries = 1.0 / std::max(1.0, entry_bytes);

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
  PutVarint64(&out, static_cast<uint64_t>(h_levels_));
  out.push_back(h_merge_ == MergePolicy::kTiering ? 1 : 0);
  PutVarint64(&out, n_cap_);
  PutVarint64(&out, k_);
  counters_.EncodeTo(&out);
  PutVarint64(&out, static_cast<uint64_t>(pending_cascade_ + 1));
  out.push_back(pending_clear_ ? 1 : 0);
  out.push_back(pending_resize_ ? 1 : 0);
  PutLengthPrefixedSlice(&out, Slice(v1_cursor_));
  return out;
}

bool VertiorizonPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  uint64_t levels, pending;
  if (!GetVarint64(&input, &levels) || input.empty()) return false;
  h_levels_ = static_cast<int>(levels);
  h_merge_ = input[0] != 0 ? MergePolicy::kTiering : MergePolicy::kLeveling;
  input.remove_prefix(1);
  if (!GetVarint64(&input, &n_cap_) || !GetVarint64(&input, &k_) ||
      !counters_.DecodeFrom(&input) || !GetVarint64(&input, &pending) ||
      input.size() < 2) {
    return false;
  }
  pending_cascade_ = static_cast<int>(pending) - 1;
  pending_clear_ = input[0] != 0;
  pending_resize_ = input[1] != 0;
  input.remove_prefix(2);
  Slice cursor;
  if (!GetLengthPrefixedSlice(&input, &cursor)) return false;
  v1_cursor_ = cursor.ToString();
  return true;
}

}  // namespace talus
