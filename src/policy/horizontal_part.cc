#include "policy/horizontal_part.h"

#include <algorithm>
#include <utility>

#include "theory/binomial.h"
#include "theory/schemes.h"
#include "util/coding.h"

namespace talus {

HorizontalPart::HorizontalPart(MergePolicy merge, int levels,
                               const GrowthPolicyConfig& config,
                               std::string tag, std::string clear_tag)
    : merge_(merge),
      counters_(std::max(1, levels), 0),
      delta_(merge == MergePolicy::kLeveling && config.skew_adaptation
                 ? theory::SkewDelta(config.skew_alpha)
                 : 0),
      tag_(std::move(tag)),
      clear_tag_(std::move(clear_tag)) {}

MergeMode HorizontalPart::FlushMode() const {
  return merge_ == MergePolicy::kTiering ? MergeMode::kNewRun
                                         : MergeMode::kMergeIntoRun;
}

void HorizontalPart::Arm(uint64_t flushes) {
  Rearm(merge_ == MergePolicy::kTiering
            ? theory::FindK(std::max<uint64_t>(2, flushes),
                            static_cast<uint64_t>(levels()))
            : 0);
}

void HorizontalPart::Rearm(uint64_t k) {
  k_ = k;
  std::fill(counters_.begin(), counters_.end(), k);
}

int HorizontalPart::OnFlush() {
  const int levels = this->levels();
  int cascade_end = -1;
  if (merge_ == MergePolicy::kTiering) {
    if (counters_[0] > 0) counters_[0]--;
    for (int i = 0; i + 1 < levels; i++) {
      if (counters_[i] == 0) {
        cascade_end = i;
        if (counters_[i + 1] > 0) counters_[i + 1]--;
        for (int j = 0; j <= i; j++) counters_[j] = counters_[i + 1];
      } else {
        break;
      }
    }
  } else {
    counters_[0]++;
    for (int i = 0; i + 1 < levels; i++) {
      const uint64_t relax = (i == 0) ? delta_ : 0;
      if (counters_[i] > counters_[i + 1] + relax) {
        cascade_end = i;
        counters_[i + 1]++;
        counters_[i] = 0;
      } else {
        break;
      }
    }
  }
  pending_cascade_ = std::max(pending_cascade_, cascade_end);
  return cascade_end;
}

bool HorizontalPart::Drained() const {
  for (uint64_t c : counters_) {
    if (c != 0) return false;
  }
  return true;
}

std::optional<CompactionRequest> HorizontalPart::PickCascade(
    const Version& v) {
  if (pending_cascade_ < 0) return std::nullopt;
  const int e = std::exchange(pending_cascade_, -1);
  return MakeCascadeRequest(v, e, merge_ == MergePolicy::kLeveling, tag_);
}

std::optional<CompactionRequest> HorizontalPart::PickClear(const Version& v,
                                                           int through) {
  DropCascade();
  return MakeCascadeRequest(v, through, /*merge_into_existing=*/true,
                            clear_tag_);
}

bool HorizontalPart::IsClear(const CompactionRequest& req) const {
  return !clear_tag_.empty() && req.reason.rfind(clear_tag_, 0) == 0;
}

void HorizontalPart::EncodeTo(std::string* out, bool with_k) const {
  if (with_k) PutVarint64(out, k_);
  PutVarint64(out, counters_.size());
  for (uint64_t c : counters_) PutVarint64(out, c);
  PutVarint64(out, delta_);
  out->push_back(merge_ == MergePolicy::kTiering ? 1 : 0);
  PutVarint64(out, static_cast<uint64_t>(pending_cascade_ + 1));
}

bool HorizontalPart::DecodeFrom(Slice* input, bool with_k) {
  uint64_t n, pending;
  if ((with_k && !GetVarint64(input, &k_)) || !GetVarint64(input, &n) ||
      n != counters_.size()) {
    return false;
  }
  for (uint64_t& c : counters_) {
    if (!GetVarint64(input, &c)) return false;
  }
  const char merge = merge_ == MergePolicy::kTiering ? 1 : 0;
  if (!GetVarint64(input, &delta_) || input->empty() ||
      (*input)[0] != merge) {
    return false;
  }
  input->remove_prefix(1);
  // A cascade [0..e] lands at most in the last level: e ≤ ℓ-2.
  if (!GetVarint64(input, &pending) || pending >= n) return false;
  pending_cascade_ = static_cast<int>(pending) - 1;
  return true;
}

std::optional<CompactionRequest> HorizontalPart::MakeCascadeRequest(
    const Version& v, int cascade_end, bool merge_into_existing,
    const std::string& tag) {
  CompactionRequest req;
  bool any_input = false;
  for (int level = 0; level <= cascade_end; level++) {
    if (level >= static_cast<int>(v.levels.size())) break;
    for (const auto& run : v.levels[level].runs) {
      req.inputs.push_back({level, run.run_id, {}});
      any_input = true;
    }
  }
  if (!any_input) return std::nullopt;  // Cascade over empty levels: no-op.
  req.output_level = cascade_end + 1;
  if (merge_into_existing &&
      req.output_level < static_cast<int>(v.levels.size()) &&
      !v.levels[req.output_level].empty()) {
    req.output_run_id = v.levels[req.output_level].runs[0].run_id;
  }
  req.reason = tag + "-cascade[0.." + std::to_string(cascade_end) + "]";
  return req;
}

}  // namespace talus
