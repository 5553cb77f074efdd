#include "policy/vertical_part.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"

namespace talus {

MergeMode VerticalPart::FlushMode() const {
  return shape_.merge == MergePolicy::kLeveling ? MergeMode::kMergeIntoRun
                                                : MergeMode::kNewRun;
}

int VerticalPart::RequiredLevels(const Version& v) const {
  if (shape_.fixed_levels > 0) return last_level() + 1;
  return std::max(shape_.first_level + 1, v.BottommostNonEmptyLevel() + 2);
}

MergePolicy VerticalPart::LevelMerge(int level) const {
  return shape_.leveled_last && level == last_level() ? MergePolicy::kLeveling
                                                      : shape_.merge;
}

uint64_t VerticalPart::StaticCapacity(int level) const {
  const double T = shape_.size_ratio;
  if (shape_.sizing == Sizing::kFollowsTop) {
    const uint64_t top = shape_.top_buffers * buffer_bytes_;
    if (level < shape_.first_level) return top;
    return static_cast<uint64_t>(
        level == shape_.first_level
            ? static_cast<double>(top) * shape_.first_ratio
            : static_cast<double>(top) * T * T);
  }
  return static_cast<uint64_t>(static_cast<double>(buffer_bytes_) *
                               std::pow(T, level + 1));
}

uint64_t VerticalPart::Capacity(const Version& v, int level) const {
  if (shape_.sizing != Sizing::kDynamicBytes) return StaticCapacity(level);
  // RocksDB-style dynamic level bytes: capacities anchor to the actual size
  // of the bottommost level so that it is always (nearly) full; upper levels
  // shrink by T per step, floored at B·T.
  const int last = v.BottommostNonEmptyLevel();
  if (last <= 0 || level >= last) return StaticCapacity(level);
  const double T = shape_.size_ratio;
  const double last_bytes = static_cast<double>(v.levels[last].TotalBytes());
  return static_cast<uint64_t>(
      std::max(last_bytes / std::pow(T, last - level),
               static_cast<double>(buffer_bytes_) * T));
}

void VerticalPart::Forecast(const Version& v, int level, double entry_bytes,
                            LevelFilterInfo* info) const {
  // Capacities are bytes engine-side, entries for the filter optimizer.
  // Vertiorizon's levels convert through the reciprocal (ROADMAP item 12
  // makes the forecasts one).
  const double capacity = static_cast<double>(Capacity(v, level));
  info->capacity_entries = static_cast<uint64_t>(
      follows_top() ? capacity * (1.0 / entry_bytes) : capacity / entry_bytes);
  // Partial compaction keeps a level near capacity, and nothing empties
  // the last level of a fixed stack; full compactions make a level
  // oscillate, hence 0.5 expected fill.
  info->expected_fill =
      shape_.granularity == Granularity::kPartial || level == last_level()
          ? 1.0
          : 0.5;
}

void VerticalPart::Describe(tuning::Design* design) const {
  const double T = shape_.size_ratio;
  if (design->horizontal) {
    design->horizontal->buffers =
        TopCapacity() / std::max<uint64_t>(1, buffer_bytes_);
  }
  design->grows = shape_.fixed_levels == 0;
  if (design->grows) design->vertical.push_back({shape_.merge, T});
  for (int i = 0; i < shape_.fixed_levels; i++) {
    // Vertiorizon's V1 holds n·B·T′ and V2 n·B·T² (Eq. 2).
    const double ratio = !follows_top() ? T
                         : i == 0       ? shape_.first_ratio
                                        : T * T / shape_.first_ratio;
    design->vertical.push_back({LevelMerge(first_level() + i), ratio});
  }
}

void VerticalPart::ResizeTop() {
  shape_.top_buffers = static_cast<uint64_t>(std::ceil(
      static_cast<double>(shape_.top_buffers) * (1.0 + 1.0 / shape_.size_ratio)));
}

bool VerticalPart::BottomOverflows(const Version& v) const {
  const int last = last_level();
  return last >= 0 && last < static_cast<int>(v.levels.size()) &&
         v.levels[last].TotalBytes() > Capacity(v, last);
}

std::string VerticalPart::Reason(int level) const {
  // Vertiorizon's stack has one move, named by its tag.
  if (follows_top()) return shape_.tag;
  return shape_.tag + " L" + std::to_string(level);
}

const FileMetaPtr& VerticalPart::PickFile(const SortedRun& run, int level) {
  if (shape_.file_pick == FilePick::kOldestSmallestSeqFirst) {
    size_t best = 0;
    for (size_t i = 1; i < run.files.size(); i++) {
      if (run.files[i]->oldest_seq < run.files[best]->oldest_seq) best = i;
    }
    return run.files[best];
  }
  // Round-robin over the key space: the first file starting after the
  // cursor (the largest key of the previous pick), wrapping to the front.
  const auto it = cursors_.find(level);
  if (it != cursors_.end() && !it->second.empty()) {
    for (const auto& f : run.files) {
      if (f->smallest.user_key().compare(Slice(it->second)) > 0) return f;
    }
  }
  return run.files.front();
}

std::optional<CompactionRequest> VerticalPart::Pick(const Version& v) {
  const auto trigger =
      static_cast<size_t>(std::max(2.0, std::floor(shape_.size_ratio)));
  // The last level of a fixed stack never compacts further.
  int end = static_cast<int>(v.levels.size());
  if (shape_.fixed_levels > 0) end = std::min(end, last_level());
  for (int i = shape_.first_level; i < end; i++) {
    const LevelState& level = v.levels[i];
    const bool tiered = LevelMerge(i) == MergePolicy::kTiering;
    if (tiered ? level.NumRuns() < trigger
               : level.empty() || level.TotalBytes() <= Capacity(v, i)) {
      continue;
    }
    if (tiered && shape_.granularity == Granularity::kPartial) {
      return PickPartialTiering(v, i);
    }

    CompactionRequest req;
    req.output_level = i + 1;
    req.reason = Reason(i);
    // A leveled level below takes the output into its run.
    if (LevelMerge(i + 1) == MergePolicy::kLeveling &&
        i + 1 < static_cast<int>(v.levels.size()) &&
        !v.levels[i + 1].empty()) {
      req.output_run_id = v.levels[i + 1].runs[0].run_id;
    }
    if (tiered) {
      // Merge every run of this level into one run below.
      for (const auto& run : level.runs) {
        req.inputs.push_back({i, run.run_id, {}});
      }
    } else if (shape_.granularity == Granularity::kFull) {
      req.inputs.push_back({i, level.runs[0].run_id, {}});
    } else {
      const SortedRun& run = level.runs[0];
      const FileMetaPtr& file = PickFile(run, i);
      // Advance the round-robin cursor now: the pick is deterministic and
      // the file is consumed by this compaction.
      cursors_[i] = file->largest.user_key().ToString();
      req.inputs.push_back({i, run.run_id, {file->number}});
    }
    return req;
  }
  return std::nullopt;
}

std::optional<CompactionRequest> VerticalPart::PickPartialTiering(
    const Version& v, int i) {
  // Move one file of the oldest run into the open accumulation run at the
  // next level. Draining only the oldest run is the version-order-safe
  // choice: everything else at this level is strictly newer, so nothing
  // newer can land below something older. The accumulation run absorbs
  // successive drains (merging overlaps) until it reaches the natural run
  // size of its level, B·T^level, then seals; without the size cap runs
  // would never consolidate and the tree degenerates into ever-deeper
  // single-file runs. The incremental re-merging into the accumulation run
  // is what gives VT-Tier-Part its extra write amplification relative to
  // full tiering, and the lingering partially-drained runs its extra read
  // amplification — both effects the paper reports for this baseline.
  const SortedRun& oldest = v.levels[i].runs.back();
  CompactionRequest req;
  req.output_level = i + 1;
  req.inputs.push_back({i, oldest.run_id, {oldest.files.front()->number}});
  uint64_t acc = accumulation_run_[i + 1];
  if (acc != 0) {
    const SortedRun* acc_run = i + 1 < static_cast<int>(v.levels.size())
                                   ? v.levels[i + 1].FindRun(acc)
                                   : nullptr;
    if (acc_run == nullptr || acc_run->TotalBytes() >= StaticCapacity(i)) {
      acc = 0;  // Seal: the next output starts a fresh run.
      accumulation_run_[i + 1] = 0;
    }
  }
  if (acc != 0) req.output_run_id = acc;
  req.reason = Reason(i);
  return req;
}

void VerticalPart::OnCompactionCompleted(const CompactionRequest& req,
                                         const Version& v) {
  if (req.inputs.empty()) return;
  if (shape_.granularity == Granularity::kPartial &&
      shape_.merge == MergePolicy::kTiering &&
      req.inputs[0].file_numbers.size() == 1) {
    // Partial tiering: remember/refresh the accumulation run — the newest
    // run of the output level after this move.
    if (req.output_level < static_cast<int>(v.levels.size()) &&
        !v.levels[req.output_level].empty()) {
      accumulation_run_[req.output_level] =
          v.levels[req.output_level].runs[0].run_id;
    }
  }
}

void VerticalPart::EncodeTo(std::string* out) const {
  if (shape_.fixed_levels > 0) {
    if (shape_.granularity == Granularity::kPartial) {
      const auto it = cursors_.find(shape_.first_level);
      PutLengthPrefixedSlice(
          out, it == cursors_.end() ? Slice() : Slice(it->second));
    }
    return;
  }
  PutVarint64(out, cursors_.size());
  for (const auto& [level, key] : cursors_) {
    PutVarint64(out, static_cast<uint64_t>(level));
    PutLengthPrefixedSlice(out, Slice(key));
  }
  PutVarint64(out, accumulation_run_.size());
  for (const auto& [level, run] : accumulation_run_) {
    PutVarint64(out, static_cast<uint64_t>(level));
    PutVarint64(out, run);
  }
}

bool VerticalPart::DecodeFrom(Slice* input) {
  cursors_.clear();
  accumulation_run_.clear();
  if (shape_.fixed_levels > 0) {
    Slice key;
    if (shape_.granularity == Granularity::kPartial) {
      if (!GetLengthPrefixedSlice(input, &key)) return false;
      if (!key.empty()) cursors_[shape_.first_level] = key.ToString();
    }
    return true;
  }
  uint64_t n;
  if (!GetVarint64(input, &n)) return false;
  for (uint64_t i = 0; i < n; i++) {
    uint64_t level;
    Slice key;
    if (!GetVarint64(input, &level) || !GetLengthPrefixedSlice(input, &key)) {
      return false;
    }
    cursors_[static_cast<int>(level)] = key.ToString();
  }
  if (!GetVarint64(input, &n)) return false;
  for (uint64_t i = 0; i < n; i++) {
    uint64_t level, run;
    if (!GetVarint64(input, &level) || !GetVarint64(input, &run)) {
      return false;
    }
    accumulation_run_[static_cast<int>(level)] = run;
  }
  return true;
}

}  // namespace talus
