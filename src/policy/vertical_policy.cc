#include "policy/vertical_policy.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"

namespace talus {

VerticalPolicy::VerticalPolicy(const GrowthPolicyConfig& config,
                               const PolicyContext& ctx)
    : config_(config), buffer_bytes_(ctx.buffer_bytes) {}

std::string VerticalPolicy::name() const {
  std::string n = "vertical-";
  n += MergePolicyName(config_.merge);
  n += config_.granularity == Granularity::kFull ? "-full" : "-partial";
  if (config_.dynamic_level_bytes) n += "-dynbytes";
  return n;
}

MergeMode VerticalPolicy::FlushMode(const Version& v) const {
  return config_.merge == MergePolicy::kLeveling ? MergeMode::kMergeIntoRun
                                                 : MergeMode::kNewRun;
}

int VerticalPolicy::RequiredLevels(const Version& v) const {
  return std::max(1, v.BottommostNonEmptyLevel() + 2);
}

uint64_t VerticalPolicy::LevelCapacity(const Version& v, int level) const {
  const double T = config_.size_ratio;
  if (!config_.dynamic_level_bytes) {
    return static_cast<uint64_t>(
        static_cast<double>(buffer_bytes_) * std::pow(T, level + 1));
  }
  // RocksDB-style dynamic level bytes: capacities anchor to the actual size
  // of the bottommost level so that it is always (nearly) full; upper levels
  // shrink by T per step, floored at B·T.
  const int last = v.BottommostNonEmptyLevel();
  if (last <= 0 || level >= last) {
    return static_cast<uint64_t>(
        static_cast<double>(buffer_bytes_) * std::pow(T, level + 1));
  }
  const double last_bytes =
      static_cast<double>(v.levels[last].TotalBytes());
  const double anchored = last_bytes / std::pow(T, last - level);
  const double floor_bytes = static_cast<double>(buffer_bytes_) * T;
  return static_cast<uint64_t>(std::max(anchored, floor_bytes));
}

const FileMetaPtr& VerticalPolicy::PickFile(const SortedRun& run, int level) {
  if (config_.file_pick == FilePick::kOldestSmallestSeqFirst) {
    size_t best = 0;
    for (size_t i = 1; i < run.files.size(); i++) {
      if (run.files[i]->oldest_seq < run.files[best]->oldest_seq) best = i;
    }
    return run.files[best];
  }
  const auto it = cursors_.find(level);
  return PickRoundRobin(run, it == cursors_.end() ? nullptr : &it->second);
}

std::optional<CompactionRequest> VerticalPolicy::PickCompaction(
    const Version& v) {
  return config_.merge == MergePolicy::kLeveling ? PickLeveling(v)
                                                 : PickTiering(v);
}

std::optional<CompactionRequest> VerticalPolicy::PickLeveling(
    const Version& v) {
  for (int i = 0; i < static_cast<int>(v.levels.size()); i++) {
    const LevelState& level = v.levels[i];
    if (level.empty()) continue;
    if (level.TotalBytes() <= LevelCapacity(v, i)) continue;

    const SortedRun& run = level.runs[0];
    CompactionRequest req;
    req.output_level = i + 1;
    const bool next_exists =
        i + 1 < static_cast<int>(v.levels.size()) && !v.levels[i + 1].empty();
    if (next_exists) {
      req.output_run_id = v.levels[i + 1].runs[0].run_id;
    }

    if (config_.granularity == Granularity::kFull) {
      req.inputs.push_back({i, run.run_id, {}});
      req.reason = "vertical-leveling-full L" + std::to_string(i);
    } else {
      const FileMetaPtr& file = PickFile(run, i);
      // Advance the round-robin cursor now: the pick is deterministic and
      // the file is consumed by this compaction.
      cursors_[i] = file->largest.user_key().ToString();
      req.inputs.push_back({i, run.run_id, {file->number}});
      req.reason = "vertical-leveling-partial L" + std::to_string(i);
    }
    return req;
  }
  return std::nullopt;
}

std::optional<CompactionRequest> VerticalPolicy::PickTiering(
    const Version& v) {
  const auto trigger = static_cast<size_t>(
      std::max(2.0, std::floor(config_.size_ratio)));
  for (int i = 0; i < static_cast<int>(v.levels.size()); i++) {
    const LevelState& level = v.levels[i];
    if (level.NumRuns() < trigger) continue;

    CompactionRequest req;
    req.output_level = i + 1;
    if (config_.granularity == Granularity::kFull) {
      // Merge every run of this level into one new run below.
      for (const auto& run : level.runs) {
        req.inputs.push_back({i, run.run_id, {}});
      }
      req.reason = "vertical-tiering-full L" + std::to_string(i);
      return req;
    }

    // Partial tiering: move one file of the oldest run into the open
    // accumulation run at the next level. Draining only the oldest run is
    // the version-order-safe choice: everything else at this level is
    // strictly newer, so nothing newer can land below something older.
    // The accumulation run absorbs successive drains (merging overlaps)
    // until it reaches the natural run size of its level, B·T^level, then
    // seals; without the size cap runs would never consolidate and the
    // tree degenerates into ever-deeper single-file runs. The incremental
    // re-merging into the accumulation run is what gives VT-Tier-Part its
    // extra write amplification relative to full tiering, and the
    // lingering partially-drained runs its extra read amplification —
    // both effects the paper reports for this baseline.
    const SortedRun& oldest = level.runs.back();
    req.inputs.push_back({i, oldest.run_id, {oldest.files.front()->number}});
    const uint64_t acc_cap = static_cast<uint64_t>(
        static_cast<double>(buffer_bytes_) *
        std::pow(config_.size_ratio, i + 1));
    uint64_t acc = accumulation_run_[i + 1];
    if (acc != 0) {
      const SortedRun* acc_run =
          i + 1 < static_cast<int>(v.levels.size())
              ? v.levels[i + 1].FindRun(acc)
              : nullptr;
      if (acc_run == nullptr || acc_run->TotalBytes() >= acc_cap) {
        acc = 0;  // Seal: the next output starts a fresh run.
        accumulation_run_[i + 1] = 0;
      }
    }
    if (acc != 0) {
      req.output_run_id = acc;
    }
    req.reason = "vertical-tiering-partial L" + std::to_string(i);
    return req;
  }
  return std::nullopt;
}

void VerticalPolicy::OnCompactionCompleted(const CompactionRequest& req,
                                           const Version& v) {
  if (req.inputs.empty()) return;
  if (config_.granularity == Granularity::kPartial &&
      config_.merge == MergePolicy::kTiering &&
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

std::vector<LevelFilterInfo> VerticalPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  // Capacities are bytes engine-side, entries for the filter optimizer.
  const double entry_bytes = MeanEntryBytes(v);
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    info[i].capacity_entries = static_cast<uint64_t>(
        static_cast<double>(LevelCapacity(v, static_cast<int>(i))) /
        entry_bytes);
    // Vertical levels with partial compaction hover near capacity; with
    // full compaction they oscillate, hence 0.5 expected fill.
    info[i].expected_fill =
        config_.granularity == Granularity::kPartial ? 1.0 : 0.5;
  }
  return info;
}

std::string VerticalPolicy::EncodeState() const {
  std::string out;
  PutVarint64(&out, cursors_.size());
  for (const auto& [level, key] : cursors_) {
    PutVarint64(&out, static_cast<uint64_t>(level));
    PutLengthPrefixedSlice(&out, Slice(key));
  }
  PutVarint64(&out, accumulation_run_.size());
  for (const auto& [level, run] : accumulation_run_) {
    PutVarint64(&out, static_cast<uint64_t>(level));
    PutVarint64(&out, run);
  }
  return out;
}

bool VerticalPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;  // Fresh DB.
  Slice input(state);
  uint64_t n;
  if (!GetVarint64(&input, &n)) return false;
  cursors_.clear();
  for (uint64_t i = 0; i < n; i++) {
    uint64_t level;
    Slice key;
    if (!GetVarint64(&input, &level) ||
        !GetLengthPrefixedSlice(&input, &key)) {
      return false;
    }
    cursors_[static_cast<int>(level)] = key.ToString();
  }
  if (!GetVarint64(&input, &n)) return false;
  accumulation_run_.clear();
  for (uint64_t i = 0; i < n; i++) {
    uint64_t level, run;
    if (!GetVarint64(&input, &level) || !GetVarint64(&input, &run)) {
      return false;
    }
    accumulation_run_[static_cast<int>(level)] = run;
  }
  return true;
}

}  // namespace talus
