#include "compaction/compaction_install.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace talus {
namespace compaction {

bool PlanStillValid(const CompactionPlan& plan, const Version& current) {
  if (plan.empty()) return true;

  for (const auto& ri : plan.inputs) {
    if (ri.level < 0 || ri.level >= static_cast<int>(current.levels.size())) {
      return false;
    }
    const SortedRun* run = current.levels[ri.level].FindRun(ri.run_id);
    if (run == nullptr) return false;
    if (ri.whole_run) {
      // The whole run is consumed: its file set must be exactly what the
      // plan captured, in the same order.
      if (run->files.size() != ri.files.size()) return false;
      for (size_t i = 0; i < run->files.size(); i++) {
        if (run->files[i]->number != ri.files[i]->number) return false;
      }
    } else {
      std::set<uint64_t> present;
      for (const auto& f : run->files) present.insert(f->number);
      for (const auto& f : ri.files) {
        if (!present.count(f->number)) return false;
      }
    }
  }

  if (plan.target_run_id.has_value()) {
    if (plan.output_level >= static_cast<int>(current.levels.size())) {
      return false;
    }
    const SortedRun* target =
        current.levels[plan.output_level].FindRun(*plan.target_run_id);
    if (target == nullptr) return false;
    // A flush rewrites the whole target run: any change to it conflicts.
    if (plan.memtable && target->files.size() != plan.target_overlaps.size()) {
      return false;
    }
    std::vector<size_t> overlap_idx = target->OverlappingFiles(
        Slice(plan.min_user), Slice(plan.max_user));
    if (overlap_idx.size() != plan.target_overlaps.size()) return false;
    for (size_t i = 0; i < overlap_idx.size(); i++) {
      if (target->files[overlap_idx[i]]->number !=
          plan.target_overlaps[i]->number) {
        return false;
      }
    }
  } else if (plan.placement == CompactionRequest::Placement::kFront &&
             plan.output_level == 0 && !plan.memtable) {
    // Level 0 is the only level a concurrent flush reshapes; a front insert
    // is ordering-correct only if the run sequence is unchanged. A flush's
    // own output is the newest data by construction and always belongs at
    // the front, whatever compactions installed meanwhile.
    if (current.levels.empty()) return false;
    const auto& runs = current.levels[0].runs;
    if (runs.size() != plan.output_level_run_ids.size()) return false;
    for (size_t i = 0; i < runs.size(); i++) {
      if (runs[i].run_id != plan.output_level_run_ids[i]) return false;
    }
  }
  return true;
}

void ApplyCompactionPlan(const CompactionPlan& plan,
                         std::vector<FileMetaPtr> outputs,
                         uint64_t* next_run_id, Version* next,
                         std::vector<FileMetaPtr>* obsolete) {
  next->EnsureLevels(static_cast<size_t>(plan.output_level) + 1);
  LevelState& out_level = next->levels[plan.output_level];

  for (const auto& ri : plan.inputs) {
    for (const auto& f : ri.files) obsolete->push_back(f);
  }
  for (const auto& f : plan.target_overlaps) obsolete->push_back(f);

  // For kReplaceInputs, note the position of the youngest consumed run in
  // the output level before mutation.
  size_t replace_position = out_level.runs.size();
  if (plan.placement == CompactionRequest::Placement::kReplaceInputs) {
    for (const auto& ri : plan.inputs) {
      if (ri.level != plan.output_level) continue;
      for (size_t i = 0; i < out_level.runs.size(); i++) {
        if (out_level.runs[i].run_id == ri.run_id) {
          replace_position = std::min(replace_position, i);
        }
      }
    }
    if (replace_position == out_level.runs.size()) replace_position = 0;
  }

  for (const auto& ri : plan.inputs) {
    LevelState& level = next->levels[ri.level];
    SortedRun* run = level.FindRun(ri.run_id);
    assert(run != nullptr);
    if (ri.whole_run) {
      run->files.clear();
    } else {
      std::set<uint64_t> consumed;
      for (const auto& f : ri.files) consumed.insert(f->number);
      auto& files = run->files;
      files.erase(std::remove_if(files.begin(), files.end(),
                                 [&](const FileMetaPtr& f) {
                                   return consumed.count(f->number) > 0;
                                 }),
                  files.end());
    }
  }

  InternalKeyComparator cmp;
  if (plan.target_run_id.has_value()) {
    // Splice outputs into the target run where the overlaps were removed.
    SortedRun* target_run = out_level.FindRun(*plan.target_run_id);
    assert(target_run != nullptr);
    std::set<uint64_t> consumed;
    for (const auto& f : plan.target_overlaps) consumed.insert(f->number);
    auto& files = target_run->files;
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const FileMetaPtr& f) {
                                 return consumed.count(f->number) > 0;
                               }),
                files.end());
    for (auto& f : outputs) files.push_back(std::move(f));
    std::sort(files.begin(), files.end(),
              [&cmp](const FileMetaPtr& a, const FileMetaPtr& b) {
                return cmp.Compare(a->smallest.Encode(),
                                   b->smallest.Encode()) < 0;
              });
  } else if (!outputs.empty()) {
    SortedRun run;
    run.run_id = (*next_run_id)++;
    run.files = std::move(outputs);
    if (plan.placement == CompactionRequest::Placement::kReplaceInputs) {
      replace_position = std::min(replace_position, out_level.runs.size());
      out_level.runs.insert(out_level.runs.begin() + replace_position,
                            std::move(run));
    } else {
      out_level.runs.insert(out_level.runs.begin(), std::move(run));
    }
  }

  // Drop now-empty runs everywhere.
  for (auto& level : next->levels) {
    auto& runs = level.runs;
    runs.erase(std::remove_if(
                   runs.begin(), runs.end(),
                   [](const SortedRun& r) { return r.files.empty(); }),
               runs.end());
  }
}

}  // namespace compaction
}  // namespace talus
