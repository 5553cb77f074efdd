#include "compaction/compaction_install.h"

#include <algorithm>
#include <set>

namespace talus {
namespace compaction {

Status ApplyCompactionPlan(const CompactionPlan& plan,
                           std::vector<FileMetaPtr> outputs,
                           uint64_t* next_run_id, Version* next,
                           std::vector<FileMetaPtr>* obsolete) {
  // Every planned run and file must be in `next`. Checked before anything
  // changes, so a refused install leaves `next` and `obsolete` untouched.
  auto holds = [next](int level, uint64_t run_id,
                      const std::vector<FileMetaPtr>& files) {
    const SortedRun* run = level < static_cast<int>(next->levels.size())
                               ? next->levels[level].FindRun(run_id)
                               : nullptr;
    if (run == nullptr) return false;
    std::set<uint64_t> present;
    for (const auto& f : run->files) present.insert(f->number);
    for (const auto& f : files) {
      if (!present.count(f->number)) return false;
    }
    return true;
  };
  for (const auto& ri : plan.inputs) {
    if (!holds(ri.level, ri.run_id, ri.files)) {
      return Status::Corruption("planned input run or file is missing",
                                plan.reason);
    }
  }
  if (plan.target_run_id.has_value() &&
      !holds(plan.output_level, *plan.target_run_id, plan.target_overlaps)) {
    return Status::Corruption("planned target run is missing", plan.reason);
  }

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
  return Status::OK();
}

}  // namespace compaction
}  // namespace talus
