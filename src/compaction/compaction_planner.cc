#include "compaction/compaction_planner.h"

#include <set>

namespace talus {
namespace compaction {

Status PlanCompaction(const Version& base, const CompactionRequest& req,
                      const PlannerContext& ctx, CompactionPlan* plan) {
  *plan = CompactionPlan();
  plan->output_level = req.output_level;
  plan->placement = req.placement;
  plan->reason = req.reason;
  plan->bits_per_key = ctx.bits_per_key;
  plan->smallest_snapshot = ctx.smallest_snapshot;
  plan->memtable = ctx.memtable;
  // Level 0's front belongs to flushes: a compaction's new run there could
  // land in front of a run flushed while it merged, newest-first order
  // broken. No policy asks for one (their outputs land at level >= 1 or
  // take their inputs' place).
  if (!plan->memtable && req.output_level == 0 && !req.output_run_id &&
      req.placement == CompactionRequest::Placement::kFront) {
    return Status::InvalidArgument(
        "a compaction cannot place a new run at the front of level 0");
  }

  auto cover = [plan](const std::vector<FileMetaPtr>& files) {
    for (const auto& f : files) {
      Slice lo = f->smallest.user_key();
      Slice hi = f->largest.user_key();
      if (!plan->have_range) {
        plan->min_user = lo.ToString();
        plan->max_user = hi.ToString();
        plan->have_range = true;
      } else {
        if (lo.compare(Slice(plan->min_user)) < 0) {
          plan->min_user = lo.ToString();
        }
        if (hi.compare(Slice(plan->max_user)) > 0) {
          plan->max_user = hi.ToString();
        }
      }
    }
  };

  // ---- Resolve input files. ----
  for (const auto& in : req.inputs) {
    if (in.level < 0 || in.level >= static_cast<int>(base.levels.size())) {
      return Status::InvalidArgument("compaction input level out of range");
    }
    const SortedRun* run = base.levels[in.level].FindRun(in.run_id);
    if (run == nullptr) {
      return Status::InvalidArgument("compaction input run not found");
    }
    CompactionPlan::Input ri;
    ri.level = in.level;
    ri.run_id = in.run_id;
    ri.whole_run = in.file_numbers.empty();
    if (ri.whole_run) {
      ri.files = run->files;
    } else {
      std::set<uint64_t> wanted(in.file_numbers.begin(),
                                in.file_numbers.end());
      for (const auto& f : run->files) {
        if (wanted.count(f->number)) ri.files.push_back(f);
      }
      if (ri.files.size() != wanted.size()) {
        return Status::InvalidArgument("compaction input file not found");
      }
    }
    cover(ri.files);
    plan->inputs.push_back(std::move(ri));
  }
  if (plan->empty()) return Status::OK();  // Nothing to do.

  // ---- Resolve the output target (leveling-style merge). ----
  const LevelState* out_level =
      req.output_level < static_cast<int>(base.levels.size())
          ? &base.levels[req.output_level]
          : nullptr;
  const SortedRun* target_run = nullptr;
  if (req.output_run_id.has_value()) {
    target_run =
        out_level != nullptr ? out_level->FindRun(*req.output_run_id) : nullptr;
    if (target_run == nullptr) {
      return Status::InvalidArgument("compaction output run not found");
    }
    plan->target_run_id = *req.output_run_id;
    if (plan->memtable) {
      // A flush rewrites its target run whole, keeping the run's id.
      plan->target_overlaps = target_run->files;
      cover(target_run->files);
    } else {
      for (size_t idx : target_run->OverlappingFiles(Slice(plan->min_user),
                                                     Slice(plan->max_user))) {
        plan->target_overlaps.push_back(target_run->files[idx]);
      }
    }
  }

  // ---- Tombstone GC admissibility. ----
  // Safe only when no older data for these keys can exist below the output
  // position: nothing in deeper levels, and nothing in older runs of the
  // output level beyond the target itself (inputs from the output level are
  // consumed, so they do not count).
  bool older_data_below = false;
  for (size_t l = req.output_level;
       l < base.levels.size() && !older_data_below; l++) {
    for (const auto& run : base.levels[l].runs) {
      if (run.files.empty()) continue;
      if (l == static_cast<size_t>(req.output_level)) {
        if (target_run != nullptr && run.run_id == target_run->run_id) {
          continue;  // The target itself is merged, not "below".
        }
        bool is_whole_input = false;
        for (const auto& ri : plan->inputs) {
          if (ri.level == req.output_level && ri.run_id == run.run_id &&
              ri.whole_run) {
            is_whole_input = true;
            break;
          }
        }
        if (is_whole_input) continue;
        if (target_run == nullptr) {
          older_data_below = true;  // Fresh front run: everything else older.
          break;
        }
        // Runs positioned after (older than) the target block GC.
        size_t target_pos = 0, run_pos = 0;
        for (size_t i = 0; i < out_level->runs.size(); i++) {
          if (out_level->runs[i].run_id == target_run->run_id) target_pos = i;
          if (out_level->runs[i].run_id == run.run_id) run_pos = i;
        }
        if (run_pos > target_pos) {
          older_data_below = true;
          break;
        }
      } else {
        older_data_below = true;
        break;
      }
    }
  }
  plan->drop_tombstones = !older_data_below;
  return Status::OK();
}

}  // namespace compaction
}  // namespace talus
