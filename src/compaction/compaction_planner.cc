#include "compaction/compaction_planner.h"

#include <algorithm>
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
  if (out_level != nullptr) {
    for (const auto& run : out_level->runs) {
      plan->output_level_run_ids.push_back(run.run_id);
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

  PickSubcompactionBoundaries(req, ctx.max_subcompactions, plan);
  return Status::OK();
}

void PickSubcompactionBoundaries(const CompactionRequest& req,
                                 int max_subcompactions,
                                 CompactionPlan* plan) {
  plan->boundaries.clear();
  if (max_subcompactions <= 1 || !plan->have_range) return;

  // Every merge input file, sorted by smallest key, with prefix byte sums.
  std::vector<FileMetaPtr> files;
  for (const auto& ri : plan->inputs) {
    for (const auto& f : ri.files) files.push_back(f);
  }
  for (const auto& f : plan->target_overlaps) files.push_back(f);
  if (files.size() < 2) return;  // One file cannot be split further.
  std::sort(files.begin(), files.end(),
            [](const FileMetaPtr& a, const FileMetaPtr& b) {
              return a->smallest.user_key().compare(b->smallest.user_key()) <
                     0;
            });
  uint64_t total_bytes = 0;
  for (const auto& f : files) total_bytes += f->file_size;
  if (total_bytes == 0) return;

  // Candidate split keys: file smallest keys strictly inside the range,
  // plus the request's planner-visible hints. Splitting only at user-key
  // boundaries keeps all versions of a key in one subcompaction.
  std::set<std::string> candidates;
  for (const auto& f : files) {
    std::string k = f->smallest.user_key().ToString();
    if (k > plan->min_user && k <= plan->max_user) candidates.insert(k);
  }
  for (const auto& hint : req.boundary_hints) {
    if (hint > plan->min_user && hint <= plan->max_user) {
      candidates.insert(hint);
    }
  }
  if (candidates.empty()) return;

  // Byte position of each candidate: bytes of files that start before it.
  // Walking the sorted files once gives an increasing cumulative map.
  std::vector<std::pair<std::string, uint64_t>> positioned;
  {
    size_t fi = 0;
    uint64_t cum = 0;
    for (const auto& cand : candidates) {  // std::set: ascending.
      while (fi < files.size() &&
             files[fi]->smallest.user_key().compare(Slice(cand)) < 0) {
        cum += files[fi]->file_size;
        fi++;
      }
      positioned.emplace_back(cand, cum);
    }
  }

  // Pick the candidate nearest (at or after) each even byte cut.
  const int ranges = max_subcompactions;
  size_t ci = 0;
  for (int i = 1; i < ranges && ci < positioned.size(); i++) {
    const uint64_t cut =
        total_bytes / static_cast<uint64_t>(ranges) * static_cast<uint64_t>(i);
    while (ci < positioned.size() && positioned[ci].second < cut) ci++;
    if (ci >= positioned.size()) break;
    plan->boundaries.push_back(positioned[ci].first);
    ci++;
  }
}

}  // namespace compaction
}  // namespace talus
