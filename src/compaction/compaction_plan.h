// CompactionPlan: the immutable contract between the three stages of the
// maintenance pipeline (DESIGN.md §2.8). Every flush and every compaction
// is a plan; a flush is the plan whose newest input is the memtable.
//
//   plan    — built under the DB mutex by PlanCompaction() against a pinned
//             base Version: input file refs, target overlaps, tombstone-GC
//             admissibility, output spec.
//   merge   — executed with the mutex released by RunMerge(): the
//             plan's FileMetaPtr references pin every input file (deferred
//             GC never deletes a referenced file), so the merge reads a
//             frozen snapshot no matter what installs concurrently.
//   install — back under the mutex: ApplyCompactionPlan() splices the
//             outputs into a successor Version. No check precedes it: the
//             DB records the runs each in-flight plan reads or rewrites, and
//             no other job touches them until the plan installs, so the
//             inputs are still exactly what the plan captured.
#ifndef TALUS_COMPACTION_COMPACTION_PLAN_H_
#define TALUS_COMPACTION_COMPACTION_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/version.h"
#include "policy/growth_policy.h"
#include "table/iterator.h"

namespace talus {
namespace compaction {

/// Builds an iterator over a flush's immutable memtable. Called once per
/// merge; the iterator must stay valid for the whole merge.
using MemTableInput = std::function<std::unique_ptr<Iterator>()>;

struct CompactionPlan {
  /// One resolved input: a whole run or a subset of its files. The files
  /// vector holds real references, pinning the SSTs for the merge stage.
  struct Input {
    int level = 0;
    uint64_t run_id = 0;
    std::vector<FileMetaPtr> files;
    bool whole_run = false;
  };

  std::vector<Input> inputs;
  /// A flush's newest input; null for compactions. A flush with a merge
  /// target merges the whole target run (target_overlaps holds all of its
  /// files); one without creates a new front run of level 0.
  MemTableInput memtable;
  int output_level = 0;
  CompactionRequest::Placement placement =
      CompactionRequest::Placement::kFront;

  /// Leveling-style merge target: outputs replace `target_overlaps` inside
  /// this run. nullopt → outputs form a new run placed per `placement`.
  std::optional<uint64_t> target_run_id;
  std::vector<FileMetaPtr> target_overlaps;

  /// Output spec, captured under the mutex so the merge needs no DB state.
  bool drop_tombstones = false;
  double bits_per_key = 0;
  SequenceNumber smallest_snapshot = 0;

  /// User-key range covered by the SST inputs (and a flush's target run).
  /// have_range == false with no memtable means the plan is empty.
  std::string min_user, max_user;
  bool have_range = false;

  std::string reason;

  bool empty() const { return !have_range && !memtable; }
};

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_PLAN_H_
