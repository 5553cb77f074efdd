// Install stage of the compaction pipeline (DESIGN.md §2.8). Runs under the
// DB mutex after the off-mutex merge: first validate that the plan's inputs
// still describe the current version (a concurrent flush may have reshaped
// level 0 while the merge ran), then splice the merge outputs into a
// successor Version. Both are pure version-shape functions, unit-testable
// without an engine.
#ifndef TALUS_COMPACTION_COMPACTION_INSTALL_H_
#define TALUS_COMPACTION_COMPACTION_INSTALL_H_

#include <cstdint>
#include <vector>

#include "compaction/compaction_plan.h"
#include "lsm/version.h"

namespace talus {
namespace compaction {

/// The conflict rule: a plan may install iff, in `current`,
///  * every input run still exists and still contains every planned file —
///    and, for whole-run inputs, no files beyond the planned ones (a
///    leveling flush rewrites a run's file set wholesale, so any reshape of
///    an input run is visible here);
///  * the target run (if any) still exists and its files overlapping the
///    plan's key range are exactly the planned target_overlaps (no new
///    overlap flushed in, none consumed by someone else);
///  * for a flush's merge target, additionally no file beyond the planned
///    ones (the flush rewrites the run whole);
///  * for a compaction's front placement into level 0 with no target, the
///    level's run ordering is unchanged (a concurrent flush prepending a
///    run would make a front insert misorder newest-first data). A flush
///    with no target never conflicts: its output is the newest data.
/// Returns false on any mismatch: the caller deletes the merge outputs and
/// retries from the plan stage against the fresh version.
bool PlanStillValid(const CompactionPlan& plan, const Version& current);

/// Splices `outputs` into `next` (a copy of the version PlanStillValid
/// approved) per the plan: consumes input files, replaces target overlaps or
/// creates a new run (allocating *next_run_id), drops now-empty runs, and
/// appends every consumed file to `obsolete` for deferred GC.
void ApplyCompactionPlan(const CompactionPlan& plan,
                         std::vector<FileMetaPtr> outputs,
                         uint64_t* next_run_id, Version* next,
                         std::vector<FileMetaPtr>* obsolete);

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_INSTALL_H_
