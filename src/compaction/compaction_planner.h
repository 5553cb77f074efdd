// Plan stage of the compaction pipeline (DESIGN.md §2.8): resolves a
// policy's CompactionRequest against a base Version into an immutable
// CompactionPlan. Pure function of (version, request, context) — no engine
// state — so it is unit-testable and must be called with the version
// guaranteed stable (the DB calls it under its mutex).
#ifndef TALUS_COMPACTION_COMPACTION_PLANNER_H_
#define TALUS_COMPACTION_COMPACTION_PLANNER_H_

#include "compaction/compaction_plan.h"
#include "lsm/version.h"
#include "policy/growth_policy.h"
#include "util/status.h"

namespace talus {
namespace compaction {

struct PlannerContext {
  /// Output filter budget for the plan's output level.
  double bits_per_key = 0;
  /// Smallest sequence any live snapshot can observe; versions shadowed at
  /// this sequence are unreachable and may be dropped by the merge.
  SequenceNumber smallest_snapshot = 0;
  /// Set for a flush: the memtable becomes the plan's newest input.
  MemTableInput memtable;
};

/// Resolves `req` against `base` into `plan`. Returns InvalidArgument when
/// the request names levels/runs/files the version does not contain, or
/// when a compaction asks for a new front run of level 0 (only a flush
/// makes one). A compaction whose inputs hold no files yields an empty
/// plan (plan->empty()), which callers treat as "nothing to do". A flush
/// (ctx.memtable set) is never empty: it needs no SST inputs, and its merge
/// target, if any, is taken whole.
///
/// Tombstone-GC admissibility (plan->drop_tombstones) is decided here, under
/// the mutex, and stays valid across an off-mutex merge: a concurrent flush
/// only adds *newer* data above the output position, never older data below
/// it, and no other job touches the plan's runs until it installs (run
/// ownership), so an admissible drop can never become unsafe (DESIGN.md
/// §2.8).
Status PlanCompaction(const Version& base, const CompactionRequest& req,
                      const PlannerContext& ctx, CompactionPlan* plan);

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_PLANNER_H_
