// Install stage of the compaction pipeline (DESIGN.md §2.8). Runs under the
// DB mutex after the off-mutex merge and splices the merge outputs into a
// successor Version. It checks nothing about concurrent jobs: the DB owns
// every run a plan reads or rewrites for the plan's lifetime (run
// ownership, DESIGN.md §2.1), so the planned inputs are what the install
// finds. A pure version-shape function, unit-testable without an engine.
#ifndef TALUS_COMPACTION_COMPACTION_INSTALL_H_
#define TALUS_COMPACTION_COMPACTION_INSTALL_H_

#include <cstdint>
#include <vector>

#include "compaction/compaction_plan.h"
#include "lsm/version.h"
#include "util/status.h"

namespace talus {
namespace compaction {

/// Splices `outputs` into `next` (a copy of the current version) per the
/// plan: consumes input files, replaces target overlaps or creates a new
/// run (allocating *next_run_id), drops now-empty runs, and appends every
/// consumed file to `obsolete` for deferred GC. Returns Corruption, and
/// changes nothing, when a planned input run, input file or target run is
/// missing from `next`: run ownership makes that impossible, so it means a
/// broken engine invariant, not a race to retry.
Status ApplyCompactionPlan(const CompactionPlan& plan,
                           std::vector<FileMetaPtr> outputs,
                           uint64_t* next_run_id, Version* next,
                           std::vector<FileMetaPtr>* obsolete);

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_INSTALL_H_
