// Merge stage of the maintenance pipeline (DESIGN.md §2.8). Executes a
// CompactionPlan — a compaction, or a flush whose newest input is the
// memtable — as one k-way merge on the calling thread, with NO DB mutex:
// the plan's FileMetaPtr references pin the input SSTs, readers come from
// the table cache, and file numbers come from the shared atomic counter, so
// nothing here touches engine state. Whether the caller actually released
// the mutex is its business (DESIGN.md §2.1).
#ifndef TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
#define TALUS_COMPACTION_COMPACTION_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "compaction/compaction_plan.h"
#include "compaction/sorted_output.h"
#include "read/table_cache.h"
#include "util/status.h"

namespace talus {
namespace compaction {

struct MergeResult {
  /// Output files in key order. On failure this still lists every finished
  /// file so the caller can delete the orphans.
  std::vector<FileMetaPtr> outputs;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// Executes the plan's merge stage: the flush's memtable (if any), the
/// plan's inputs and its target overlaps, merged newest-first into sorted
/// output files. Thread-safe; does not take the DB mutex.
Status RunMerge(const OutputShape& shape, read::TableCache* table_cache,
                const CompactionPlan& plan, MergeResult* result);

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
