// Merge stage of the maintenance pipeline (DESIGN.md §2.8). Executes a
// CompactionPlan — a compaction, or a flush whose newest input is the
// memtable — with NO DB mutex: the plan's FileMetaPtr references pin the
// input SSTs, readers come from the table cache, and file numbers come from
// the shared atomic counter, so nothing here touches engine state. Whether
// the caller actually released the mutex is its business (DESIGN.md §2.1).
//
// The key space is split at the plan's boundaries into key-range
// subcompactions. With a thread pool attached (kBackground mode) the
// coordinator fans the ranges out over the pool and joins them; without one
// (kInline, or max_subcompactions == 1) the ranges run serially on the
// calling thread, preserving the seed's deterministic behavior.
#ifndef TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
#define TALUS_COMPACTION_COMPACTION_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compaction/compaction_plan.h"
#include "compaction/sorted_output.h"
#include "exec/thread_pool.h"
#include "obs/component_stats.h"
#include "read/table_cache.h"
#include "util/histogram.h"
#include "util/status.h"

namespace talus {
namespace compaction {

class CompactionExecutor {
 public:
  struct Result {
    /// Output files in global key order (subcompaction ranges concatenated).
    /// On failure this still lists every finished file so the caller can
    /// delete the orphans.
    std::vector<FileMetaPtr> outputs;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    /// Subcompactions the plan was split into.
    size_t fanout = 1;
  };

  CompactionExecutor(OutputShape shape, read::TableCache* table_cache);

  /// Attaches the background pool used for fan-out. nullptr (the default)
  /// runs every subcompaction serially on the caller's thread.
  void SetPool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Executes the plan's merge stage. A flush plan's memtable contributes
  /// the newest input to every subcompaction's merge. Thread-safe; does not
  /// take the DB mutex.
  Status Run(const CompactionPlan& plan, Result* result);

  obs::SubcompactionStats GetStats() const;

 private:
  struct Subcompaction {
    bool has_begin = false, has_end = false;
    std::string begin, end;  // User-key range [begin, end).
    std::vector<FileMetaPtr> outputs;
    uint64_t bytes_read = 0;
    Status status;
  };

  void RunSubcompaction(const CompactionPlan& plan, Subcompaction* sub);

  const OutputShape shape_;
  read::TableCache* table_cache_;
  exec::ThreadPool* pool_ = nullptr;

  // ---- Observability (talus.exec) ----
  std::atomic<uint64_t> subs_scheduled_{0};
  std::atomic<uint64_t> subs_completed_{0};
  std::atomic<size_t> subs_active_{0};
  // Flush plans that merge into a level-0 run are flush merges, counted
  // apart from compactions so the fanout histogram measures compaction
  // parallelism only (under leveling policies flush merges would otherwise
  // dominate). A flush into a new run is neither.
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> flush_merges_{0};
  mutable std::mutex fanout_mu_;
  Histogram fanout_hist_;
};

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
