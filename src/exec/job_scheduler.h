// JobScheduler: prioritized background job execution on a shared ThreadPool.
//
// Flush jobs always dispatch before compaction jobs: a full immutable
// memtable blocks writers directly, while a pending compaction only degrades
// read amplification, so the scheduler drains the flush queue first (the
// same discipline as RocksDB's HIGH/LOW pool split). Outcomes are counted in
// GetStats() (the owner latches errors itself), and Shutdown() completes
// every queued job before returning so DB teardown never abandons a
// half-installed flush.
//
// The scheduler submits one pool task per scheduled job; each task pops and
// runs the highest-priority job available, so a task may execute a different
// job than the one whose Schedule() call created it. Tasks capture the
// scheduler's internal core by shared_ptr, so a task that outlives the
// JobScheduler object (e.g. drained by ThreadPool::Shutdown afterwards)
// finds empty queues instead of freed memory.
#ifndef TALUS_EXEC_JOB_SCHEDULER_H_
#define TALUS_EXEC_JOB_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "exec/thread_pool.h"
#include "obs/component_stats.h"
#include "util/status.h"

namespace talus {
namespace exec {

enum class JobType : int { kFlush = 0, kCompaction = 1 };

class JobScheduler {
 public:
  /// The pool is borrowed and must outlive the scheduler.
  explicit JobScheduler(ThreadPool* pool);
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job. Returns false when the job was dropped without
  /// running: after Shutdown() began, or when the borrowed pool refused the
  /// dispatch (pool shutdown) — the latter also drops every still-queued
  /// job, since no dispatch will ever arrive.
  bool Schedule(JobType type, std::function<Status()> job);

  /// Blocks until no job is queued or running. Callers must not hold locks
  /// that running jobs acquire.
  void WaitIdle();

  /// Stops accepting new jobs and waits for every accepted job to finish.
  /// Idempotent. Does not shut down the borrowed pool.
  void Shutdown();

  obs::BackgroundJobStats GetStats() const;

 private:
  struct Core;

  ThreadPool* pool_;
  std::shared_ptr<Core> core_;
};

}  // namespace exec
}  // namespace talus

#endif  // TALUS_EXEC_JOB_SCHEDULER_H_
