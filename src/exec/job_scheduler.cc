#include "exec/job_scheduler.h"

#include <condition_variable>
#include <deque>
#include <mutex>

#include "util/wall_clock.h"

namespace talus {
namespace exec {

struct JobScheduler::Core {
  struct QueuedJob {
    uint64_t id = 0;
    JobType type = JobType::kFlush;
    std::function<Status()> fn;
  };

  mutable std::mutex mu;
  std::condition_variable idle_cv;
  std::deque<QueuedJob> queues[obs::BackgroundJobStats::kNumJobTypes];
  obs::BackgroundJobStats stats;
  uint64_t next_id = 1;
  bool stopping = false;

  /// Returns the queued job's id, 0 when the scheduler is stopping.
  uint64_t Enqueue(JobType type, std::function<Status()> job) {
    std::lock_guard<std::mutex> l(mu);
    if (stopping) return 0;
    const uint64_t id = next_id++;
    const size_t t = static_cast<size_t>(type);
    queues[t].push_back(QueuedJob{id, type, std::move(job)});
    stats.scheduled[t]++;
    stats.queue_depth[t]++;
    const size_t depth = stats.total_queue_depth();
    if (depth > stats.max_queue_depth) stats.max_queue_depth = depth;
    return id;
  }

  /// Called when the pool refused the dispatch task. The pool is shutting
  /// down, so no future dispatch will ever arrive — and because dispatch
  /// tasks pop the highest-priority job rather than "their" job, the job
  /// whose Submit failed may already have been run by an earlier task while
  /// a different job sits queued with no task left to claim it. Drop every
  /// queued job so WaitIdle()/Shutdown() cannot hang on a stranded entry.
  /// Returns true if job `id` ran anyway (another dispatch task picked it
  /// up before Submit failed), false if it was dropped without running.
  bool HandleRefusedDispatch(uint64_t id) {
    std::lock_guard<std::mutex> l(mu);
    stopping = true;
    bool dropped = false;
    for (auto& queue : queues) {
      for (const auto& job : queue) {
        stats.queue_depth[static_cast<size_t>(job.type)]--;
        dropped = dropped || job.id == id;
      }
      queue.clear();
    }
    idle_cv.notify_all();
    return !dropped;
  }

  /// Pool-task entry: runs the highest-priority queued job, if any.
  void RunNext() {
    QueuedJob job;
    {
      std::lock_guard<std::mutex> l(mu);
      // Flush queue strictly first: one pool task is submitted per
      // scheduled job, so a task may well run a different
      // (higher-priority) job than the one whose Schedule() submitted it.
      bool found = false;
      for (auto& queue : queues) {
        if (!queue.empty()) {
          job = std::move(queue.front());
          queue.pop_front();
          found = true;
          break;
        }
      }
      if (!found) return;  // Job was dropped; nothing to do.
      stats.queue_depth[static_cast<size_t>(job.type)]--;
      stats.running++;
    }

    const uint64_t start = NowMicros();
    Status s = job.fn();
    const uint64_t elapsed = NowMicros() - start;

    {
      std::lock_guard<std::mutex> l(mu);
      const size_t t = static_cast<size_t>(job.type);
      stats.busy_micros[t] += elapsed;
      if (s.ok()) {
        stats.completed[t]++;
      } else {
        stats.failed[t]++;
      }
      stats.running--;
    }
    idle_cv.notify_all();
  }

  void WaitIdle() {
    std::unique_lock<std::mutex> l(mu);
    idle_cv.wait(l, [this] {
      if (stats.running > 0) return false;
      for (const auto& queue : queues) {
        if (!queue.empty()) return false;
      }
      return true;
    });
  }
};

JobScheduler::JobScheduler(ThreadPool* pool)
    : pool_(pool), core_(std::make_shared<Core>()) {}

JobScheduler::~JobScheduler() { Shutdown(); }

bool JobScheduler::Schedule(JobType type, std::function<Status()> job) {
  const uint64_t id = core_->Enqueue(type, std::move(job));
  if (id == 0) return false;
  if (!pool_->Submit([core = core_] { core->RunNext(); })) {
    return core_->HandleRefusedDispatch(id);
  }
  return true;
}

void JobScheduler::WaitIdle() { core_->WaitIdle(); }

void JobScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> l(core_->mu);
    core_->stopping = true;
  }
  core_->WaitIdle();
}

obs::BackgroundJobStats JobScheduler::GetStats() const {
  std::lock_guard<std::mutex> l(core_->mu);
  return core_->stats;
}

}  // namespace exec
}  // namespace talus
