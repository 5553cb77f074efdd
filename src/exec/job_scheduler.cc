#include "exec/job_scheduler.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "util/wall_clock.h"

namespace talus {
namespace exec {

namespace {
// Finished-job records kept for GetState() before pruning kicks in.
constexpr size_t kMaxFinishedRecords = 1024;
}  // namespace

struct JobScheduler::Core {
  struct QueuedJob {
    JobId id = kInvalidJobId;
    JobType type = JobType::kFlush;
    std::function<Status()> fn;
  };

  mutable std::mutex mu;
  std::condition_variable idle_cv;
  std::deque<QueuedJob> queues[obs::BackgroundJobStats::kNumJobTypes];
  std::unordered_map<JobId, JobState> states;
  std::deque<JobId> finished_order;  // For pruning states oldest-first.
  obs::BackgroundJobStats stats;
  Status first_error;
  JobId next_id = 1;
  bool stopping = false;

  JobId Enqueue(JobType type, std::function<Status()> job) {
    std::lock_guard<std::mutex> l(mu);
    if (stopping) return kInvalidJobId;
    const JobId id = next_id++;
    const size_t t = static_cast<size_t>(type);
    queues[t].push_back(QueuedJob{id, type, std::move(job)});
    states[id] = JobState::kQueued;
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
  /// Returns `id` if that job did run anyway, kInvalidJobId if it was
  /// dropped without running.
  JobId HandleRefusedDispatch(JobId id) {
    std::lock_guard<std::mutex> l(mu);
    stopping = true;
    for (auto& queue : queues) {
      for (const auto& job : queue) {
        stats.queue_depth[static_cast<size_t>(job.type)]--;
        states[job.id] = JobState::kDropped;
      }
      queue.clear();
    }
    idle_cv.notify_all();
    auto it = states.find(id);
    if (it != states.end() && it->second != JobState::kDropped &&
        it->second != JobState::kQueued) {
      return id;  // Another dispatch task picked it up before Submit failed.
    }
    return kInvalidJobId;
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
      states[job.id] = JobState::kRunning;
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
        states[job.id] = JobState::kDone;
      } else {
        stats.failed[t]++;
        states[job.id] = JobState::kFailed;
        if (first_error.ok()) first_error = s;
      }
      finished_order.push_back(job.id);
      while (finished_order.size() > kMaxFinishedRecords) {
        states.erase(finished_order.front());
        finished_order.pop_front();
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

JobScheduler::JobId JobScheduler::Schedule(JobType type,
                                           std::function<Status()> job) {
  const JobId id = core_->Enqueue(type, std::move(job));
  if (id == kInvalidJobId) return kInvalidJobId;
  if (!pool_->Submit([core = core_] { core->RunNext(); })) {
    return core_->HandleRefusedDispatch(id);
  }
  return id;
}

JobState JobScheduler::GetState(JobId id) const {
  std::lock_guard<std::mutex> l(core_->mu);
  auto it = core_->states.find(id);
  return it == core_->states.end() ? JobState::kDropped : it->second;
}

void JobScheduler::WaitIdle() { core_->WaitIdle(); }

void JobScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> l(core_->mu);
    core_->stopping = true;
  }
  core_->WaitIdle();
}

Status JobScheduler::first_error() const {
  std::lock_guard<std::mutex> l(core_->mu);
  return core_->first_error;
}

obs::BackgroundJobStats JobScheduler::GetStats() const {
  std::lock_guard<std::mutex> l(core_->mu);
  return core_->stats;
}

}  // namespace exec
}  // namespace talus
