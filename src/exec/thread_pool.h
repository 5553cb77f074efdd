// ThreadPool: fixed-size worker pool executing queued tasks FIFO. It is
// policy-free: each DB decides which of its flush and compaction work a
// task runs (flush first, DESIGN.md §2.1), so the shards of a ShardedDB and
// other subsystems (the stats snapshotter) can share one pool.
#ifndef TALUS_EXEC_THREAD_POOL_H_
#define TALUS_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace talus {
namespace exec {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  /// Implies Shutdown(): drains every queued task, then joins.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false (task dropped) after Shutdown() started.
  bool Submit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, joins workers.
  /// Idempotent; must not be called from a worker thread.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  /// Tasks queued but not yet picked up by a worker.
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace exec
}  // namespace talus

#endif  // TALUS_EXEC_THREAD_POOL_H_
