#include "exec/ticker.h"

#include <algorithm>

namespace talus {
namespace exec {

Ticker::~Ticker() { Stop(); }

void Ticker::Add(uint64_t period_ms, std::function<void()> fn) {
  if (period_ms == 0) return;
  const Clock::duration period = std::chrono::milliseconds(period_ms);
  tasks_.push_back(Task{period, std::move(fn), Clock::now() + period});
}

void Ticker::Start() {
  if (tasks_.empty() || thread_.joinable()) return;
  thread_ = std::thread([this] { Loop(); });
}

void Ticker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Ticker::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    Clock::time_point next = tasks_.front().due;
    for (const Task& t : tasks_) next = std::min(next, t.due);
    if (cv_.wait_until(lock, next, [this] { return stopping_; })) break;
    for (Task& t : tasks_) {
      const Clock::time_point now = Clock::now();
      if (t.due > now) continue;
      // Keep the period grid unless whole periods were missed; then
      // restart it from now (one run, no backlog).
      t.due += t.period;
      if (t.due <= now) t.due = now + t.period;
      // Run unlocked so Stop() never waits on a task that is itself
      // waiting on engine state.
      lock.unlock();
      t.fn();
      lock.lock();
      if (stopping_) break;
    }
  }
}

}  // namespace exec
}  // namespace talus
