// Ticker: one timer thread running a fixed set of periodic tasks — the
// stats snapshotter's sampling and the adaptive tuner's decision pass
// (DESIGN.md §6.8, §9.1). Tasks are registered before Start() and run on
// the ticker's own thread, one at a time. A task that comes due while
// another is running runs once when the thread frees up: missed periods
// are skipped, never replayed as a backlog.
#ifndef TALUS_EXEC_TICKER_H_
#define TALUS_EXEC_TICKER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace talus {
namespace exec {

class Ticker {
 public:
  Ticker() = default;
  /// Implies Stop().
  ~Ticker();
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Registers `fn` to run every `period_ms`. Only before Start(); a zero
  /// period registers nothing.
  void Add(uint64_t period_ms, std::function<void()> fn);
  /// Starts the thread (none when no task is registered).
  void Start();
  /// Stops the thread and waits for a running task. Idempotent.
  void Stop();

 private:
  using Clock = std::chrono::steady_clock;
  struct Task {
    Clock::duration period;
    std::function<void()> fn;
    Clock::time_point due;
  };

  void Loop();

  std::vector<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace exec
}  // namespace talus

#endif  // TALUS_EXEC_TICKER_H_
