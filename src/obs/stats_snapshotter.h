#ifndef TALUS_OBS_STATS_SNAPSHOTTER_H_
#define TALUS_OBS_STATS_SNAPSHOTTER_H_

// Background time-series sampler: periodically materializes one JSON
// line of engine stats (the sample function is supplied by the owner —
// a DB or a ShardedDB) into a bounded in-memory ring and, optionally,
// an append-only JSONL file. Nightly runs archive the file, turning
// endpoint bench numbers into amp/latency trajectories.
//
// A dedicated timer thread owns the cadence (the shared exec::ThreadPool
// has no delayed scheduling) but the sampling work itself runs on the
// pool so a slow sample never blocks the clock; ticks that arrive while
// a sample is still in flight are dropped rather than queued. With no
// pool (inline-mode engines) samples run on the timer thread.

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace talus {
namespace obs {

class StatsSnapshotter {
 public:
  struct Options {
    uint64_t interval_ms = 1000;
    size_t ring_capacity = 240;
    std::string jsonl_path;  // empty = in-memory ring only
  };

  /// Returns one JSON object (no trailing newline) per call.
  using SampleFn = std::function<std::string()>;

  StatsSnapshotter(exec::ThreadPool* pool, Options options, SampleFn fn);
  ~StatsSnapshotter();

  StatsSnapshotter(const StatsSnapshotter&) = delete;
  StatsSnapshotter& operator=(const StatsSnapshotter&) = delete;

  void Start();
  /// Stops the timer, waits out any in-flight sample, and takes one
  /// closing sample — so even a run shorter than the interval leaves a
  /// sample behind and the series always ends with the final state.
  /// Idempotent (the closing sample is taken once).
  void Stop();

  /// Takes one sample synchronously (also lands in ring/file). Used by
  /// tests and by owners that want a final sample before shutdown.
  void SampleNow();

  /// Oldest-first copy of the retained samples.
  std::vector<std::string> RingContents() const;
  /// The same samples, one per line (the talus.snapshots property).
  std::string RingText() const;
  uint64_t TotalSamples() const;

 private:
  void TimerLoop();
  void DoSample();

  exec::ThreadPool* pool_;  // borrowed; may be null (inline sampling)
  Options options_;
  SampleFn fn_;

  mutable std::mutex mu_;  // ring + file + total
  std::vector<std::string> ring_;
  size_t ring_next_ = 0;
  uint64_t total_samples_ = 0;
  std::FILE* file_ = nullptr;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  bool stopping_ = false;
  bool started_ = false;
  bool final_sample_taken_ = false;
  std::thread timer_;

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  bool sample_in_flight_ = false;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_STATS_SNAPSHOTTER_H_
