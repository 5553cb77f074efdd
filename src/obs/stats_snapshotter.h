#ifndef TALUS_OBS_STATS_SNAPSHOTTER_H_
#define TALUS_OBS_STATS_SNAPSHOTTER_H_

// Time-series sampler: materializes one JSON line of engine stats (the
// sample function is supplied by the owner — a DB or a ShardedDB) into a
// bounded in-memory ring and, optionally, an append-only JSONL file.
// Nightly runs archive the file, turning endpoint bench numbers into
// amp/latency trajectories.
//
// The owner's exec::Ticker calls SampleAsync() each interval. The sampling
// work runs on the pool so a slow sample never blocks the ticker; a tick
// that arrives while a sample is still in flight is dropped rather than
// queued. With no pool (inline-mode engines) samples run on the caller.

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "util/status.h"

namespace talus {
namespace obs {

class StatsSnapshotter {
 public:
  struct Options {
    size_t ring_capacity = 240;
    std::string jsonl_path;  // empty = in-memory ring only
  };

  /// Returns one JSON object (no trailing newline) per call.
  using SampleFn = std::function<std::string()>;

  /// IOError naming the path when options.jsonl_path cannot be opened.
  static Status Open(exec::ThreadPool* pool, Options options, SampleFn fn,
                     std::unique_ptr<StatsSnapshotter>* out);
  ~StatsSnapshotter();

  StatsSnapshotter(const StatsSnapshotter&) = delete;
  StatsSnapshotter& operator=(const StatsSnapshotter&) = delete;

  /// Submits one sample to the pool; a no-op while the previous sample is
  /// still in flight or after Stop().
  void SampleAsync();
  /// Takes one sample synchronously (also lands in ring/file). Used by
  /// tests and by owners that want a final sample before shutdown.
  void SampleNow();
  /// Waits out any in-flight sample and takes one closing sample — so
  /// even a run shorter than the interval leaves a sample behind and the
  /// series always ends with the final state. Idempotent (the closing
  /// sample is taken once).
  void Stop();

  /// Oldest-first copy of the retained samples.
  std::vector<std::string> RingContents() const;
  /// The same samples, one per line (the talus.snapshots property).
  std::string RingText() const;
  uint64_t TotalSamples() const;

 private:
  StatsSnapshotter(exec::ThreadPool* pool, Options options, SampleFn fn,
                   std::FILE* file);
  void DoSample();

  exec::ThreadPool* pool_;  // borrowed; may be null (inline sampling)
  Options options_;
  SampleFn fn_;

  mutable std::mutex mu_;  // ring + file + total
  std::vector<std::string> ring_;
  size_t ring_next_ = 0;
  uint64_t total_samples_ = 0;
  std::FILE* file_ = nullptr;

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  bool sample_in_flight_ = false;
  bool stopped_ = false;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_STATS_SNAPSHOTTER_H_
