// ThroughputMeter: average and worst-case throughput over the virtual clock.
// The paper's worst-case metric is the lowest throughput observed in any
// sliding window of the most recent `window_ops` operations — compaction
// stalls surface here.
#ifndef TALUS_OBS_THROUGHPUT_H_
#define TALUS_OBS_THROUGHPUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace talus {
namespace obs {

class ThroughputMeter {
 public:
  explicit ThroughputMeter(size_t window_ops = 10000)
      : window_ops_(window_ops) {}

  /// Records that one operation completed at virtual time `clock`.
  void RecordOp(double clock) { completions_.push_back(clock); }

  uint64_t ops() const { return completions_.size(); }

  /// Ops per clock unit over the whole run.
  double AverageThroughput() const;

  /// Minimum windowed throughput: min over i of
  ///   window_ops / (t[i + window] − t[i]).
  double WorstCaseThroughput() const;

  void Reset() { completions_.clear(); }

 private:
  size_t window_ops_;
  std::vector<double> completions_;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_THROUGHPUT_H_
