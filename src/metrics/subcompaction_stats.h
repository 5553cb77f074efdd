// SubcompactionStats: point-in-time snapshot of the compaction executor's
// parallel merge activity, reported through DB::GetProperty("talus.exec")
// and consumed by bench/ablation_subcompactions. Produced by
// compaction::CompactionExecutor::GetStats().
#ifndef TALUS_METRICS_SUBCOMPACTION_STATS_H_
#define TALUS_METRICS_SUBCOMPACTION_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace talus {
namespace metrics {

struct SubcompactionStats {
  /// Key-range subcompactions handed to the merge stage (cumulative).
  uint64_t scheduled = 0;
  /// Subcompactions that finished their sorted-output pass.
  uint64_t completed = 0;
  /// Subcompactions executing right now.
  size_t active = 0;
  /// Compactions executed through the pipeline.
  uint64_t compactions = 0;
  /// Leveling flush merges (every one, in either execution mode), counted
  /// apart so the fanout histogram reflects compactions only.
  uint64_t flush_merges = 0;
  /// Per-compaction parallel-fanout distribution (subcompactions per
  /// compaction): mean / p50 / max.
  double fanout_avg = 0;
  double fanout_p50 = 0;
  double fanout_max = 0;

  std::string ToString() const;
};

}  // namespace metrics
}  // namespace talus

#endif  // TALUS_METRICS_SUBCOMPACTION_STATS_H_
