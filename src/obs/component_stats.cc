#include "obs/component_stats.h"

namespace talus {
namespace obs {

void GroupCommitTracker::OnGroupCommitted(size_t group_size,
                                          uint64_t committed_batches,
                                          uint64_t queue_wait_micros,
                                          bool wal_synced) {
  stats_.group_commits++;
  stats_.batches_committed += committed_batches;
  if (wal_synced) stats_.wal_syncs++;
  stats_.write_queue_wait_micros += queue_wait_micros;
  stats_.group_sizes.Add(static_cast<double>(group_size));
}

GroupCommitStats GroupCommitTracker::Snapshot() const {
  GroupCommitStats s = stats_;
  s.group_size_avg = s.group_sizes.Average();
  s.group_size_p50 = s.group_sizes.Median();
  s.group_size_max = s.group_sizes.Max();
  return s;
}

}  // namespace obs
}  // namespace talus
