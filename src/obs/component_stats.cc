#include "obs/component_stats.h"

#include <cstdio>

namespace talus {
namespace obs {

std::string BackgroundJobStats::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "flush{scheduled=%llu completed=%llu failed=%llu busy_us=%llu "
      "queued=%zu} "
      "compaction{scheduled=%llu completed=%llu failed=%llu busy_us=%llu "
      "queued=%zu} running=%zu max_queue_depth=%zu",
      static_cast<unsigned long long>(scheduled[0]),
      static_cast<unsigned long long>(completed[0]),
      static_cast<unsigned long long>(failed[0]),
      static_cast<unsigned long long>(busy_micros[0]), queue_depth[0],
      static_cast<unsigned long long>(scheduled[1]),
      static_cast<unsigned long long>(completed[1]),
      static_cast<unsigned long long>(failed[1]),
      static_cast<unsigned long long>(busy_micros[1]), queue_depth[1],
      running, max_queue_depth);
  return buf;
}

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
