#include "policy/growth_policy.h"

#include <algorithm>

namespace talus {

std::vector<LevelFilterInfo> GrowthPolicy::FilterInfo(const Version& v) const {
  // Default: no capacity knowledge; size filters from current occupancy.
  std::vector<LevelFilterInfo> info(v.levels.size());
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    info[i].capacity_entries = 0;
    info[i].expected_fill = 1.0;
  }
  return info;
}

const FileMetaPtr& PickRoundRobin(const SortedRun& run,
                                  const std::string* cursor) {
  if (cursor != nullptr) {
    for (const auto& f : run.files) {
      if (f->smallest.user_key().compare(Slice(*cursor)) > 0) return f;
    }
  }
  return run.files.front();
}

double MeanEntryBytes(const Version& v) {
  const uint64_t entries = v.TotalEntries();
  uint64_t payload = 0;
  for (const auto& l : v.levels) payload += l.PayloadBytes();
  return std::max(1.0, entries > 0 ? static_cast<double>(payload) / entries
                                   : 1024.0);
}

}  // namespace talus
