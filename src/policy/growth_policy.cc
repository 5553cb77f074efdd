#include "policy/growth_policy.h"

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

}  // namespace talus
