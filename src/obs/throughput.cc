#include "obs/throughput.h"

#include <algorithm>

namespace talus {
namespace obs {

double ThroughputMeter::AverageThroughput() const {
  if (completions_.size() < 2) return 0;
  const double span = completions_.back() - completions_.front();
  if (span <= 0) return 0;
  return static_cast<double>(completions_.size() - 1) / span;
}

double ThroughputMeter::WorstCaseThroughput() const {
  const size_t n = completions_.size();
  size_t w = window_ops_;
  if (n < 2) return 0;
  if (w >= n) w = n - 1;  // Degenerate: whole-run window.
  double worst = -1;
  for (size_t i = 0; i + w < n; i++) {
    const double span = completions_[i + w] - completions_[i];
    if (span <= 0) continue;
    const double tput = static_cast<double>(w) / span;
    if (worst < 0 || tput < worst) worst = tput;
  }
  return worst < 0 ? 0 : worst;
}

}  // namespace obs
}  // namespace talus
