#include "exec/stall_controller.h"

#include <algorithm>

namespace talus {
namespace exec {

StallController::StallController(const StallConfig& config) : config_(config) {
  config_.max_immutable_memtables =
      std::max<size_t>(1, config_.max_immutable_memtables);
  // A stop threshold at or below the slowdown threshold would skip the
  // slowdown regime entirely; keep them ordered.
  config_.l0_stop_runs =
      std::max(config_.l0_stop_runs, config_.l0_slowdown_runs + 1);
}

StallDecision StallController::Decide(size_t imm_count, size_t l0_runs,
                                      StallCause* cause) const {
  const bool imm_stop = imm_count >= config_.max_immutable_memtables;
  StallDecision decision = StallDecision::kNone;
  StallCause why = StallCause::kNone;
  if (imm_stop || l0_runs >= config_.l0_stop_runs) {
    decision = StallDecision::kStop;
    why = imm_stop ? StallCause::kMemtable : StallCause::kL0;
  } else if (l0_runs >= config_.l0_slowdown_runs) {
    decision = StallDecision::kSlowdown;
    why = StallCause::kL0;
  }
  if (cause != nullptr) *cause = why;
  return decision;
}

}  // namespace exec
}  // namespace talus
