// StallController: write backpressure policy for background execution mode.
//
// Mirrors the production two-stage discipline (RocksDB delayed_write_rate /
// stop conditions; Luo & Carey's stability study): as background work falls
// behind, writers are first *slowed down* (a bounded delay per write keeps
// the queue from growing) and finally *stopped* (blocked until a flush or
// compaction retires debt). Triggers:
//   stop:     immutable memtables at the cap, or level-0 runs at the stop
//             threshold;
//   slowdown: level-0 runs at the slowdown threshold.
// Memtable debt has no slowdown stage (nor has RocksDB's below four write
// buffers): a writer proceeds while flushes are queued below the cap.
// The controller is pure decision logic; the DB enforces the decision
// (sleeping / waiting on its condition variable) and accounts stall time in
// EngineStats, because only it owns the lock and the wait conditions.
#ifndef TALUS_EXEC_STALL_CONTROLLER_H_
#define TALUS_EXEC_STALL_CONTROLLER_H_

#include <cstddef>
#include <cstdint>

namespace talus {
namespace exec {

struct StallConfig {
  /// Immutable memtables allowed before writers stop (>= 1).
  size_t max_immutable_memtables = 2;
  /// Level-0 run count that triggers write slowdown.
  size_t l0_slowdown_runs = 12;
  /// Level-0 run count that stops writes entirely.
  size_t l0_stop_runs = 20;
  /// Delay injected per write while in the slowdown regime.
  uint64_t slowdown_delay_micros = 1000;
};

enum class StallDecision { kNone, kSlowdown, kStop };

/// Which debt triggered the decision. A slowdown is always level-0 debt.
/// When both debts stop writes, memtable debt wins the attribution: it is
/// the nearer-term emergency (one flush retires it) and the distinction is
/// what talus.stats and the event trace report as the stall cause.
enum class StallCause { kNone, kMemtable, kL0 };

class StallController {
 public:
  explicit StallController(const StallConfig& config);

  /// Decision for the current engine state (imm_count = immutable memtables
  /// queued or flushing, l0_runs = sorted runs in level 0). A non-null
  /// `cause` receives which debt triggered it (kNone for kNone).
  StallDecision Decide(size_t imm_count, size_t l0_runs,
                       StallCause* cause = nullptr) const;

  /// Sanitized configuration (thresholds re-ordered, caps clamped).
  const StallConfig& config() const { return config_; }

 private:
  StallConfig config_;
};

}  // namespace exec
}  // namespace talus

#endif  // TALUS_EXEC_STALL_CONTROLLER_H_
