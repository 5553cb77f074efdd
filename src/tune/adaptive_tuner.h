// AdaptiveTuner: the *acting* half of the paper's sense→act loop
// (DESIGN.md §9). The sensing half (obs::AmpTracker windowed amplification
// and operation mix, obs::ModelDriftMonitor drift scores) prices the
// running design once per window; this class closes the loop: each
// decision tick it takes that window's obs::DriftSample, weighs the
// sample's price of its design against every growing vertical candidate
// (tuning::BestVertical prices them with tuning::Predict at the same
// *measured* mix and amp-derived parameters), and recommends switching the
// growth policy — or retuning its size ratio — when the predicted win
// clears a hysteresis band.
//
// Split of responsibilities:
//   * Decide() is the navigator: pure cost-model arithmetic plus the two
//     pieces of anti-flap state (the hysteresis band and a post-switch
//     cooldown). It never touches the engine; tests drive it directly.
//   * The owner (DB::RetuneNow) evaluates one drift window, hands its
//     sample (which carries the running design) to Decide, and applies a
//     kRetune decision via DB::ApplyPolicyConfig (the live-migration path).
//   * The owner's exec::Ticker sets the cadence: a standalone DB ticks
//     RetuneNow, a shard::ShardedDB ticks every shard from its one ticker
//     while the per-shard tuners keep the decision state.
//
// Hysteresis semantics: a switch is recommended only when
// zeta(current design) / zeta(best design) - 1 > hysteresis. At the
// indifference boundary the ratio is ~1 from either side, so the tuner
// holds whichever design is installed instead of flapping between two
// near-equal ones. After a switch the cooldown holds decisions for a few
// ticks so the windowed measurements refill under the new shape.
#ifndef TALUS_TUNE_ADAPTIVE_TUNER_H_
#define TALUS_TUNE_ADAPTIVE_TUNER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/model_drift.h"
#include "tuning/workload_mix.h"

namespace talus {
namespace tune {

struct TunerConfig {
  /// Minimum predicted fractional cost win (ζ ratio − 1) before a switch
  /// is recommended; the anti-flap band.
  double hysteresis = 0.35;
  /// Windows with fewer operations (updates, lookups and scans) than this
  /// are skipped: a thin window's mix estimate is noise, not workload.
  uint64_t min_window_ops = 256;
  /// Decision ticks held after a switch while measurements refill.
  int cooldown_ticks = 2;
};

struct TuneDecision {
  enum class Action { kHold, kThinWindow, kCooldown, kRetune };
  Action action = Action::kHold;
  /// The recommended vertical design (valid when action == kRetune).
  MergePolicy merge = MergePolicy::kLeveling;
  double size_ratio = 6.0;
  double current_cost = 0;    // ζ(current design, measured mix)
  double best_cost = 0;       // ζ(best design, measured mix)
  double predicted_gain = 0;  // current_cost / best_cost − 1

  bool retune() const { return action == Action::kRetune; }
  const char* ActionName() const;
};

/// Snapshot of the tuner's counters (the talus.tune property and the
/// talus_tune_* Prometheus families).
struct TunerStats {
  uint64_t ticks = 0;
  uint64_t thin_windows = 0;
  uint64_t cooldown_holds = 0;
  uint64_t holds = 0;
  uint64_t retunes = 0;          // kRetune decisions
  uint64_t switches_applied = 0; // decisions the engine installed
  uint64_t drift_events = 0;     // kModelDrift samples seen by the owner
  double last_gain = 0;
  double last_current_cost = 0;
  double last_best_cost = 0;
  std::string last_action;  // ActionName() of the last decision
  std::string last_design;  // label of the last applied design
};

class AdaptiveTuner {
 public:
  explicit AdaptiveTuner(const TunerConfig& config);
  AdaptiveTuner(const AdaptiveTuner&) = delete;
  AdaptiveTuner& operator=(const AdaptiveTuner&) = delete;

  /// One navigation decision over a drift window: its mix, operation
  /// count, f, P, N/B and the design it ran under. Thread-safe; updates
  /// the anti-flap state and counters.
  TuneDecision Decide(const obs::DriftSample& window);

  /// Owner feedback: a drift window flagged kModelDrift.
  void NoteDrift();
  /// Owner feedback: a kRetune decision was installed as `label`.
  void NoteSwitchApplied(const std::string& label);

  TunerStats GetStats() const;
  const TunerConfig& config() const { return config_; }

 private:
  const TunerConfig config_;

  mutable std::mutex mu_;  // decision state + stats
  int cooldown_ = 0;
  TunerStats stats_;
};

}  // namespace tune
}  // namespace talus

#endif  // TALUS_TUNE_ADAPTIVE_TUNER_H_
