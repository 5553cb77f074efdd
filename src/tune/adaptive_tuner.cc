#include "tune/adaptive_tuner.h"

#include "tuning/cost_model.h"

namespace talus {
namespace tune {

const char* TuneDecision::ActionName() const {
  switch (action) {
    case Action::kHold: return "hold";
    case Action::kThinWindow: return "thin-window";
    case Action::kCooldown: return "cooldown";
    case Action::kRetune: return "retune";
  }
  return "unknown";
}

AdaptiveTuner::AdaptiveTuner(const TunerConfig& config) : config_(config) {}

TuneDecision AdaptiveTuner::Decide(const obs::DriftSample& window) {
  TuneDecision d;

  std::lock_guard<std::mutex> lock(mu_);
  stats_.ticks++;

  if (window.window_ops < config_.min_window_ops) {
    d.action = TuneDecision::Action::kThinWindow;
    stats_.thin_windows++;
    stats_.last_action = d.ActionName();
    return d;
  }

  WorkloadMix mix = window.mix;
  mix.Normalize();
  // The window's price of its design: 0, so held, with no closed form.
  d.current_cost = window.predicted.Zeta(mix);

  const tuning::VerticalChoice best = tuning::BestVertical(
      window.bloom_fpr, window.page_entries, window.data_buffers, mix);
  d.best_cost = best.cost;
  d.predicted_gain = best.cost > 0 && d.current_cost > 0
                         ? d.current_cost / best.cost - 1.0
                         : 0.0;

  stats_.last_gain = d.predicted_gain;
  stats_.last_current_cost = d.current_cost;
  stats_.last_best_cost = d.best_cost;

  if (cooldown_ > 0) {
    cooldown_--;
    d.action = TuneDecision::Action::kCooldown;
    stats_.cooldown_holds++;
    stats_.last_action = d.ActionName();
    return d;
  }

  const bool same_design =
      window.design == tuning::Design::Vertical(best.merge, best.size_ratio);
  if (same_design || d.predicted_gain <= config_.hysteresis) {
    d.action = TuneDecision::Action::kHold;
    stats_.holds++;
    stats_.last_action = d.ActionName();
    return d;
  }

  d.action = TuneDecision::Action::kRetune;
  d.merge = best.merge;
  d.size_ratio = best.size_ratio;
  cooldown_ = config_.cooldown_ticks;
  stats_.retunes++;
  stats_.last_action = d.ActionName();
  return d;
}

void AdaptiveTuner::NoteDrift() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.drift_events++;
}

void AdaptiveTuner::NoteSwitchApplied(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.switches_applied++;
  stats_.last_design = label;
}

TunerStats AdaptiveTuner::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tune
}  // namespace talus
