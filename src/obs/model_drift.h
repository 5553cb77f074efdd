#ifndef TALUS_OBS_MODEL_DRIFT_H_
#define TALUS_OBS_MODEL_DRIFT_H_

// Cost-model drift telemetry: feeds the measured workload mix and the
// measured per-op I/O (from AmpTracker) into the analytical cost model
// of the design that runs, and reports how far reality has drifted from
// the model's predictions. The monitor keeps no design of its own: each
// evaluation is handed merge, T and f with the measurements (the engine
// reads them from its live growth-policy config), so a runtime policy
// switch is priced from the next window on.
//
// Unit conventions (documented in DESIGN.md §6.7):
//   - point lookup: data blocks fetched per lookup. The model predicts
//     L·f (leveling) or L·T·f (tiering) blocks for a zero-result lookup;
//     a found lookup adds its one true block read, so the prediction is
//     found_fraction + model R.
//   - update: page I/Os per update. Measured = write_amp / P (bytes
//     amplification divided by entries per page cancels to the model's
//     unit); predicted = the model's W.
//   - range lookup: predicted only (the engine has no per-scan block
//     attribution yet); surfaced for context, excluded from drift.
//
// Drift has two triggers: the prediction error (max over ops of
// max(ratio, 1/ratio) where ratio = measured/predicted) exceeding
// `drift_threshold`, or the windowed mix moving more than
// `mix_shift_threshold` (L1/2 distance) from the previous window with
// traffic. The adaptive tuner (tune/adaptive_tuner.h) decides from the
// same sample.

#include <cstdint>
#include <mutex>
#include <string>

#include "tuning/workload_mix.h"

namespace talus {
namespace obs {

struct DriftSample {
  // Inputs echoed back for the talus.model property and the tuner.
  WorkloadMix mix;                 // windowed measured mix
  MergePolicy merge = MergePolicy::kLeveling;
  int levels = 0;                  // L implied by current data volume
  double size_ratio = 0;           // T
  double bloom_fpr = 0;            // f
  double page_entries = 0;         // P
  uint64_t data_buffers = 1;       // N/B
  uint64_t window_ops = 0;         // every operation, scans included
  uint64_t window_lookups = 0;
  uint64_t window_updates = 0;     // puts + deletes, batch entries included

  // Predicted vs measured per-op cost (see unit conventions above).
  double predicted_point = 0;
  double measured_point = 0;
  double point_ratio = 0;          // measured / predicted; 0 = no sample
  double predicted_update = 0;
  double measured_update = 0;
  double update_ratio = 0;
  double predicted_range = 0;      // no measured analog yet
  double zeta_predicted = 0;       // mix-weighted model cost (Eq. 5)

  // Drift verdict.
  double drift_score = 0;          // max over ops of max(r, 1/r)
  double mix_shift = 0;            // L1/2 vs previous window's mix
  bool drifted = false;

  std::string ToString() const;    // the talus.model text format
};

class ModelDriftMonitor {
 public:
  struct Params {
    double drift_threshold = 4.0;      // prediction-error trigger
    double mix_shift_threshold = 0.35; // workload-flip trigger
  };

  struct Measured {
    // The design the window ran under.
    MergePolicy merge = MergePolicy::kLeveling;
    double size_ratio = 6.0;        // T
    double bloom_fpr = 0.1;         // f
    WorkloadMix mix;                // windowed mix (AmpSnapshot::Mix)
    uint64_t window_ops = 0;        // AmpSnapshot::Operations()
    uint64_t window_lookups = 0;
    uint64_t window_updates = 0;
    double found_fraction = 0;      // windowed hits / lookups
    double blocks_per_lookup = 0;   // windowed measured R
    double write_amp = 0;           // windowed measured bytes amplification
    double page_entries = 4.0;      // P implied by block size / entry size
    uint64_t data_buffers = 1;      // N/B: data volume in write buffers
  };

  ModelDriftMonitor() = default;
  explicit ModelDriftMonitor(const Params& params) : params_(params) {}

  /// Evaluate one window. Stateful only for the mix-shift baseline (the
  /// mix of the last window with traffic); safe for concurrent callers.
  DriftSample Evaluate(const Measured& m);

 private:
  const Params params_{};
  std::mutex mu_;
  bool have_prev_mix_ = false;
  WorkloadMix prev_mix_;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_MODEL_DRIFT_H_
