#ifndef TALUS_OBS_MODEL_DRIFT_H_
#define TALUS_OBS_MODEL_DRIFT_H_

// Cost-model drift telemetry: compares the measured per-op I/O (from
// AmpTracker) with the cost model's prediction for the design that runs.
// The monitor prices nothing and keeps no design: each evaluation is
// handed the live policy's design and its tuning::Predict cost, so a
// switch or a Vertiorizon redesign is priced from the next window on. A
// design with no closed form (universal) gets no drift score.
//
// Unit conventions (documented in DESIGN.md §6.7):
//   - point lookup: data blocks fetched per lookup. The model's R sums
//     its parts' false positives for a zero-result lookup (ℓ·f or
//     τ(n,ℓ)·f/n above, f or T·f per vertical level); a found lookup adds
//     its one true block read, so the prediction is found_fraction + R.
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
#include <optional>
#include <string>

#include "tuning/cost_model.h"

namespace talus {
namespace obs {

struct DriftSample {
  // Inputs echoed back for the talus.model property and the tuner.
  WorkloadMix mix;                 // windowed measured mix
  std::optional<tuning::Design> design;  // none: no closed form
  tuning::Cost predicted;          // Predict(design, f, P, N/B); 0 if none
  double bloom_fpr = 0;            // f
  double page_entries = 0;         // P
  uint64_t data_buffers = 1;       // N/B
  uint64_t window_ops = 0;         // every operation, scans included
  uint64_t window_lookups = 0;
  uint64_t window_updates = 0;     // puts + deletes, batch entries included

  // Predicted (update: predicted.update) vs measured per-op cost.
  double predicted_point = 0;      // found_fraction + predicted.point
  double measured_point = 0;
  double point_ratio = 0;          // measured / predicted; 0 = no sample
  double measured_update = 0;
  double update_ratio = 0;
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
    // The design the window ran under, and its price.
    std::optional<tuning::Design> design;
    tuning::Cost predicted;         // Predict(design, f, P, N/B)
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
