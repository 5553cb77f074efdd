#include "obs/model_drift.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace talus {
namespace obs {

namespace {

double RatioScore(double ratio) {
  if (ratio <= 0) return 0;
  return std::max(ratio, 1.0 / ratio);
}

double MixL1Half(const WorkloadMix& a, const WorkloadMix& b) {
  return (std::fabs(a.updates - b.updates) +
          std::fabs(a.point_lookups - b.point_lookups) +
          std::fabs(a.range_lookups - b.range_lookups)) /
         2.0;
}

}  // namespace

std::string DriftSample::ToString() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "mix: w=%.3f r=%.3f q=%.3f window_updates=%" PRIu64
                " window_lookups=%" PRIu64 "\n",
                mix.updates, mix.point_lookups, mix.range_lookups,
                window_updates, window_lookups);
  out += buf;
  std::snprintf(buf, sizeof(buf), " levels=%d f=%.4f P=%.1f\n",
                predicted.levels, bloom_fpr, page_entries);
  out += "design: " + (design ? design->ToString() : "none") + buf;
  if (design && design->horizontal) {
    out += "horizontal: " + design->horizontal->ToString() + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "point: predicted=%.4f measured=%.4f ratio=%.3f\n",
                predicted_point, measured_point, point_ratio);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "update: predicted=%.4f measured=%.4f ratio=%.3f\n",
                predicted.update, measured_update, update_ratio);
  out += buf;
  std::snprintf(buf, sizeof(buf), "range: predicted=%.4f\n", predicted.range);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "zeta=%.4f drift_score=%.3f mix_shift=%.3f drifted=%d\n",
                zeta_predicted, drift_score, mix_shift, drifted ? 1 : 0);
  out += buf;
  return out;
}

DriftSample ModelDriftMonitor::Evaluate(const Measured& m) {
  DriftSample s;
  s.mix = m.mix;
  s.design = m.design;
  s.bloom_fpr = m.bloom_fpr;
  s.page_entries = m.page_entries;
  s.data_buffers = m.data_buffers;
  s.window_ops = m.window_ops;
  s.window_lookups = m.window_lookups;
  s.window_updates = m.window_updates;
  s.measured_point = m.blocks_per_lookup;
  s.measured_update = m.write_amp / m.page_entries;

  if (m.design) {
    s.predicted = m.predicted;
    // A found lookup pays one true data-block read on top of the model's
    // false-positive term (the model prices zero-result lookups).
    s.predicted_point = m.found_fraction + m.predicted.point;
    s.zeta_predicted = m.predicted.Zeta(m.mix);
  }
  if (m.window_lookups > 0 && s.predicted_point > 0) {
    s.point_ratio = s.measured_point / s.predicted_point;
  }
  if (m.window_updates > 0 && s.predicted.update > 0) {
    s.update_ratio = s.measured_update / s.predicted.update;
  }
  s.drift_score = std::max(RatioScore(s.point_ratio),
                           RatioScore(s.update_ratio));

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_prev_mix_) s.mix_shift = MixL1Half(m.mix, prev_mix_);
    // Only windows with traffic (scans count) move the baseline: an idle
    // window must not make the next busy window look like a flip back.
    if (m.window_ops > 0) {
      prev_mix_ = m.mix;
      have_prev_mix_ = true;
    }
  }

  s.drifted = s.drift_score > params_.drift_threshold ||
              s.mix_shift > params_.mix_shift_threshold;
  return s;
}

}  // namespace obs
}  // namespace talus
