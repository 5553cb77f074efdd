// Prometheus text-exposition builder (DESIGN.md §6.4). A small generic
// writer that knows the format, not the metrics: obs::RenderPrometheus
// (obs/metric_catalog.h) feeds it every declared series, and the server's
// HTTP `GET /metrics` endpoint (src/server/server.h, DESIGN.md §8) serves
// the result.
//
// Samples are buffered per family (metric name) and assembled in Output():
// each family appears exactly once, in first-insertion order, with one
// `# HELP` (when provided) and one `# TYPE` line followed by all of its
// samples contiguously — the exposition format requires this even when
// callers interleave families (e.g. two label series emitted from one loop).
//
// Histograms follow the Prometheus convention: cumulative `_bucket` series
// with `le` labels over the shared util/Histogram layout (only buckets up to
// the last occupied one, plus +Inf), then `_sum` and `_count`.
#ifndef TALUS_OBS_PROMETHEUS_H_
#define TALUS_OBS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace talus {
namespace obs {

class PrometheusWriter {
 public:
  /// Adds one counter sample to the `name` family. `labels` is the raw
  /// inner label text, e.g. `op="put"`, or "" for none. `help` (first
  /// non-empty one wins) becomes the family's # HELP line.
  void AddCounter(const std::string& name, const std::string& labels,
                  uint64_t value, const std::string& help = "");
  /// Same, for free-form gauge values.
  void AddGauge(const std::string& name, const std::string& labels,
                double value, const std::string& help = "");
  /// Adds the full histogram series (`_bucket`/`_sum`/`_count`) for
  /// `name{labels}`. Empty histograms still emit a zero +Inf bucket so the
  /// series exists.
  void AddHistogram(const std::string& name, const std::string& labels,
                    const Histogram& h, const std::string& help = "");

  /// Assembles the exposition text: families contiguous, each headed by
  /// its # HELP (if any) and # TYPE line exactly once.
  std::string Output() const;

 private:
  struct Family {
    std::string name;
    const char* type;
    std::string help;
    std::string body;  // Sample lines, in insertion order.
  };

  Family* FamilyFor(const std::string& name, const char* type,
                    const std::string& help);

  std::vector<Family> families_;  // First-insertion order.
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_PROMETHEUS_H_
