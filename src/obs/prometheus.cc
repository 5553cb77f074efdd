#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>

namespace talus {
namespace obs {

namespace {

std::string SampleName(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

// " <value>\n". Integral values print exactly (byte gauges, latency sums);
// others keep six significant digits.
std::string ValueText(double value) {
  char buf[48];
  const bool integral = std::fabs(value) < 1e18 && value == std::floor(value);
  std::snprintf(buf, sizeof(buf), integral ? " %.0f\n" : " %.6g\n", value);
  return buf;
}

}  // namespace

PrometheusWriter::Family* PrometheusWriter::FamilyFor(
    const std::string& name, const char* type, const std::string& help) {
  // Linear scan: a metrics dump has a few dozen families at most, and the
  // common case appends to the most recent one.
  for (auto it = families_.rbegin(); it != families_.rend(); ++it) {
    if (it->name == name) {
      if (it->help.empty() && !help.empty()) it->help = help;
      return &*it;
    }
  }
  families_.push_back(Family{name, type, help, std::string()});
  return &families_.back();
}

void PrometheusWriter::AddCounter(const std::string& name,
                                  const std::string& labels, uint64_t value,
                                  const std::string& help) {
  Family* f = FamilyFor(name, "counter", help);
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %llu\n",
                static_cast<unsigned long long>(value));
  f->body += SampleName(name, labels) + buf;
}

void PrometheusWriter::AddGauge(const std::string& name,
                                const std::string& labels, double value,
                                const std::string& help) {
  Family* f = FamilyFor(name, "gauge", help);
  f->body += SampleName(name, labels) + ValueText(value);
}

void PrometheusWriter::AddHistogram(const std::string& name,
                                    const std::string& labels,
                                    const Histogram& h,
                                    const std::string& help) {
  Family* f = FamilyFor(name, "histogram", help);
  const std::string sep = labels.empty() ? "" : ",";
  char buf[96];
  // Cumulative buckets up to the last occupied one; the tail collapses into
  // +Inf so empty histograms still produce a complete, scrapable family.
  int last = -1;
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    if (h.BucketCount(b) > 0) last = b;
  }
  uint64_t cum = 0;
  for (int b = 0; b <= last; b++) {
    cum += h.BucketCount(b);
    std::snprintf(buf, sizeof(buf), "le=\"%.6g\"} %llu\n",
                  Histogram::BucketUpperBound(b),
                  static_cast<unsigned long long>(cum));
    f->body += name + "_bucket{" + labels + sep + buf;
  }
  std::snprintf(buf, sizeof(buf), "le=\"+Inf\"} %llu\n",
                static_cast<unsigned long long>(h.Count()));
  f->body += name + "_bucket{" + labels + sep + buf;
  f->body += SampleName(name + "_sum", labels) + ValueText(h.Sum());
  std::snprintf(buf, sizeof(buf), " %llu\n",
                static_cast<unsigned long long>(h.Count()));
  f->body += SampleName(name + "_count", labels) + buf;
}

std::string PrometheusWriter::Output() const {
  std::string out;
  for (const Family& f : families_) {
    if (!f.help.empty()) {
      out += "# HELP " + f.name + " " + f.help + "\n";
    }
    out += "# TYPE " + f.name + " ";
    out += f.type;
    out += "\n";
    out += f.body;
  }
  return out;
}

}  // namespace obs
}  // namespace talus
