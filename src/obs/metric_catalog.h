// The metric catalog (DESIGN.md §6.3): exactly one declaration per metric
// the engine and the server export, and one per talus.* property. A metric's
// declaration names it on each surface that shows it — the Prometheus
// series, the talus.stats key, the JSONL sample key — and gives its kind,
// unit, HELP text, fleet merge rule, and the function that reads it out of
// a MetricSnapshot.
//
// Each engine fills one MetricSnapshot under its own mutex
// (DB::SnapshotMetrics). Three renderers turn a vector of snapshots into
// text: talus.stats, the Prometheus exposition (GET /metrics, DESIGN.md
// §6.4) and the stats snapshotter's JSONL sample (§6.8). A single DB
// renders a vector of one; a ShardedDB renders one snapshot per shard and
// the merge rules combine them, so adding a metric takes one declaration
// and every surface, the fleet's included, picks it up.
#ifndef TALUS_OBS_METRIC_CATALOG_H_
#define TALUS_OBS_METRIC_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "obs/amp_tracker.h"
#include "obs/component_stats.h"
#include "obs/model_drift.h"
#include "read/table_cache.h"
#include "tune/adaptive_tuner.h"
#include "util/histogram.h"

namespace talus {
namespace obs {

/// The parts a snapshot carries. A metric renders only when some snapshot
/// carries its section, and merges over exactly those snapshots.
enum MetricSection : unsigned {
  kEngine = 1,   // Engine counters and per-level I/O, caches, GC, latency.
  kWrite = 2,    // Group commit (its own block of talus.stats).
  kTune = 4,     // DbOptions::adaptive_tuning.
  kDrift = 8,    // One drift evaluation (JSONL samples only).
  kServer = 16,  // A server's talus_server_* counters.
};

/// One engine's (or one server's) observable state at one instant.
struct MetricSnapshot {
  unsigned sections = 0;
  size_t shard_index = 0;
  EngineStats stats;
  GroupCommitStats writes;
  uint64_t bc_hits = 0;
  uint64_t bc_misses = 0;
  uint64_t bc_evictions = 0;
  uint64_t bc_usage = 0;
  uint64_t bc_capacity = 0;
  read::TableCache::Stats tables;
  uint64_t gc_pending = 0;
  uint64_t data_bytes = 0;
  uint64_t num_runs = 0;
  uint64_t events_total = 0;
  std::vector<Histogram> latency;  // Indexed by OpType.
  AmpSnapshot amp;
  tune::TunerStats tune;
  DriftSample drift;
  ServerStats server;
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// How the snapshots of a fleet combine into one value.
enum class Merge : uint8_t {
  kSum,        // Counters and additive gauges.
  kMax,        // High-water marks and worst-of scores.
  kRatio,      // num / den, each summed over the shards first.
  kHistogram,  // Bucket-wise histogram merge, then the statistic.
  kPerShard,   // No fleet value: Prometheus shows each shard's under a
               // shard="i" label, talus.stats and JSONL leave it out.
};

/// The series one declaration expands to.
enum class Dim : uint8_t {
  kOne,    // A single series.
  kLevel,  // One per amp level, labeled level="i".
  kOp,     // One per OpType with observations, labeled op="name".
};

/// A metric's value in one snapshot.
struct MetricValue {
  MetricValue(double n, double d = 0, const Histogram* h = nullptr)
      : num(n), den(d), hist(h) {}
  double num;
  double den;             // Merge::kRatio only.
  const Histogram* hist;  // Merge::kHistogram only.
};

/// Histogram statistic for MetricDef::arg: the mean instead of a
/// percentile.
constexpr double kMean = -1;

struct MetricDef {
  const char* prom;  // Prometheus series `name{labels}`; null: not exported.
  const char* stat;  // talus.stats (talus.tune for kTune) key.
  const char* json;  // JSONL sample key; null: not sampled.
  MetricKind kind;
  Merge merge;
  const char* unit;
  const char* help;
  MetricValue (*value)(const MetricSnapshot& s, int index);
  unsigned section = kEngine;
  Dim dim = Dim::kOne;
  int digits = -1;  // Decimals in talus.stats and JSONL; -1: an integer.
  double arg = 0;   // kRatio: the value of x/0. kHistogram: the
                    // percentile, or kMean.
};

/// Every declaration, in rendering order.
const std::vector<MetricDef>& MetricCatalog();

/// How a ShardedDB with more than one shard answers a talus.* property.
enum class PropertyMerge : uint8_t {
  kCatalog,   // Rendered from the merged metric snapshots.
  kSum,       // One integer per shard, summed.
  kPerShard,  // Each shard's text under a "-- shard i --" header.
  kFleet,     // Answered by the ShardedDB itself.
};

struct PropertyDef {
  const char* name;
  PropertyMerge merge;
};

/// The declaration of `name`; null when no such property exists.
const PropertyDef* FindProperty(const std::string& name);

/// The `key=value` line of the metrics in `sections` that have a stat
/// key: talus.stats by default, talus.tune's counters for kTune. A
/// fleet (more than one engine snapshot) leads with `shards=N`.
std::string RenderStats(const std::vector<MetricSnapshot>& snaps,
                        unsigned sections = kEngine | kWrite);
/// The Prometheus text exposition of every exported metric.
std::string RenderPrometheus(const std::vector<MetricSnapshot>& snaps);
/// One JSON object (no trailing newline): `t_us`, `shard` (or `shards`
/// for a fleet), then every sampled metric.
std::string RenderJsonSample(const std::vector<MetricSnapshot>& snaps,
                             uint64_t t_us);

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_METRIC_CATALOG_H_
