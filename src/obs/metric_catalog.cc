#include "obs/metric_catalog.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/latency_recorder.h"
#include "obs/prometheus.h"

namespace talus {
namespace obs {

namespace {

constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;
constexpr Merge kSum = Merge::kSum;
constexpr Merge kMax = Merge::kMax;
constexpr Merge kRatio = Merge::kRatio;
constexpr Merge kHist = Merge::kHistogram;
constexpr Merge kPerShard = Merge::kPerShard;
constexpr size_t kPutOp = static_cast<size_t>(OpType::kPut);
constexpr size_t kGetOp = static_cast<size_t>(OpType::kGet);
using Level = AmpSnapshot::Level;
using Snap = MetricSnapshot;

// Where a value comes from: `s` is the snapshot, `i` the level or op.
#define FROM(x) [](const Snap& s, int) { return MetricValue(x); }
#define RATIO(n, d) [](const Snap& s, int) { return MetricValue(n, d); }
#define LEVEL(field) \
  [](const Snap& s, int i) { return MetricValue(s.amp.levels[i].field); }
#define HIST(h) \
  [](const Snap& s, [[maybe_unused]] int i) { return MetricValue(0, 0, &(h)); }

constexpr char kStallUsHelp[] = "Time writers spent stalled, by regime.";
constexpr char kStallsHelp[] = "Writes stalled, by regime and cause.";
constexpr char kWrittenHelp[] = "Bytes written per level, flush vs compaction.";
constexpr char kLiveHelp[] = "Live bytes per level: SST vs logical payload.";
constexpr char kHoldsHelp[] = "Held decisions, by why the tuner held.";
constexpr char kCostHelp[] = "Model cost zeta at the last decision.";

const std::vector<MetricDef> kCatalog = {
    // ---- Engine (talus.stats leads with these) ----
    {"talus_puts_total", "puts", nullptr, kCounter, kSum, "ops",
     "Puts applied, batch entries included.", FROM(s.amp.puts)},
    {"talus_deletes_total", "deletes", nullptr, kCounter, kSum, "ops",
     "Deletes applied, batch entries included.", FROM(s.amp.deletes)},
    {"talus_gets_total", "gets", nullptr, kCounter, kSum, "ops",
     "Point lookups.", FROM(s.amp.lookups)},
    {"talus_scans_total", "scans", nullptr, kCounter, kSum, "ops", "Scans.",
     FROM(s.amp.scans)},
    {"talus_flushes_total", "flushes", nullptr, kCounter, kSum, "jobs",
     "Memtable flushes.", FROM(s.stats.flushes)},
    {"talus_compactions_total", "compactions", nullptr, kCounter, kSum,
     "jobs", "Compactions.", FROM(s.amp.Total(&Level::compactions))},
    {nullptr, "write_amp", nullptr, kGauge, kRatio, "ratio",
     "Flush and compaction bytes written per user payload byte.",
     RATIO(s.amp.TotalBytesFlushed() + s.amp.TotalBytesCompacted(),
           s.amp.user_payload_bytes),
     kEngine, Dim::kOne, 3},
    {nullptr, "read_amp", nullptr, kGauge, kRatio, "ratio",
     "Sorted runs probed per point lookup.",
     RATIO(s.amp.Total(&Level::files_probed), s.amp.lookups), kEngine,
     Dim::kOne, 3},
    {nullptr, "flush_read", nullptr, kCounter, kSum, "bytes",
     "Entry bytes flush merges read: the memtable's and a merged run's.",
     FROM(s.amp.Total(&Level::flush_bytes_read))},
    {nullptr, "comp_read", nullptr, kCounter, kSum, "bytes",
     "Entry bytes compactions read.",
     FROM(s.amp.Total(&Level::compaction_bytes_read))},
    {nullptr, "filter_negatives", nullptr, kCounter, kSum, "probes",
     "Run probes a filter answered negative.",
     FROM(s.amp.Total(&Level::filter_negatives))},
    {nullptr, "cache_hits", nullptr, kCounter, kSum, "blocks",
     "Lookup data blocks the block cache served.",
     FROM(s.amp.Total(&Level::cache_hits))},
    {nullptr, "max_stall", nullptr, kGauge, kMax, "clock",
     "Longest inline maintenance stall, virtual clock.",
     FROM(s.stats.max_stall_clock), kEngine, Dim::kOne, 1},
    {nullptr, "switches", nullptr, kCounter, kSum, "memtables",
     "Active-to-immutable memtable handoffs.",
     FROM(s.stats.memtable_switches)},
    {nullptr, "stall_us", nullptr, kCounter, kSum, "us",
     "Time writers spent stalled.", FROM(s.stats.stall_micros())},
    {nullptr, "slowdowns", nullptr, kCounter, kSum, "writes",
     "Writes the slowdown regime delayed.", FROM(s.stats.stall_slowdowns())},
    {nullptr, "stops", nullptr, kCounter, kSum, "writes",
     "Writes blocked until the debt retired.", FROM(s.stats.stall_stops())},
    {"talus_stall_micros_total{regime=\"slowdown\"}", "stall_slowdown_us",
     nullptr, kCounter, kSum, "us", kStallUsHelp,
     FROM(s.stats.stall_slowdown_micros)},
    {"talus_stall_micros_total{regime=\"stop\"}", "stall_stop_us", nullptr,
     kCounter, kSum, "us", kStallUsHelp, FROM(s.stats.stall_stop_micros)},
    {"talus_stalls_total{regime=\"slowdown\",cause=\"l0\"}", "slowdowns_l0",
     nullptr, kCounter, kSum, "writes", kStallsHelp,
     FROM(s.stats.stall_slowdowns_l0)},
    {"talus_stalls_total{regime=\"stop\",cause=\"memtable\"}",
     "stops_memtable", nullptr, kCounter, kSum, "writes", kStallsHelp,
     FROM(s.stats.stall_stops_memtable)},
    {"talus_stalls_total{regime=\"stop\",cause=\"l0\"}", "stops_l0", nullptr,
     kCounter, kSum, "writes", kStallsHelp, FROM(s.stats.stall_stops_l0)},
    {nullptr, "bc_hits", nullptr, kCounter, kSum, "lookups",
     "Block-cache hits.", FROM(s.bc_hits)},
    {nullptr, "bc_misses", nullptr, kCounter, kSum, "lookups",
     "Block-cache misses.", FROM(s.bc_misses)},
    {nullptr, "bc_evictions", nullptr, kCounter, kSum, "blocks",
     "Block-cache evictions.", FROM(s.bc_evictions)},
    {nullptr, "bc_usage", nullptr, kGauge, kSum, "bytes",
     "Bytes charged to the block cache.", FROM(s.bc_usage)},
    {nullptr, "bc_cap", nullptr, kGauge, kSum, "bytes",
     "Block-cache capacity.", FROM(s.bc_capacity)},
    {nullptr, "tc_hits", nullptr, kCounter, kSum, "lookups",
     "Table-cache hits.", FROM(s.tables.hits)},
    {nullptr, "tc_misses", nullptr, kCounter, kSum, "lookups",
     "Table-cache misses.", FROM(s.tables.misses)},
    {nullptr, "tc_opens", nullptr, kCounter, kSum, "files",
     "SST files the table cache opened.", FROM(s.tables.opens)},
    {nullptr, "tc_evictions", nullptr, kCounter, kSum, "files",
     "Table-cache evictions.", FROM(s.tables.evictions)},
    {nullptr, "tc_open_readers", nullptr, kGauge, kSum, "files",
     "Readers the table cache holds open.", FROM(s.tables.open_readers)},
    {nullptr, "tc_cap", nullptr, kGauge, kSum, "files",
     "Table-cache capacity.", FROM(s.tables.capacity)},
    {nullptr, "gc_pending", nullptr, kGauge, kSum, "files",
     "Obsolete SSTs waiting for their last reader.", FROM(s.gc_pending)},
    {"talus_obsolete_files_deleted_total", "gc_deleted", nullptr, kCounter,
     kSum, "files", "Obsolete SSTs deleted.",
     FROM(s.stats.obsolete_files_deleted)},

    // ---- Group commit (DESIGN.md §2.9), after " | " in talus.stats ----
    {nullptr, "group_commits", nullptr, kCounter, kSum, "groups",
     "Commit groups, one WAL record each.", FROM(s.writes.group_commits),
     kWrite},
    {nullptr, "batches", nullptr, kCounter, kSum, "batches",
     "Writer batches committed.", FROM(s.writes.batches_committed), kWrite},
    {nullptr, "group_size_avg", nullptr, kGauge, kHist, "batches",
     "Batches per commit group: mean.", HIST(s.writes.group_sizes), kWrite,
     Dim::kOne, 2, kMean},
    {nullptr, "group_size_p50", nullptr, kGauge, kHist, "batches",
     "Batches per commit group: median.", HIST(s.writes.group_sizes), kWrite,
     Dim::kOne, 1, 50},
    {nullptr, "group_size_max", nullptr, kGauge, kHist, "batches",
     "Batches per commit group: maximum.", HIST(s.writes.group_sizes),
     kWrite, Dim::kOne, 0, 100},
    {nullptr, "wal_syncs", nullptr, kCounter, kSum, "syncs",
     "WAL fsyncs the write path issued.", FROM(s.writes.wal_syncs), kWrite},
    {nullptr, "write_queue_wait_us", nullptr, kCounter, kSum, "us",
     "Time writers queued before their group formed.",
     FROM(s.writes.write_queue_wait_micros), kWrite},

    // ---- Engine, Prometheus and JSONL only ----
    {"talus_flush_bytes_written_total", nullptr, nullptr, kCounter, kSum,
     "bytes", "SST bytes flushes wrote.", FROM(s.amp.TotalBytesFlushed())},
    {"talus_compaction_bytes_written_total", nullptr, nullptr, kCounter, kSum,
     "bytes", "SST bytes compactions wrote.",
     FROM(s.amp.TotalBytesCompacted())},
    // Shards share one event ring, so each snapshot holds the fleet total.
    {"talus_events_total", nullptr, nullptr, kCounter, kMax, "events",
     "Events emitted into the event ring.", FROM(s.events_total)},
    {"talus_data_bytes", nullptr, "data_bytes", kGauge, kSum, "bytes",
     "Approximate live logical bytes.", FROM(s.data_bytes)},
    {"talus_latency_us", nullptr, nullptr, MetricKind::kHistogram, kHist,
     "us", "Per-op latency.", HIST(s.latency[i]), kEngine, Dim::kOp},
    {nullptr, nullptr, "put_p99_us", kGauge, kHist, "us",
     "Write-call latency: p99.", HIST(s.latency[kPutOp]), kEngine,
     Dim::kOne, 1, 99},
    {nullptr, nullptr, "get_p99_us", kGauge, kHist, "us",
     "Point-lookup latency: p99.", HIST(s.latency[kGetOp]), kEngine,
     Dim::kOne, 1, 99},

    // ---- Amplification (DESIGN.md §6.6) ----
    {"talus_amp_bytes_written_total{source=\"flush\"}", nullptr, nullptr,
     kCounter, kSum, "bytes", kWrittenHelp, LEVEL(flush_bytes_written), kEngine,
     Dim::kLevel},
    {"talus_amp_bytes_written_total{source=\"compaction\"}", nullptr, nullptr,
     kCounter, kSum, "bytes", kWrittenHelp, LEVEL(compaction_bytes_written),
     kEngine, Dim::kLevel},
    {"talus_amp_compaction_bytes_read_total", nullptr, nullptr, kCounter,
     kSum, "bytes", "Bytes compactions read, per level.",
     LEVEL(compaction_bytes_read), kEngine, Dim::kLevel},
    {"talus_amp_files_probed_total", nullptr, nullptr, kCounter, kSum,
     "files", "Point-lookup file probes, per level.", LEVEL(files_probed),
     kEngine, Dim::kLevel},
    {"talus_amp_filter_negatives_total", nullptr, nullptr, kCounter, kSum,
     "probes", "Probes a filter answered negative, per level.",
     LEVEL(filter_negatives), kEngine, Dim::kLevel},
    {"talus_amp_bloom_fp_total", nullptr, nullptr, kCounter, kSum, "probes",
     "Probes whose Bloom filter passed but held no result.",
     LEVEL(bloom_false_positives), kEngine, Dim::kLevel},
    {"talus_amp_block_reads_total", nullptr, nullptr, kCounter, kSum,
     "blocks", "Data blocks point lookups fetched, per level.",
     LEVEL(block_reads), kEngine, Dim::kLevel},
    {"talus_amp_hits_total", nullptr, nullptr, kCounter, kSum, "lookups",
     "Lookups decided per level (memtable hits apart).", LEVEL(hits), kEngine,
     Dim::kLevel},
    {"talus_amp_live_bytes{kind=\"sst\"}", nullptr, nullptr, kGauge, kSum,
     "bytes", kLiveHelp, LEVEL(live_sst_bytes), kEngine, Dim::kLevel},
    {"talus_amp_live_bytes{kind=\"payload\"}", nullptr, nullptr, kGauge, kSum,
     "bytes", kLiveHelp, LEVEL(live_payload_bytes), kEngine, Dim::kLevel},
    {"talus_amp_lookups_total", nullptr, "lookups", kCounter, kSum, "lookups",
     "Point lookups.", FROM(s.amp.lookups)},
    {"talus_amp_memtable_hits_total", nullptr, nullptr, kCounter, kSum,
     "lookups", "Point lookups a memtable answered.",
     FROM(s.amp.memtable_hits)},
    {"talus_amp_misses_total", nullptr, nullptr, kCounter, kSum, "lookups",
     "Point lookups that found nothing.", FROM(s.amp.misses)},
    {"talus_amp_user_payload_bytes_total", nullptr, "user_payload", kCounter,
     kSum, "bytes", "User key+value bytes committed.",
     FROM(s.amp.user_payload_bytes)},
    {"talus_write_amp", nullptr, "write_amp", kGauge, kRatio, "ratio",
     "Physical bytes written per user payload byte.",
     RATIO(s.amp.TotalBytesFlushed() + s.amp.TotalBytesCompacted(),
           s.amp.user_payload_bytes),
     kEngine, Dim::kOne, 4},
    {"talus_read_amp", nullptr, "read_amp", kGauge, kRatio, "ratio",
     "Files probed per point lookup.",
     RATIO(s.amp.Total(&Level::files_probed), s.amp.lookups), kEngine,
     Dim::kOne, 4},
    {"talus_space_amp", nullptr, "space_amp", kGauge, kRatio, "ratio",
     "Live SST bytes per live payload byte (1 when empty).",
     RATIO(s.amp.Total(&Level::live_sst_bytes),
           s.amp.Total(&Level::live_payload_bytes)),
     kEngine, Dim::kOne, 4, 1},
    {"talus_blocks_per_lookup", nullptr, "blocks_per_lookup", kGauge, kRatio,
     "blocks", "Data blocks fetched per point lookup (the model's R).",
     RATIO(s.amp.Total(&Level::block_reads), s.amp.lookups), kEngine, Dim::kOne,
     4},

    // ---- Cost-model drift (DESIGN.md §6.7), JSONL samples only ----
    {nullptr, nullptr, "mix_w", kGauge, kPerShard, "ratio",
     "Update share of the window's mix.", FROM(s.drift.mix.updates), kDrift,
     Dim::kOne, 3},
    {nullptr, nullptr, "mix_r", kGauge, kPerShard, "ratio",
     "Point-lookup share of the window's mix.",
     FROM(s.drift.mix.point_lookups), kDrift, Dim::kOne, 3},
    {nullptr, nullptr, "predicted_point", kGauge, kPerShard, "blocks",
     "Model-predicted point-lookup cost.", FROM(s.drift.predicted_point),
     kDrift, Dim::kOne, 4},
    {nullptr, nullptr, "measured_point", kGauge, kPerShard, "blocks",
     "Measured point-lookup cost.", FROM(s.drift.measured_point), kDrift,
     Dim::kOne, 4},
    {nullptr, nullptr, "drift_score", kGauge, kMax, "ratio",
     "Worst measured/predicted cost ratio, either way.",
     FROM(s.drift.drift_score), kDrift, Dim::kOne, 3},
    {nullptr, nullptr, "drifted", kGauge, kMax, "flag",
     "1 when the window crossed a drift threshold.",
     FROM(s.drift.drifted ? 1 : 0), kDrift},

    // ---- Adaptive tuner (DESIGN.md §9); keys are talus.tune's ----
    {"talus_tune_ticks_total", "ticks", nullptr, kCounter, kSum, "ticks",
     "Adaptive-tuner decision ticks.", FROM(s.tune.ticks), kTune},
    {"talus_tune_retunes_total", "retunes", nullptr, kCounter, kSum, "ticks",
     "Ticks that recommended a design switch.", FROM(s.tune.retunes), kTune},
    {"talus_tune_switches_total", "switches", nullptr, kCounter, kSum,
     "switches", "Recommended switches the engine installed.",
     FROM(s.tune.switches_applied), kTune},
    {"talus_tune_holds_total{kind=\"hysteresis\"}", "holds", nullptr,
     kCounter, kSum, "ticks", kHoldsHelp, FROM(s.tune.holds), kTune},
    {"talus_tune_holds_total{kind=\"thin_window\"}", "thin", nullptr,
     kCounter, kSum, "ticks", kHoldsHelp, FROM(s.tune.thin_windows), kTune},
    {"talus_tune_holds_total{kind=\"cooldown\"}", "cooldown", nullptr,
     kCounter, kSum, "ticks", kHoldsHelp, FROM(s.tune.cooldown_holds), kTune},
    {"talus_tune_drift_events_total", "drift_events", nullptr, kCounter, kSum,
     "events", "kModelDrift windows the tuner saw.",
     FROM(s.tune.drift_events), kTune},
    {"talus_tune_last_gain", "last_gain", nullptr, kGauge, kPerShard, "ratio",
     "Predicted fractional cost win of the last decision.",
     FROM(s.tune.last_gain), kTune, Dim::kOne, 3},
    {"talus_tune_cost{design=\"current\"}", "last_cost_cur", nullptr, kGauge,
     kPerShard, "cost", kCostHelp, FROM(s.tune.last_current_cost), kTune,
     Dim::kOne, 4},
    {"talus_tune_cost{design=\"best\"}", "last_cost_best", nullptr, kGauge,
     kPerShard, "cost", kCostHelp, FROM(s.tune.last_best_cost), kTune,
     Dim::kOne, 4},

    // ---- Network server (DESIGN.md §8) ----
    {"talus_server_connections_accepted_total", nullptr, nullptr, kCounter,
     kSum, "connections", "Connections accepted since Start().",
     FROM(s.server.connections_accepted), kServer},
    {"talus_server_connections_rejected_total", nullptr, nullptr, kCounter,
     kSum, "connections", "Connections closed over max_connections.",
     FROM(s.server.connections_rejected), kServer},
    {"talus_server_connections_active", nullptr, nullptr, kGauge, kSum,
     "connections", "Open client connections.",
     FROM(s.server.connections_active), kServer},
    {"talus_server_requests_total", nullptr, nullptr, kCounter, kSum,
     "requests", "Binary-protocol requests answered.",
     FROM(s.server.requests_total), kServer},
    {"talus_server_request_errors_total", nullptr, nullptr, kCounter, kSum,
     "requests", "Requests answered with a non-OK status.",
     FROM(s.server.request_errors), kServer},
    {"talus_server_bad_frames_total", nullptr, nullptr, kCounter, kSum,
     "frames", "Fatal framing errors (connection closed).",
     FROM(s.server.bad_frames), kServer},
    {"talus_server_coalesced_batches_total", nullptr, nullptr, kCounter, kSum,
     "batches", "WriteBatch commits coalesced from pipelined writes.",
     FROM(s.server.coalesced_batches), kServer},
    {"talus_server_coalesced_ops_total", nullptr, nullptr, kCounter, kSum,
     "ops", "PUT/DELETE requests inside coalesced batches.",
     FROM(s.server.coalesced_ops), kServer},
    {"talus_server_http_requests_total", nullptr, nullptr, kCounter, kSum,
     "requests", "HTTP requests served (/metrics scrapes).",
     FROM(s.server.http_requests), kServer},
    {"talus_server_bytes_in_total", nullptr, nullptr, kCounter, kSum, "bytes",
     "Bytes read from client sockets.", FROM(s.server.bytes_in), kServer},
    {"talus_server_bytes_out_total", nullptr, nullptr, kCounter, kSum,
     "bytes", "Bytes written to client sockets.", FROM(s.server.bytes_out),
     kServer},
};

#undef FROM
#undef RATIO
#undef LEVEL
#undef HIST

// Every property is also served over the wire (PROPERTY, docs/PROTOCOL.md);
// docs/OPERATIONS.md is the guide to reading them.
const PropertyDef kProperties[] = {
    {"talus.stats", PropertyMerge::kCatalog},    // Metrics with a stat key.
    {"talus.levels", PropertyMerge::kPerShard},  // Per-level shape.
    {"talus.cstats", PropertyMerge::kPerShard},  // Compaction bytes.
    {"talus.num-runs", PropertyMerge::kSum},     // Sorted runs.
    {"talus.data-bytes", PropertyMerge::kSum},   // Live logical bytes.
    {"talus.exec", PropertyMerge::kPerShard},    // Background lanes.
    {"talus.latency", PropertyMerge::kFleet},    // Per-op latency, §6.1.
    {"talus.events", PropertyMerge::kFleet},     // Event ring, §6.2.
    {"talus.amp", PropertyMerge::kPerShard},     // Amplification, §6.6.
    {"talus.model", PropertyMerge::kPerShard},   // Drift; uses up a window.
    {"talus.snapshots", PropertyMerge::kFleet},  // JSONL samples, §6.8.
    {"talus.tune", PropertyMerge::kPerShard},    // Adaptive tuner, §9.
    {"talus.shards", PropertyMerge::kFleet},     // ShardedDB: per shard.
};

using Shards = std::vector<const MetricSnapshot*>;

Shards Carrying(const std::vector<MetricSnapshot>& snaps, unsigned section) {
  Shards out;
  for (const MetricSnapshot& s : snaps) {
    if ((s.sections & section) != 0) out.push_back(&s);
  }
  return out;
}

int Width(const MetricDef& def, const Shards& in) {
  if (def.dim == Dim::kOne) return 1;
  if (def.dim == Dim::kOp) return kNumOpTypes;
  int levels = 0;
  for (const MetricSnapshot* s : in) {
    levels = std::max(levels, s->amp.num_levels);
  }
  return levels;
}

// The value of `def` at `index`, merged over `in` by its rule. A kHistogram
// def's merged distribution also lands in *hist when that is non-null.
double Evaluate(const MetricDef& def, const Shards& in, int index,
                Histogram* hist = nullptr) {
  double num = 0;
  double den = 0;
  Histogram merged;
  for (const MetricSnapshot* s : in) {
    const MetricValue v = def.value(*s, index);
    num = def.merge == kMax ? std::max(num, v.num) : num + v.num;
    den += v.den;
    if (v.hist != nullptr) merged.Merge(*v.hist);
  }
  if (def.merge == kRatio) return den > 0 ? num / den : def.arg;
  if (def.merge != kHist) return num;
  if (hist != nullptr) *hist = merged;
  return def.arg == kMean ? merged.Average() : merged.Percentile(def.arg);
}

std::string Join(const std::string& a, const std::string& b) {
  return a.empty() || b.empty() ? a + b : a + "," + b;
}

// Calls fn(def, text) for every def of `sections` with a `key` that
// `snaps` can value. A fleet leaves per-shard metrics out.
template <typename Fn>
void ForEachScalar(const std::vector<MetricSnapshot>& snaps,
                   const char* MetricDef::*key, unsigned sections, Fn fn) {
  for (const MetricDef& def : kCatalog) {
    if (def.*key == nullptr || (def.section & sections) == 0) continue;
    const Shards in = Carrying(snaps, def.section);
    if (in.empty() || (def.merge == kPerShard && in.size() > 1)) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", std::max(def.digits, 0),
                  Evaluate(def, in, 0));
    fn(def, buf);
  }
}

void AddScalar(PrometheusWriter* w, const MetricDef& def,
               const std::string& name, const std::string& labels,
               double value, const std::string& help) {
  if (def.kind == kCounter) {
    w->AddCounter(name, labels, static_cast<uint64_t>(value), help);
  } else {
    w->AddGauge(name, labels, value, help);
  }
}

}  // namespace

const std::vector<MetricDef>& MetricCatalog() { return kCatalog; }

const PropertyDef* FindProperty(const std::string& name) {
  for (const PropertyDef& p : kProperties) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

std::string RenderStats(const std::vector<MetricSnapshot>& snaps,
                        unsigned sections) {
  const size_t engines = Carrying(snaps, kEngine).size();
  std::string out = engines > 1 ? "shards=" + std::to_string(engines) : "";
  unsigned section = 0;
  ForEachScalar(snaps, &MetricDef::stat, sections,
                [&](const MetricDef& def, const char* value) {
                  if (!out.empty()) {
                    out += section != 0 && def.section != section ? " | "
                                                                  : " ";
                  }
                  section = def.section;
                  out += def.stat;
                  out += '=';
                  out += value;
                });
  return out;
}

std::string RenderJsonSample(const std::vector<MetricSnapshot>& snaps,
                             uint64_t t_us) {
  const Shards engines = Carrying(snaps, kEngine);
  std::string out = "{\"t_us\": " + std::to_string(t_us);
  if (engines.size() > 1) {
    out += ", \"shards\": " + std::to_string(engines.size());
  } else if (!engines.empty()) {
    out += ", \"shard\": " + std::to_string(engines[0]->shard_index);
  }
  ForEachScalar(snaps, &MetricDef::json, ~0u,
                [&](const MetricDef& def, const char* value) {
                  out += ", \"";
                  out += def.json;
                  out += "\": ";
                  out += value;
                });
  return out + "}";
}

std::string RenderPrometheus(const std::vector<MetricSnapshot>& snaps) {
  PrometheusWriter w;
  for (const MetricDef& def : kCatalog) {
    if (def.prom == nullptr) continue;
    const Shards in = Carrying(snaps, def.section);
    if (in.empty()) continue;
    const char* brace = std::strchr(def.prom, '{');
    const std::string name =
        brace == nullptr ? def.prom : std::string(def.prom, brace);
    const std::string fixed =
        brace == nullptr ? "" : std::string(brace + 1, std::strlen(brace) - 2);
    const std::string help = std::string(def.help) + " Unit: " + def.unit +
                             ".";
    for (int i = 0; i < Width(def, in); i++) {
      std::string labels = fixed;
      if (def.dim == Dim::kLevel) {
        labels = Join("level=\"" + std::to_string(i) + "\"", fixed);
      } else if (def.dim == Dim::kOp) {
        labels = Join(std::string("op=\"") +
                          OpTypeName(static_cast<OpType>(i)) + "\"",
                      fixed);
      }
      if (def.kind == MetricKind::kHistogram) {
        Histogram h;
        Evaluate(def, in, i, &h);
        if (h.Count() > 0) w.AddHistogram(name, labels, h, help);
      } else if (def.merge == kPerShard && in.size() > 1) {
        for (const MetricSnapshot* s : in) {
          AddScalar(&w, def, name,
                    Join(labels,
                         "shard=\"" + std::to_string(s->shard_index) + "\""),
                    Evaluate(def, {s}, i), help);
        }
      } else {
        AddScalar(&w, def, name, labels, Evaluate(def, in, i), help);
      }
    }
  }
  return w.Output();
}

}  // namespace obs
}  // namespace talus
