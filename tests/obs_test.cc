// Observability subsystem (src/obs/, DESIGN.md §6): the lock-free latency
// recorder, the event ring + JSONL trace, the amplification tracker and
// cost-model drift monitor, the stats snapshotter, the talus.* property
// surface, and the Prometheus exposition — including the end-to-end
// promises that a write stall is reconstructible from the trace alone and
// that per-level write-amp accounting matches the engine's byte counters
// exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "obs/amp_tracker.h"
#include "obs/event_ring.h"
#include "obs/latency_recorder.h"
#include "obs/model_drift.h"
#include "obs/prometheus.h"
#include "obs/stats_snapshotter.h"
#include "shard/sharded_db.h"
#include "tuning/vertical_cost_model.h"
#include "util/histogram.h"
#include "workload/generator.h"

namespace talus {
namespace {

// ------------------------------------------------------------ LatencyRecorder

TEST(LatencyRecorder, RecordsAcrossThreadsAndMergesStripes) {
  obs::LatencyRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; i++) {
        // Spread across decades so the exponential buckets all see traffic.
        recorder.Record(obs::OpType::kPut, 1 + (i % 1000));
        if (t == 0 && i == 0) recorder.Record(obs::OpType::kGet, 7);
      }
    });
  }
  for (auto& t : threads) t.join();

  const Histogram put = recorder.SnapshotOp(obs::OpType::kPut);
  EXPECT_EQ(put.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(put.Min(), 1.0);
  EXPECT_DOUBLE_EQ(put.Max(), 1000.0);
  EXPECT_GT(put.Percentile(99), put.Median());
  // Exact sum survives the striped counters: 4 * sum(1..1000) * 10.
  EXPECT_NEAR(put.Sum(),
              static_cast<double>(kThreads) * kPerThread * 500.5, 1e-6);

  // Ops never recorded stay empty; the one-shot Get landed exactly once.
  EXPECT_EQ(recorder.SnapshotOp(obs::OpType::kScan).Count(), 0u);
  EXPECT_EQ(recorder.SnapshotOp(obs::OpType::kGet).Count(), 1u);

  const std::vector<Histogram> all = recorder.SnapshotAll();
  ASSERT_EQ(all.size(), static_cast<size_t>(obs::kNumOpTypes));
  EXPECT_EQ(all[static_cast<size_t>(obs::OpType::kPut)].Count(),
            put.Count());
}

TEST(LatencyRecorder, FormatEmitsOneLinePerOp) {
  obs::LatencyRecorder recorder;
  recorder.Record(obs::OpType::kGet, 42);
  const std::string text = recorder.ToString();
  // Every op type appears, count parses, and the op with traffic shows it.
  for (int op = 0; op < obs::kNumOpTypes; op++) {
    const std::string needle =
        std::string("op=") + obs::OpTypeName(static_cast<obs::OpType>(op));
    EXPECT_NE(text.find(needle), std::string::npos) << text;
  }
  EXPECT_NE(text.find("op=get count=1"), std::string::npos) << text;
  EXPECT_NE(text.find("p99_us="), std::string::npos) << text;
  EXPECT_NE(text.find("p999_us="), std::string::npos) << text;
}

// ----------------------------------------------------------------- EventRing

TEST(EventRing, OrderedSnapshotAndWraparound) {
  obs::EventRing ring(4);
  for (uint64_t i = 0; i < 10; i++) {
    ring.Emit(obs::EventType::kGcDelete, /*shard=*/0, /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(ring.TotalEmitted(), 10u);
  const std::vector<obs::Event> events = ring.Snapshot();
  // Only the newest `capacity` events survive, oldest first, seq monotonic.
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].a, 6 + i);
  }
  const std::string text = ring.ToString();
  EXPECT_NE(text.find("event=gc_delete"), std::string::npos);
  EXPECT_EQ(text.find("seq=5"), std::string::npos);  // Overwritten.
}

TEST(EventRing, JsonCarriesStallCauseByName) {
  obs::Event e{};
  e.micros = 12;
  e.seq = 3;
  e.type = obs::EventType::kStallEnter;
  e.shard = 1;
  e.a = obs::kCauseMemtable;
  e.b = 1;
  const std::string stall = obs::EventRing::ToJson(e);
  EXPECT_NE(stall.find("\"event\": \"stall_enter\""), std::string::npos);
  EXPECT_NE(stall.find("\"cause\": \"memtable\""), std::string::npos);

  e.type = obs::EventType::kFlushEnd;
  e.a = 4096;
  const std::string flush = obs::EventRing::ToJson(e);
  EXPECT_NE(flush.find("\"event\": \"flush_end\""), std::string::npos);
  EXPECT_NE(flush.find("\"a\": 4096"), std::string::npos);
}

TEST(EventRing, TraceFileRoundTrip) {
  const std::string path = "/tmp/talus_obs_trace_unit_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    obs::EventRing ring(8);
    ASSERT_TRUE(ring.OpenTraceFile(path));
    ring.Emit(obs::EventType::kFlushBegin, 0, 100, 0);
    ring.Emit(obs::EventType::kFlushEnd, 0, 200, 1234);
    ring.CloseTraceFile();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\": \"flush_begin\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\": \"flush_end\""), std::string::npos);
  // Each line is one self-contained JSON object.
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- DB property surface

DbOptions SmallDbOptions(Env* env) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  return opts;
}

TEST(ObsProperty, TalusLatencyReportsPerOpPercentiles) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
  }

  std::string latency;
  ASSERT_TRUE(db->GetProperty("talus.latency", &latency));
  EXPECT_NE(latency.find("op=put count=500"), std::string::npos) << latency;
  EXPECT_NE(latency.find("op=get count=100"), std::string::npos) << latency;

  const std::vector<Histogram> hists = db->GetLatencyHistograms();
  ASSERT_EQ(hists.size(), static_cast<size_t>(obs::kNumOpTypes));
  const Histogram& put = hists[static_cast<size_t>(obs::OpType::kPut)];
  EXPECT_EQ(put.Count(), 500u);
  EXPECT_GE(put.Percentile(99), put.Median());
  EXPECT_GE(put.Percentile(99.9), put.Percentile(99));
}

// group_wait is a span inside the put call that contains it, so no sample
// can exceed the slowest put. (It once recorded the wall-clock time a
// follower joined the queue, which lands every follower far above.)
TEST(ObsProperty, GroupWaitIsBoundedByPutLatency) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&db, t] {
      for (int i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(db->Put(workload::FormatKey(t * kPerThread + i, 16),
                            std::string(64, 'v'))
                        .ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  // Some writer queued behind another's group: a group held two batches.
  const metrics::GroupCommitStats groups = db->GetGroupCommitStats();
  ASSERT_GT(groups.batches_committed, groups.group_commits);

  const std::vector<Histogram> hists = db->GetLatencyHistograms();
  const Histogram& put = hists[static_cast<size_t>(obs::OpType::kPut)];
  const Histogram& wait = hists[static_cast<size_t>(obs::OpType::kGroupWait)];
  EXPECT_EQ(put.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(wait.Count(), put.Count());
  EXPECT_LE(wait.Max(), put.Max());
}

TEST(ObsProperty, DisabledStatsMeansNoRecorderAndEmptyProperty) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.enable_latency_stats = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_TRUE(db->Put("k", "v").ok());

  EXPECT_EQ(db->latency_recorder(), nullptr);
  std::string latency = "sentinel";
  ASSERT_TRUE(db->GetProperty("talus.latency", &latency));
  EXPECT_TRUE(latency.empty());
  // The histogram surface stays shaped (indexed by OpType) but empty.
  const std::vector<Histogram> hists = db->GetLatencyHistograms();
  ASSERT_EQ(hists.size(), static_cast<size_t>(obs::kNumOpTypes));
  for (const Histogram& h : hists) EXPECT_EQ(h.Count(), 0u);
}

TEST(ObsProperty, TalusEventsAndPrometheusExposition) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  // Background mode: memtable_switch events come from the active→immutable
  // handoff, which the inline flush path doesn't take.
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::string events;
  ASSERT_TRUE(db->GetProperty("talus.events", &events));
  EXPECT_NE(events.find("event=memtable_switch"), std::string::npos)
      << events;
  EXPECT_NE(events.find("event=flush_begin"), std::string::npos) << events;
  EXPECT_NE(events.find("event=flush_end"), std::string::npos) << events;
  EXPECT_GT(db->event_ring()->TotalEmitted(), 0u);

  const std::string prom = db->DumpPrometheus();
  EXPECT_NE(prom.find("# TYPE talus_puts_total counter"), std::string::npos);
  EXPECT_NE(prom.find("talus_puts_total 2000"), std::string::npos) << prom;
  EXPECT_NE(prom.find("talus_flushes_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE talus_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("talus_latency_us_bucket{op=\"put\",le="),
            std::string::npos);
  EXPECT_NE(prom.find("talus_latency_us_count{op=\"put\"} 2000"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

// ----------------------------------------- End-to-end stall reconstruction

// The tentpole promise: when writes stall, the JSONL trace alone explains
// why — stall_enter names the cause, the flush that retired the debt sits
// between enter and exit, and stall_exit reports the stalled time.
TEST(ObsEndToEnd, WriteStallReconstructibleFromTrace) {
  const std::string trace_path = "/tmp/talus_obs_trace_e2e_" +
                                 std::to_string(::getpid()) + ".jsonl";
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  // Tiny buffer + a single allowed immutable memtable: back-to-back fills
  // outrun the one background thread and hit the stop regime quickly.
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 16 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 1;
  opts.max_immutable_memtables = 1;
  opts.trace_file_path = trace_path;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  const std::string value(512, 's');
  bool stalled = false;
  for (int i = 0; i < 50000 && !stalled; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i % 4000, 16), value).ok());
    if (i % 64 == 0) stalled = db->stats().stall_stops > 0;
  }
  ASSERT_TRUE(stalled) << "no write stall after 50000 puts";
  const EngineStats stats = db->stats();
  // The regime/cause split accounts for every stop we hit.
  EXPECT_EQ(stats.stall_stops_memtable + stats.stall_stops_l0,
            stats.stall_stops);
  EXPECT_GT(stats.stall_stop_micros, 0u);
  db.reset();  // Quiesce and flush the trace.

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  size_t enter_line = std::string::npos, exit_line = std::string::npos;
  size_t flush_between = 0;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  for (size_t i = 0; i < lines.size(); i++) {
    if (enter_line == std::string::npos &&
        lines[i].find("\"event\": \"stall_enter\"") != std::string::npos) {
      // A stop for memtable debt, named as such.
      if (lines[i].find("\"cause\": \"memtable\"") != std::string::npos &&
          lines[i].find("\"b\": 1") != std::string::npos) {
        enter_line = i;
      }
    } else if (enter_line != std::string::npos &&
               exit_line == std::string::npos) {
      if (lines[i].find("\"event\": \"flush_") != std::string::npos) {
        flush_between++;
      }
      if (lines[i].find("\"event\": \"stall_exit\"") != std::string::npos) {
        exit_line = i;
      }
    }
  }
  ASSERT_NE(enter_line, std::string::npos)
      << "no memtable stop in the trace";
  ASSERT_NE(exit_line, std::string::npos) << "stall never exited";
  // The flush that retired the memtable debt shows up inside the stall
  // window (begin or end, depending on where the flush was when we
  // entered), so the trace explains the stall end to end.
  EXPECT_GT(flush_between, 0u);
  std::remove(trace_path.c_str());
}

// --------------------------------------------------------- Sharded frontend

TEST(ObsSharded, SharedRingAndMergedLatency) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.shard_count = 2;
  opts.shard_split_points = {workload::FormatKey(500, 16)};
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  // Both shards emit into ONE ring (cross-shard causality in one stream):
  // the shard field distinguishes them, and the shards' own rings are the
  // shared one.
  ASSERT_EQ(db->shard(0)->event_ring(), db->event_ring());
  ASSERT_EQ(db->shard(1)->event_ring(), db->event_ring());
  std::string events;
  ASSERT_TRUE(db->GetProperty("talus.events", &events));
  EXPECT_NE(events.find("shard=0"), std::string::npos) << events;
  EXPECT_NE(events.find("shard=1"), std::string::npos) << events;

  // Fleet-wide latency merges the per-shard histograms exactly: the put
  // count equals the total across shards.
  const std::vector<Histogram> merged = db->GetLatencyHistograms();
  ASSERT_EQ(merged.size(), static_cast<size_t>(obs::kNumOpTypes));
  const size_t put_idx = static_cast<size_t>(obs::OpType::kPut);
  uint64_t per_shard_total = 0;
  for (size_t i = 0; i < db->shard_count(); i++) {
    per_shard_total +=
        db->shard(i)->GetLatencyHistograms()[put_idx].Count();
  }
  EXPECT_EQ(merged[put_idx].Count(), per_shard_total);
  EXPECT_EQ(merged[put_idx].Count(), 1000u);

  std::string latency;
  ASSERT_TRUE(db->GetProperty("talus.latency", &latency));
  EXPECT_NE(latency.find("op=put count=1000"), std::string::npos)
      << latency;
  const std::string prom = db->DumpPrometheus();
  EXPECT_NE(prom.find("talus_puts_total 1000"), std::string::npos) << prom;
}

// ---------------------------------------------------------------- AmpTracker

TEST(AmpTracker, StripedLookupFoldAcrossThreads) {
  obs::AmpTracker tracker;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; i++) {
        obs::LookupProbe p;
        p.files_probed[0] = 1;
        p.filter_negatives[0] = 1;
        p.files_probed[1] = 1;
        p.block_reads[1] = 1;
        p.deepest_slot = 1;
        p.hit_level = (i % 3 == 0) ? 1
                      : (i % 3 == 1) ? obs::LookupProbe::kHitMemtable
                                     : obs::LookupProbe::kMiss;
        tracker.RecordLookup(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  tracker.RecordFlushWrite(0, 100);
  tracker.RecordFlushWrite(0, 200);
  tracker.RecordCompactionWrite(1, 50, 300);
  tracker.RecordUserPayload(1000);

  const obs::AmpSnapshot snap = tracker.Snapshot();
  const uint64_t total = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(snap.num_levels, 2);
  EXPECT_EQ(snap.lookups, total);
  // Per-level probe attribution survives the stripes exactly.
  EXPECT_EQ(snap.levels[0].files_probed, total);
  EXPECT_EQ(snap.levels[0].filter_negatives, total);
  EXPECT_EQ(snap.levels[1].files_probed, total);
  EXPECT_EQ(snap.levels[1].block_reads, total);
  // i%3 splits 5000 as 1667/1667/1666 per thread.
  EXPECT_EQ(snap.levels[1].hits, uint64_t{kThreads} * 1667);
  EXPECT_EQ(snap.memtable_hits, uint64_t{kThreads} * 1667);
  EXPECT_EQ(snap.misses, uint64_t{kThreads} * 1666);
  EXPECT_EQ(snap.levels[0].flush_bytes_written, 300u);
  EXPECT_EQ(snap.levels[1].compaction_bytes_written, 300u);
  EXPECT_EQ(snap.levels[1].compaction_bytes_read, 50u);
  EXPECT_EQ(snap.user_payload_bytes, 1000u);
  // (300 flush + 300 compaction) / 1000 payload.
  EXPECT_DOUBLE_EQ(snap.WriteAmp(), 0.6);
  EXPECT_DOUBLE_EQ(snap.ReadAmp(), 2.0);  // Two files probed per lookup.
  EXPECT_DOUBLE_EQ(snap.BlocksPerLookup(), 1.0);

  // Epoch-swap windowing: after AdvanceWindow the window is empty, one
  // more lookup shows up only there as a delta while cumulative keeps all.
  tracker.AdvanceWindow();
  EXPECT_EQ(tracker.WindowSnapshot().lookups, 0u);
  obs::LookupProbe p;
  p.files_probed[0] = 1;
  p.deepest_slot = 0;
  p.hit_level = 0;
  tracker.RecordLookup(p);
  EXPECT_EQ(tracker.WindowSnapshot().lookups, 1u);
  EXPECT_EQ(tracker.WindowSnapshot().levels[0].files_probed, 1u);
  EXPECT_EQ(tracker.Snapshot().lookups, total + 1);

  // Fleet aggregation is element-wise addition.
  obs::AmpSnapshot sum = tracker.Snapshot();
  sum.Add(tracker.Snapshot());
  EXPECT_EQ(sum.lookups, 2 * (total + 1));
  EXPECT_EQ(sum.user_payload_bytes, 2000u);
}

// --------------------------------------------- Amp ground truth (whole DB)

// The acceptance bar: per-level write-amp accounting matches the engine's
// own byte counters exactly — flush bytes land on the flush side of level
// 0, per-level compaction bytes equal the per-output-level EngineStats,
// and live space equals the live Version.
TEST(AmpGroundTruth, PerLevelWriteBytesMatchEngineCountersExactly) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  const EngineStats& st = db->stats();
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  ASSERT_GT(amp.num_levels, 0);
  ASSERT_GT(st.flush_bytes_written, 0u);
  ASSERT_GT(st.compaction_bytes_written, 0u);

  // Flush bytes are attributed to level 0 (the flush target), nothing else.
  EXPECT_EQ(amp.levels[0].flush_bytes_written, st.flush_bytes_written);
  EXPECT_EQ(amp.TotalBytesFlushed(), st.flush_bytes_written);

  // Compaction bytes match the per-output-level engine accounting exactly.
  uint64_t comp_written = 0;
  uint64_t comp_read = 0;
  for (int i = 0; i < amp.num_levels; i++) {
    const uint64_t engine_level_bytes =
        static_cast<size_t>(i) < st.level_stats.size()
            ? st.level_stats[i].bytes_written
            : 0;
    EXPECT_EQ(amp.levels[i].compaction_bytes_written, engine_level_bytes)
        << "level " << i;
    comp_written += amp.levels[i].compaction_bytes_written;
    comp_read += amp.levels[i].compaction_bytes_read;
  }
  EXPECT_EQ(comp_written, st.compaction_bytes_written);
  EXPECT_EQ(comp_read, st.compaction_bytes_read);
  EXPECT_EQ(amp.user_payload_bytes, st.user_payload_written);
  EXPECT_DOUBLE_EQ(amp.WriteAmp(), st.WriteAmplification());

  // Live space mirrors the current Version: after the flush quiesced, the
  // summed per-level live payload is the tree's approximate data bytes
  // (memtables are empty) and physical SST bytes exceed it (block/filter
  // overhead), so space amp >= 1.
  uint64_t live_payload = 0;
  uint64_t live_sst = 0;
  for (int i = 0; i < amp.num_levels; i++) {
    live_payload += amp.levels[i].live_payload_bytes;
    live_sst += amp.levels[i].live_sst_bytes;
  }
  EXPECT_EQ(live_payload, db->ApproximateDataBytes());
  EXPECT_GT(live_sst, live_payload);
  EXPECT_GE(amp.SpaceAmp(), 1.0);

  // The talus.amp property carries both cumulative and windowed sections.
  std::string text;
  ASSERT_TRUE(db->GetProperty("talus.amp", &text));
  EXPECT_NE(text.find("cumulative:\n"), std::string::npos) << text;
  EXPECT_NE(text.find("window:\n"), std::string::npos) << text;
  EXPECT_NE(text.find("write_amp="), std::string::npos) << text;
  EXPECT_NE(text.find("L0 "), std::string::npos) << text;
}

TEST(AmpGroundTruth, ProbeAccountingMatchesReadPathCounters) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  // Delta-based cross-check: compactions also read data blocks, so compare
  // the Get phase's increments, not absolute counters.
  const obs::AmpSnapshot before = db->GetAmpSnapshot();
  const uint64_t runs_before = db->stats().runs_probed.load();
  const uint64_t fneg_before = db->stats().filter_negatives.load();
  const uint64_t blocks_before = db->stats().data_block_reads.load();

  std::string value;
  for (int i = 0; i < 500; i++) {  // Found: every key exists on disk.
    ASSERT_TRUE(db->Get(workload::FormatKey(i * 3 % 2000, 16), &value).ok());
  }
  for (int i = 0; i < 300; i++) {  // Missing: far outside the key space.
    ASSERT_TRUE(
        db->Get(workload::FormatKey(1000000 + i, 16), &value).IsNotFound());
  }

  obs::AmpSnapshot delta = db->GetAmpSnapshot();
  delta.Subtract(before);
  EXPECT_EQ(delta.lookups, 800u);
  EXPECT_EQ(delta.misses, 300u);
  uint64_t files_probed = 0;
  uint64_t filter_negatives = 0;
  uint64_t block_reads = 0;
  uint64_t hits = 0;
  for (int i = 0; i < delta.num_levels; i++) {
    files_probed += delta.levels[i].files_probed;
    filter_negatives += delta.levels[i].filter_negatives;
    block_reads += delta.levels[i].block_reads;
    hits += delta.levels[i].hits;
  }
  // The memtable is empty after the flush: every found Get hit a level.
  EXPECT_EQ(hits + delta.memtable_hits, 500u);
  EXPECT_EQ(delta.memtable_hits, 0u);
  // Per-level attribution sums to the engine's flat read-path counters.
  EXPECT_EQ(files_probed, db->stats().runs_probed.load() - runs_before);
  EXPECT_EQ(filter_negatives,
            db->stats().filter_negatives.load() - fneg_before);
  EXPECT_EQ(block_reads, db->stats().data_block_reads.load() - blocks_before);

  // A key still in the memtable is attributed there, not to a level.
  ASSERT_TRUE(db->Put("memkey", "memval").ok());
  ASSERT_TRUE(db->Get("memkey", &value).ok());
  obs::AmpSnapshot after = db->GetAmpSnapshot();
  after.Subtract(before);
  EXPECT_EQ(after.memtable_hits, 1u);
}

TEST(ObsProperty, DisabledAmpMeansNoTrackerAndEmptyProperties) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.enable_amp_stats = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_TRUE(db->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());

  EXPECT_EQ(db->amp_tracker(), nullptr);
  EXPECT_EQ(db->GetAmpSnapshot().lookups, 0u);
  std::string amp = "sentinel";
  ASSERT_TRUE(db->GetProperty("talus.amp", &amp));
  EXPECT_TRUE(amp.empty());
  std::string model = "sentinel";
  ASSERT_TRUE(db->GetProperty("talus.model", &model));
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(db->EvaluateModelDrift().window_lookups, 0u);
  const std::string prom = db->DumpPrometheus();
  EXPECT_EQ(prom.find("talus_amp_bytes_written_total"), std::string::npos);
}

// ----------------------------------------------------------- Model drift

obs::ModelDriftMonitor::Measured MatchedMeasured() {
  // A measurement that agrees with the model exactly: feed the model's own
  // predictions back as "measured".
  tuning::VerticalCostModel model;
  model.size_ratio = 6.0;
  model.bloom_fpr = 0.1;
  model.page_entries = 8.0;
  model.data_buffers = 64;

  obs::ModelDriftMonitor::Measured m;
  m.mix.updates = 0.5;
  m.mix.point_lookups = 0.5;
  m.mix.range_lookups = 0;
  m.window_lookups = 1000;
  m.window_updates = 1000;
  m.found_fraction = 0.5;
  m.page_entries = 8.0;
  m.data_buffers = 64;
  m.blocks_per_lookup =
      0.5 + model.PointLookupCost(tuning::HorizontalMerge::kLeveling);
  m.write_amp =
      model.UpdateCost(tuning::HorizontalMerge::kLeveling) * 8.0;
  return m;
}

obs::ModelDriftMonitor::Params LevelingParams() {
  obs::ModelDriftMonitor::Params params;
  params.merge = tuning::HorizontalMerge::kLeveling;
  params.size_ratio = 6.0;
  params.bloom_fpr = 0.1;
  return params;
}

TEST(ModelDrift, MatchedMeasurementIsNotDrifted) {
  obs::ModelDriftMonitor monitor(LevelingParams());
  const obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  const obs::DriftSample first = monitor.Evaluate(m);
  // Predictions echo the model the measurement was built from.
  EXPECT_NEAR(first.point_ratio, 1.0, 1e-9);
  EXPECT_NEAR(first.update_ratio, 1.0, 1e-9);
  EXPECT_NEAR(first.drift_score, 1.0, 1e-9);
  EXPECT_EQ(first.mix_shift, 0.0);  // No previous window yet.
  EXPECT_FALSE(first.drifted);
  // A steady workload stays un-drifted across windows.
  const obs::DriftSample second = monitor.Evaluate(m);
  EXPECT_NEAR(second.mix_shift, 0.0, 1e-9);
  EXPECT_FALSE(second.drifted);
  // The property text format carries the full comparison.
  const std::string text = second.ToString();
  EXPECT_NE(text.find("design: merge=leveling T=6.0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("point: predicted="), std::string::npos);
  EXPECT_NE(text.find("drifted=0"), std::string::npos) << text;
}

TEST(ModelDrift, MixFlipTriggersDriftViaMixShift) {
  obs::ModelDriftMonitor monitor(LevelingParams());
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.mix.updates = 0;
  m.mix.point_lookups = 1.0;
  m.window_updates = 0;
  m.write_amp = 0;  // Read-only window: no update-side sample.
  const obs::DriftSample reads = monitor.Evaluate(m);
  EXPECT_FALSE(reads.drifted);
  EXPECT_EQ(reads.update_ratio, 0.0);  // No updates -> no ratio, no score.

  obs::ModelDriftMonitor::Measured w = MatchedMeasured();
  w.mix.updates = 1.0;
  w.mix.point_lookups = 0;
  w.window_lookups = 0;
  w.blocks_per_lookup = 0;
  const obs::DriftSample writes = monitor.Evaluate(w);
  // (|1-0| + |0-1| + 0) / 2 = 1.0 — a full workload flip.
  EXPECT_NEAR(writes.mix_shift, 1.0, 1e-9);
  EXPECT_TRUE(writes.drifted);
}

TEST(ModelDrift, PredictionErrorTriggersDrift) {
  obs::ModelDriftMonitor monitor(LevelingParams());
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.blocks_per_lookup *= 10.0;  // Reality 10x worse than the model.
  const obs::DriftSample s = monitor.Evaluate(m);
  EXPECT_NEAR(s.point_ratio, 10.0, 1e-9);
  EXPECT_GE(s.drift_score, 10.0 - 1e-9);
  EXPECT_TRUE(s.drifted);

  // Symmetric: reality 10x *better* than the model is equally drift — the
  // design is mis-provisioned either way.
  obs::ModelDriftMonitor monitor2(LevelingParams());
  obs::ModelDriftMonitor::Measured better = MatchedMeasured();
  better.blocks_per_lookup /= 10.0;
  const obs::DriftSample s2 = monitor2.Evaluate(better);
  EXPECT_NEAR(s2.point_ratio, 0.1, 1e-9);
  EXPECT_GE(s2.drift_score, 10.0 - 1e-6);
  EXPECT_TRUE(s2.drifted);
}

TEST(ModelDrift, IdleWindowKeepsMixBaseline) {
  obs::ModelDriftMonitor monitor(LevelingParams());
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.mix.updates = 0;
  m.mix.point_lookups = 1.0;
  m.window_updates = 0;
  m.write_amp = 0;
  EXPECT_FALSE(monitor.Evaluate(m).drifted);

  // An idle window (no traffic; the mix estimate decays to its fallback)
  // must not move the baseline...
  obs::ModelDriftMonitor::Measured idle;
  idle.mix.updates = 0.5;
  idle.mix.point_lookups = 0.5;
  idle.window_lookups = 0;
  idle.window_updates = 0;
  idle.blocks_per_lookup = 0;
  idle.write_amp = 0;
  monitor.Evaluate(idle);

  // ...so the next busy window with the same read-only mix is NOT a flip.
  const obs::DriftSample next = monitor.Evaluate(m);
  EXPECT_NEAR(next.mix_shift, 0.0, 1e-9);
  EXPECT_FALSE(next.drifted);
}

// The acceptance-criteria integration test: run a mixed workload, ask
// talus.model for predicted-vs-measured point-lookup cost under leveling,
// and require agreement within the documented factor (4, the default
// drift threshold — DESIGN.md §6.7); then flip the mix write-heavy and
// require a drift event.
TEST(ModelDriftIntegration, MixedWorkloadPredictionWithinFactorAndFlipDrifts) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  // A block cache this small (4 blocks) defeats caching, so measured
  // blocks-per-lookup reflects the disk fetches the model prices. With a
  // warm cache measured R would drop toward 0 and the comparison would be
  // about the cache, not the tree shape.
  opts.block_cache_bytes = 4096;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  // Consume the load window so the read phase below is measured alone.
  db->EvaluateModelDrift();

  // Scattered lookups (stride 3761 keys ≈ 300KB): consecutive Gets never
  // share a data block, so each found key costs its one true block fetch —
  // a strided pattern would let even the 4-block cache absorb most reads.
  std::string value;
  for (int i = 0; i < 2000; i++) {
    const int key = static_cast<int>(uint64_t{2654435761u} * i % 4000);
    ASSERT_TRUE(db->Get(workload::FormatKey(key, 16), &value).ok());
  }
  const obs::DriftSample reads = db->EvaluateModelDrift();
  EXPECT_EQ(reads.window_lookups, 2000u);
  EXPECT_EQ(reads.window_updates, 0u);
  ASSERT_GT(reads.predicted_point, 0.0);
  ASSERT_GT(reads.measured_point, 0.0);
  // Every Get found its key on disk, so measured R is about one true data
  // block plus bloom false positives; predicted is found_fraction + L*f.
  // The documented bound: within a factor of 4 either way.
  EXPECT_GT(reads.point_ratio, 0.25) << reads.ToString();
  EXPECT_LT(reads.point_ratio, 4.0) << reads.ToString();
  EXPECT_LE(reads.drift_score, 4.0) << reads.ToString();

  // Steady read-only traffic: same mix as the previous window, no drift.
  for (int i = 0; i < 1000; i++) {
    const int key = static_cast<int>((uint64_t{48271} * i + 11) % 4000);
    ASSERT_TRUE(db->Get(workload::FormatKey(key, 16), &value).ok());
  }
  const obs::DriftSample steady = db->EvaluateModelDrift();
  EXPECT_NEAR(steady.mix_shift, 0.0, 0.05) << steady.ToString();
  EXPECT_FALSE(steady.drifted) << steady.ToString();

  // Flip write-heavy: the mix moves the full L1/2 distance and the drift
  // event fires.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'w')).ok());
  }
  const obs::DriftSample flipped = db->EvaluateModelDrift();
  EXPECT_GT(flipped.mix_shift, 0.35) << flipped.ToString();
  EXPECT_TRUE(flipped.drifted) << flipped.ToString();

  // Every evaluation emitted an amp_sample; the flip emitted model_drift.
  std::string events;
  ASSERT_TRUE(db->GetProperty("talus.events", &events));
  EXPECT_NE(events.find("event=amp_sample"), std::string::npos) << events;
  EXPECT_NE(events.find("event=model_drift"), std::string::npos) << events;

  // And the property surface renders the same comparison.
  std::string model;
  ASSERT_TRUE(db->GetProperty("talus.model", &model));
  EXPECT_NE(model.find("design: merge=leveling"), std::string::npos)
      << model;
  EXPECT_NE(model.find("point: predicted="), std::string::npos) << model;
}

// ----------------------------------------------------------- Snapshotter

TEST(StatsSnapshotter, RingBoundJsonlAndIdempotentStop) {
  const std::string path = "/tmp/talus_obs_snap_unit_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::atomic<int> next{0};
  obs::StatsSnapshotter::Options sopts;
  sopts.interval_ms = 5;
  sopts.ring_capacity = 4;
  sopts.jsonl_path = path;
  obs::StatsSnapshotter snap(/*pool=*/nullptr, sopts, [&next] {
    return "{\"n\": " + std::to_string(next.fetch_add(1)) + "}";
  });
  snap.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  snap.Stop();
  const uint64_t total = snap.TotalSamples();
  EXPECT_GE(total, 2u);

  // The ring is bounded and oldest-first: consecutive sample numbers
  // ending at the newest.
  const std::vector<std::string> ring = snap.RingContents();
  ASSERT_LE(ring.size(), 4u);
  ASSERT_FALSE(ring.empty());
  for (size_t i = 0; i < ring.size(); i++) {
    const uint64_t expect_n = total - ring.size() + i;
    EXPECT_EQ(ring[i], "{\"n\": " + std::to_string(expect_n) + "}");
  }

  // The JSONL file kept every sample, not just the ring's tail.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    lines++;
  }
  EXPECT_EQ(lines, total);

  // Stop is idempotent: no second closing sample.
  snap.Stop();
  EXPECT_EQ(snap.TotalSamples(), total);
  std::remove(path.c_str());
}

TEST(StatsSnapshotter, ClosingSampleCoversRunsShorterThanInterval) {
  std::atomic<int> calls{0};
  obs::StatsSnapshotter::Options sopts;
  sopts.interval_ms = 60000;  // No timer tick will ever fire in this test.
  obs::StatsSnapshotter snap(/*pool=*/nullptr, sopts, [&calls] {
    calls.fetch_add(1);
    return std::string("{\"closing\": true}");
  });
  snap.Start();
  snap.Stop();
  // The closing sample guarantees a short run still leaves one sample.
  EXPECT_EQ(snap.TotalSamples(), 1u);
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(snap.RingContents().size(), 1u);
  EXPECT_EQ(snap.RingContents()[0], "{\"closing\": true}");
}

TEST(StatsSnapshotter, DbTimeSeriesEndsWithClosingSample) {
  const std::string path = "/tmp/talus_obs_snap_db_" +
                           std::to_string(::getpid()) + ".jsonl";
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.stats_snapshot_interval_ms = 5;
  opts.stats_snapshot_path = path;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_NE(db->stats_snapshotter(), nullptr);

  std::string value;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
    if (i % 4 == 0) {
      db->Get(workload::FormatKey(i / 2, 16), &value);
    }
  }
  db->stats_snapshotter()->SampleNow();
  std::string snaps;
  ASSERT_TRUE(db->GetProperty("talus.snapshots", &snaps));
  EXPECT_NE(snaps.find("\"t_us\": "), std::string::npos) << snaps;
  EXPECT_NE(snaps.find("\"write_amp\": "), std::string::npos) << snaps;
  EXPECT_NE(snaps.find("\"drift_score\": "), std::string::npos) << snaps;

  db.reset();  // ~DB stops the snapshotter: closing sample, file flushed.

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 1u);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"blocks_per_lookup\": "), std::string::npos) << l;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- Prometheus exposition

TEST(PrometheusWriter, InterleavedFamiliesRegroupUnderSingleHeaders) {
  obs::PrometheusWriter w;
  // Deliberately interleave two counter families and a gauge, the way a
  // per-level emission loop does.
  w.AddCounter("talus_test_a", "level=\"0\"", 1, "Family A help.");
  w.AddCounter("talus_test_b", "", 2);
  w.AddCounter("talus_test_a", "level=\"1\"", 3);
  w.AddGauge("talus_test_g", "", 1.5, "Gauge help.");
  w.AddCounter("talus_test_b", "x=\"y\"", 4);
  const std::string out = w.Output();

  // Exactly one TYPE header per family despite the interleaving.
  auto count = [&out](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = out.find(needle); pos != std::string::npos;
         pos = out.find(needle, pos + 1)) {
      n++;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE talus_test_a counter"), 1u) << out;
  EXPECT_EQ(count("# TYPE talus_test_b counter"), 1u) << out;
  EXPECT_EQ(count("# TYPE talus_test_g gauge"), 1u) << out;
  EXPECT_EQ(count("# HELP talus_test_a Family A help."), 1u) << out;

  // Families are contiguous, in first-insertion order, samples after their
  // own header: a{0}, a{1} both before TYPE b, both b samples before g.
  const size_t type_a = out.find("# TYPE talus_test_a");
  const size_t a0 = out.find("talus_test_a{level=\"0\"} 1");
  const size_t a1 = out.find("talus_test_a{level=\"1\"} 3");
  const size_t type_b = out.find("# TYPE talus_test_b");
  const size_t b0 = out.find("talus_test_b 2");
  const size_t b1 = out.find("talus_test_b{x=\"y\"} 4");
  const size_t type_g = out.find("# TYPE talus_test_g");
  ASSERT_NE(a0, std::string::npos) << out;
  ASSERT_NE(a1, std::string::npos) << out;
  ASSERT_NE(b1, std::string::npos) << out;
  EXPECT_LT(type_a, a0);
  EXPECT_LT(a0, a1);
  EXPECT_LT(a1, type_b);
  EXPECT_LT(type_b, b0);
  EXPECT_LT(b0, b1);
  EXPECT_LT(b1, type_g);
}

// Scans an exposition dump for format conformance: every family declared
// exactly once, and every sample sits under its own family's TYPE header
// (which is equivalent to families being contiguous).
void CheckPrometheusConformance(const std::string& prom) {
  std::vector<std::string> declared;
  std::string family;
  size_t start = 0;
  int line_no = 0;
  while (start < prom.size()) {
    size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(start, end - start);
    start = end + 1;
    line_no++;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      family = line.substr(7, sp - 7);
      for (const std::string& d : declared) {
        EXPECT_NE(d, family) << "family declared twice: " << family;
      }
      declared.push_back(family);
      continue;
    }
    if (line[0] == '#') continue;  // HELP lines.
    const std::string name = line.substr(0, line.find_first_of("{ "));
    // A sample belongs to the most recent TYPE family: its bare name, or a
    // histogram series suffix of it.
    const bool matches = name == family || name == family + "_bucket" ||
                         name == family + "_sum" ||
                         name == family + "_count";
    EXPECT_TRUE(matches) << "line " << line_no << " sample '" << name
                         << "' not under its family '" << family << "'";
  }
  EXPECT_FALSE(declared.empty());
}

TEST(ObsProperty, PrometheusAmpFamiliesAndConformance) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
  }

  const std::string prom = db->DumpPrometheus();
  // The amp families exist, carry per-level labels with the flush vs
  // compaction split, and the derived gauges are present with HELP text.
  EXPECT_NE(
      prom.find("# TYPE talus_amp_bytes_written_total counter"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# HELP talus_amp_bytes_written_total"),
            std::string::npos);
  EXPECT_NE(
      prom.find("talus_amp_bytes_written_total{level=\"0\",source=\"flush\"}"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("source=\"compaction\""), std::string::npos) << prom;
  EXPECT_NE(prom.find("talus_amp_files_probed_total{level="),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE talus_write_amp gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE talus_space_amp gauge"), std::string::npos);
  EXPECT_NE(prom.find("talus_blocks_per_lookup "), std::string::npos);
  EXPECT_NE(prom.find("talus_amp_live_bytes{level=\"0\",kind=\"sst\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("talus_amp_lookups_total 200"), std::string::npos)
      << prom;

  // The whole dump — stats counters, latency histograms, amp families —
  // is format-conformant even though the amp emission loop is level-major.
  CheckPrometheusConformance(prom);
}

// --------------------------------------------- Sharded fleet aggregation

TEST(ObsSharded, FleetAmpModelAndSnapshotSurfaces) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.shard_count = 2;
  opts.shard_split_points = {workload::FormatKey(500, 16)};
  // A long interval: the test drives sampling explicitly via SampleNow so
  // it never sleeps.
  opts.stats_snapshot_interval_ms = 60000;
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i * 5 % 1000, 16), &value).ok());
  }

  // One fleet-level snapshotter; the shards run none of their own.
  ASSERT_NE(db->stats_snapshotter(), nullptr);
  EXPECT_EQ(db->shard(0)->stats_snapshotter(), nullptr);
  EXPECT_EQ(db->shard(1)->stats_snapshotter(), nullptr);

  // Fleet aggregation is the exact sum of the per-shard snapshots.
  const obs::AmpSnapshot fleet = db->AggregatedAmpSnapshot();
  obs::AmpSnapshot summed = db->shard(0)->GetAmpSnapshot();
  summed.Add(db->shard(1)->GetAmpSnapshot());
  EXPECT_EQ(fleet.lookups, 200u);
  EXPECT_EQ(fleet.lookups, summed.lookups);
  EXPECT_EQ(fleet.user_payload_bytes, summed.user_payload_bytes);
  EXPECT_EQ(fleet.TotalBytesFlushed(), summed.TotalBytesFlushed());
  // The split point puts traffic on both shards.
  EXPECT_GT(db->shard(0)->GetAmpSnapshot().user_payload_bytes, 0u);
  EXPECT_GT(db->shard(1)->GetAmpSnapshot().user_payload_bytes, 0u);

  std::string amp;
  ASSERT_TRUE(db->GetProperty("talus.amp", &amp));
  EXPECT_NE(amp.find("-- fleet cumulative --"), std::string::npos) << amp;
  EXPECT_NE(amp.find("-- shard 0 --"), std::string::npos) << amp;
  EXPECT_NE(amp.find("-- shard 1 --"), std::string::npos) << amp;

  std::string model;
  ASSERT_TRUE(db->GetProperty("talus.model", &model));
  EXPECT_NE(model.find("-- shard 1 --"), std::string::npos) << model;
  EXPECT_NE(model.find("drifted="), std::string::npos) << model;

  // The fleet sample line aggregates across shards; the property serves
  // the fleet ring.
  db->stats_snapshotter()->SampleNow();
  std::string snaps;
  ASSERT_TRUE(db->GetProperty("talus.snapshots", &snaps));
  EXPECT_NE(snaps.find("\"shards\": 2"), std::string::npos) << snaps;
  EXPECT_NE(snaps.find("\"write_amp\": "), std::string::npos) << snaps;

  const std::string prom = db->DumpPrometheus();
  EXPECT_NE(prom.find("talus_amp_bytes_written_total"), std::string::npos);
  EXPECT_NE(prom.find("talus_write_amp"), std::string::npos);
  CheckPrometheusConformance(prom);
}

}  // namespace
}  // namespace talus
