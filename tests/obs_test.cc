// Observability subsystem (src/obs/, DESIGN.md §6): the lock-free latency
// recorder, the event ring + JSONL trace, the amplification tracker and
// cost-model drift monitor, the stats snapshotter, the talus.* property
// surface, and the Prometheus exposition — including the end-to-end
// promises that a write stall is reconstructible from the trace alone and
// that per-level I/O accounting matches the files in the Version and the
// probes the tree's shape implies exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "filter/bloom.h"
#include "lsm/db.h"
#include "obs/amp_tracker.h"
#include "obs/event_ring.h"
#include "obs/latency_recorder.h"
#include "obs/metric_catalog.h"
#include "obs/model_drift.h"
#include "obs/prometheus.h"
#include "obs/stats_snapshotter.h"
#include "policy/composed_policy.h"
#include "server/server.h"
#include "shard/sharded_db.h"
#include "tuning/cost_model.h"
#include "util/histogram.h"
#include "util/random.h"
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
  const obs::GroupCommitStats groups = db->GetGroupCommitStats();
  ASSERT_GT(groups.batches_committed, groups.group_commits);

  const std::vector<Histogram> hists = db->GetLatencyHistograms();
  const Histogram& put = hists[static_cast<size_t>(obs::OpType::kPut)];
  const Histogram& wait = hists[static_cast<size_t>(obs::OpType::kGroupWait)];
  EXPECT_EQ(put.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(wait.Count(), put.Count());
  EXPECT_LE(wait.Max(), put.Max());
}

// Every store records latency: a store with the default observability
// counts each op type it exercised, in both execution modes. Under the
// default kNone sync mode no group syncs, so wal_sync stays empty.
class ObsLatencyModes : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ObsLatencyModes, EveryExercisedOpIsCounted) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.execution_mode = GetParam();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  std::string value;
  ASSERT_TRUE(db->Get(workload::FormatKey(7, 16), &value).ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(workload::FormatKey(0, 16), 10, &rows).ok());
  std::unique_ptr<Iterator> it = db->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  it.reset();

  const std::vector<Histogram> hists = db->GetLatencyHistograms();
  ASSERT_EQ(hists.size(), static_cast<size_t>(obs::kNumOpTypes));
  for (int op = 0; op < obs::kNumOpTypes; op++) {
    const uint64_t count = hists[static_cast<size_t>(op)].Count();
    if (static_cast<obs::OpType>(op) == obs::OpType::kWalSync) {
      EXPECT_EQ(count, 0u);
    } else {
      EXPECT_GT(count, 0u) << obs::OpTypeName(static_cast<obs::OpType>(op));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, ObsLatencyModes,
    ::testing::Values(ExecutionMode::kInline, ExecutionMode::kBackground),
    [](const ::testing::TestParamInfo<ExecutionMode>& info) {
      return info.param == ExecutionMode::kInline ? "Inline" : "Background";
    });

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
    if (i % 64 == 0) stalled = db->stats().stall_stops() > 0;
  }
  ASSERT_TRUE(stalled) << "no write stall after 50000 puts";
  // Quiesce the background jobs so the copy is final.
  ASSERT_TRUE(db->FlushMemTable().ok());
  const EngineStats stats = db->stats();
  EXPECT_GT(stats.stall_stop_micros, 0u);
  db.reset();  // Quiesce and flush the trace.

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  size_t enter_line = std::string::npos, exit_line = std::string::npos;
  size_t flush_between = 0;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  // Every stall entry is one trace event: b = 1 for a stop, 0 for a
  // slowdown. The counters' cause split accounts for each of them.
  uint64_t stop_enters = 0, slowdown_enters = 0;
  for (const std::string& l : lines) {
    if (l.find("\"event\": \"stall_enter\"") == std::string::npos) continue;
    if (l.find("\"b\": 1}") != std::string::npos) stop_enters++;
    if (l.find("\"b\": 0}") != std::string::npos) slowdown_enters++;
  }
  EXPECT_EQ(stats.stall_stops(), stop_enters);
  EXPECT_EQ(stats.stall_slowdowns(), slowdown_enters);
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
  tracker.RecordFlush(0, 80, 100);
  tracker.RecordFlush(0, 0, 200);
  tracker.RecordCompaction(1, 50, 300);
  tracker.RecordWrite(7, 3, 1000);

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
  EXPECT_EQ(snap.levels[0].flush_bytes_read, 80u);
  EXPECT_EQ(snap.levels[1].compaction_bytes_written, 300u);
  EXPECT_EQ(snap.levels[1].compaction_bytes_read, 50u);
  EXPECT_EQ(snap.levels[1].compactions, 1u);
  EXPECT_EQ(snap.puts, 7u);
  EXPECT_EQ(snap.deletes, 3u);
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
  EXPECT_EQ(sum.puts, 14u);
  EXPECT_EQ(sum.deletes, 6u);
}

// Every operation is counted once, in the tracker, by the engine's own
// entry points: Put, Delete and each entry of a multi-entry Write, Get and
// Scan, issued from several threads against a pooled engine whose
// background flushes and compactions run meanwhile. The measured mix is
// those counts' fractions.
TEST(AmpTracker, ConcurrentOperationCountsAreExact) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  constexpr int kBatchEntries = 5;  // 4 puts and 1 delete per batch.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&db, t] {
      std::string value;
      std::vector<std::pair<std::string, std::string>> rows;
      for (int i = 0; i < kRounds; i++) {
        const std::string key =
            workload::FormatKey(static_cast<uint64_t>(t * kRounds + i), 16);
        ASSERT_TRUE(db->Put(key, std::string(100, 'v')).ok());
        WriteBatch batch;
        for (int e = 0; e < kBatchEntries - 1; e++) {
          batch.Put(key + "b" + std::to_string(e), "batch");
        }
        batch.Delete(key + "b0");
        ASSERT_TRUE(db->Write(batch).ok());
        ASSERT_TRUE(db->Delete(key).ok());
        db->Get(key, &value);
        db->Get(key + "b1", &value);
        ASSERT_TRUE(db->Scan(key, 3, &rows).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(db->FlushMemTable().ok());

  const uint64_t rounds = uint64_t{kThreads} * kRounds;
  const uint64_t puts = rounds * kBatchEntries;  // 1 Put + 4 batch puts.
  const uint64_t deletes = rounds * 2;           // 1 Delete + 1 batch delete.
  const uint64_t gets = rounds * 2;
  const uint64_t scans = rounds;
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  EXPECT_EQ(amp.puts, puts);
  EXPECT_EQ(amp.deletes, deletes);
  EXPECT_EQ(amp.lookups, gets);
  EXPECT_EQ(amp.scans, scans);
  EXPECT_EQ(amp.Operations(), puts + deletes + gets + scans);
  const double ops = static_cast<double>(puts + deletes + gets + scans);
  const WorkloadMix mix = amp.Mix();
  EXPECT_DOUBLE_EQ(mix.updates, static_cast<double>(puts + deletes) / ops);
  EXPECT_DOUBLE_EQ(mix.point_lookups, static_cast<double>(gets) / ops);
  EXPECT_DOUBLE_EQ(mix.range_lookups, static_cast<double>(scans) / ops);

  // talus.stats reads the same counts.
  std::string stats;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats));
  EXPECT_NE(stats.find("puts=" + std::to_string(puts) + " "),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find(" scans=" + std::to_string(scans) + " "),
            std::string::npos)
      << stats;
}

// --------------------------------------------- Amp ground truth (whole DB)

// The tracker is the engine's only I/O counter store, so its ground truth
// comes from elsewhere: the files the Version holds and the tree's shape.
// A merge writes exactly its output files' sizes and reads every entry of
// its inputs, each entry costing its user key + value + the 8-byte
// sequence/type tag (FileMeta::payload_bytes + 8 * num_entries).

using Level = obs::AmpSnapshot::Level;

struct FileTotals {
  uint64_t size = 0;         // Physical bytes.
  uint64_t entry_bytes = 0;  // Internal key + value bytes.
};

// The files of `v` at `level` (every level when -1) whose numbers are not in
// *seen, which then records them.
FileTotals NewFiles(const Version& v, std::set<uint64_t>* seen,
                    int level = -1) {
  FileTotals t;
  for (size_t l = 0; l < v.levels.size(); l++) {
    if (level >= 0 && static_cast<int>(l) != level) continue;
    for (const SortedRun& run : v.levels[l].runs) {
      for (const FileMetaPtr& f : run.files) {
        if (!seen->insert(f->number).second) continue;
        t.size += f->file_size;
        t.entry_bytes += f->payload_bytes + 8 * f->num_entries;
      }
    }
  }
  return t;
}

// Flush-only loads under both flush modes: a tiering flush writes a new
// run, a leveling flush rewrites level 0's run with the memtable merged in.
// Either way the files a flush adds to the Version are exactly what it
// wrote, and their entries exactly what it read (keys are unique, so the
// merge drops nothing).
TEST(AmpGroundTruth, FlushBytesMatchVersionFiles) {
  for (const GrowthPolicyConfig& policy :
       {GrowthPolicyConfig::VTTierFull(8), GrowthPolicyConfig::VTLevelFull(8)}) {
    SCOPED_TRACE(policy.Label());
    auto env = NewMemEnv();
    DbOptions opts = SmallDbOptions(env.get());
    opts.write_buffer_size = 1 << 20;  // Only the explicit flushes below.
    opts.policy = policy;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());

    std::set<uint64_t> seen;
    uint64_t want_written = 0, want_read = 0;
    for (int flush = 0; flush < 4; flush++) {
      for (int i = 0; i < 300; i++) {
        ASSERT_TRUE(db->Put(workload::FormatKey(i * 4 + flush, 16),
                            std::string(100, 'v'))
                        .ok());
      }
      ASSERT_TRUE(db->FlushMemTable().ok());
      const FileTotals added = NewFiles(db->current_version(), &seen);
      want_written += added.size;
      want_read += added.entry_bytes;

      const obs::AmpSnapshot amp = db->GetAmpSnapshot();
      ASSERT_EQ(amp.levels[0].live_sst_bytes,
                amp.Total(&Level::live_sst_bytes))
          << "a compaction moved data below level 0";
      EXPECT_EQ(amp.levels[0].flush_bytes_written, want_written);
      EXPECT_EQ(amp.TotalBytesFlushed(), want_written);
      EXPECT_EQ(amp.levels[0].flush_bytes_read, want_read);
      EXPECT_EQ(amp.Total(&Level::compactions), 0u);
      EXPECT_EQ(amp.TotalBytesCompacted(), 0u);
      // 20-byte keys, 100-byte values.
      EXPECT_EQ(amp.user_payload_bytes, uint64_t{300} * (flush + 1) * 120);
    }
  }
}

// A flush-plus-compaction load under tiering, where every compaction moves
// one level's runs one level down. Nothing ever consumes the deepest level,
// so everything compactions wrote there is still live; a manual full
// compaction then writes exactly the one run it leaves and reads every
// entry the tree held.
TEST(AmpGroundTruth, CompactionBytesMatchVersionFiles) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.policy = GrowthPolicyConfig::VTTierFull(3);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 6000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i * 7919 % 6000, 16), std::string(100, 'v'))
            .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  const obs::AmpSnapshot before = db->GetAmpSnapshot();
  const Version& v = db->current_version();
  const int deepest = v.BottommostNonEmptyLevel();
  ASSERT_GE(deepest, 2) << v.DebugString();
  std::set<uint64_t> seen;
  const FileTotals bottom = NewFiles(v, &seen, deepest);
  EXPECT_EQ(before.levels[deepest].compaction_bytes_written, bottom.size);
  EXPECT_GT(before.levels[deepest].compactions, 0u);
  EXPECT_EQ(before.levels[0].compactions, 0u);  // Nothing compacts into L0.
  seen.clear();
  const FileTotals tree = NewFiles(v, &seen);
  // Live space mirrors the Version: with the memtables empty after the
  // flush, the summed live payload is the tree's approximate data bytes,
  // and the physical SST bytes (every file's size) exceed it by the
  // block/filter overhead, so space amp >= 1.
  EXPECT_EQ(before.Total(&Level::live_payload_bytes),
            db->ApproximateDataBytes());
  EXPECT_EQ(before.Total(&Level::live_sst_bytes), tree.size);
  EXPECT_GT(before.Total(&Level::live_sst_bytes),
            before.Total(&Level::live_payload_bytes));
  EXPECT_GE(before.SpaceAmp(), 1.0);

  ASSERT_TRUE(db->CompactAll().ok());
  obs::AmpSnapshot delta = db->GetAmpSnapshot();
  delta.Subtract(before);
  const FileTotals merged = NewFiles(db->current_version(), &seen);
  const int out = db->current_version().BottommostNonEmptyLevel();
  EXPECT_EQ(delta.levels[out].compactions, 1u);
  EXPECT_EQ(delta.Total(&Level::compactions), 1u);
  EXPECT_EQ(delta.levels[out].compaction_bytes_written, merged.size);
  EXPECT_EQ(delta.TotalBytesCompacted(), merged.size);
  EXPECT_EQ(delta.levels[out].compaction_bytes_read, tree.entry_bytes);
  EXPECT_EQ(delta.TotalBytesFlushed(), 0u);

  // talus.cstats is the per-level compaction rows, through the deepest
  // level a compaction wrote.
  std::string cstats;
  ASSERT_TRUE(db->GetProperty("talus.cstats", &cstats));
  EXPECT_EQ(cstats, db->GetAmpSnapshot().CompactionsToString());
  EXPECT_NE(cstats.find("\nL" + std::to_string(out) + " "),
            std::string::npos)
      << cstats;
}

// Lookups against four level-0 runs whose key ranges all overlap: run r
// holds the keys i ≡ r (mod 4), and lookups probe the newest run first. A
// present key of residue r is decided by run r after probing the 4 - r
// runs newer than or equal to it; an absent key inside every range probes
// all four. Each probe is answered by the filter or fetches one data block,
// from the block cache or from disk.
TEST(AmpGroundTruth, ProbeCountsMatchTreeShape) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.write_buffer_size = 1 << 20;
  opts.block_cache_bytes = 32 << 20;  // Every block stays cached.
  opts.policy = GrowthPolicyConfig::VTTierFull(8);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  constexpr int kRuns = 4;
  constexpr int kKeys = 2000;
  for (int r = 0; r < kRuns; r++) {
    for (int i = r; i < kKeys; i += kRuns) {
      ASSERT_TRUE(
          db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  ASSERT_EQ(db->current_version().levels[0].runs.size(), size_t{kRuns});
  ASSERT_EQ(db->current_version().TotalRuns(), size_t{kRuns});

  // Keys 4..1995 lie inside every run's range.
  std::string value;
  uint64_t want_probes = 0;
  const obs::AmpSnapshot before = db->GetAmpSnapshot();
  for (int i = 4; i < 504; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
    want_probes += kRuns - i % kRuns;
  }
  for (int i = 4; i < 304; i++) {  // Absent: sorts between keys i and i + 1.
    ASSERT_TRUE(
        db->Get(workload::FormatKey(i, 16) + "x", &value).IsNotFound());
    want_probes += kRuns;
  }
  obs::AmpSnapshot delta = db->GetAmpSnapshot();
  delta.Subtract(before);
  const obs::AmpSnapshot::Level& l0 = delta.levels[0];
  EXPECT_EQ(delta.lookups, 800u);
  EXPECT_EQ(delta.misses, 300u);
  EXPECT_EQ(delta.memtable_hits, 0u);
  EXPECT_EQ(l0.hits, 500u);
  EXPECT_EQ(l0.files_probed, want_probes);
  EXPECT_EQ(delta.Total(&Level::files_probed), want_probes);
  EXPECT_EQ(l0.filter_negatives + l0.block_reads + l0.cache_hits,
            want_probes);
  EXPECT_EQ(l0.block_reads + l0.cache_hits,
            l0.hits + l0.bloom_false_positives);
  EXPECT_GT(l0.filter_negatives, 0u);
  EXPECT_GT(l0.block_reads, 0u);
  EXPECT_DOUBLE_EQ(delta.ReadAmp(), static_cast<double>(want_probes) / 800);

  // The same lookups again: the cache now holds every block they fetch.
  const obs::AmpSnapshot warm = db->GetAmpSnapshot();
  for (int i = 4; i < 504; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
  }
  obs::AmpSnapshot again = db->GetAmpSnapshot();
  again.Subtract(warm);
  EXPECT_EQ(again.levels[0].block_reads, 0u);
  EXPECT_EQ(again.levels[0].cache_hits,
            again.levels[0].hits + again.levels[0].bloom_false_positives);
  EXPECT_EQ(again.levels[0].hits, 500u);

  // A key still in the memtable is attributed there, with no probe.
  ASSERT_TRUE(db->Put("memkey", "memval").ok());
  const obs::AmpSnapshot mem_before = db->GetAmpSnapshot();
  ASSERT_TRUE(db->Get("memkey", &value).ok());
  obs::AmpSnapshot mem = db->GetAmpSnapshot();
  mem.Subtract(mem_before);
  EXPECT_EQ(mem.lookups, 1u);
  EXPECT_EQ(mem.memtable_hits, 1u);
  EXPECT_EQ(mem.Total(&Level::files_probed), 0u);
}

// ----------------------------------------------------------- Model drift

obs::ModelDriftMonitor::Measured MatchedMeasured() {
  // A measurement that agrees with the model exactly: feed the model's own
  // predictions back as "measured".
  obs::ModelDriftMonitor::Measured m;
  m.design = tuning::Design::Vertical(MergePolicy::kLeveling, 6.0);
  m.predicted = tuning::Predict(*m.design, 0.1, 8.0, 64);
  m.bloom_fpr = 0.1;
  m.mix.updates = 0.5;
  m.mix.point_lookups = 0.5;
  m.mix.range_lookups = 0;
  m.window_ops = 2000;
  m.window_lookups = 1000;
  m.window_updates = 1000;
  m.found_fraction = 0.5;
  m.page_entries = 8.0;
  m.data_buffers = 64;
  m.blocks_per_lookup = 0.5 + m.predicted.point;
  m.write_amp = m.predicted.update * 8.0;
  return m;
}

TEST(ModelDrift, MatchedMeasurementIsNotDrifted) {
  obs::ModelDriftMonitor monitor;
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
  obs::ModelDriftMonitor monitor;
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.mix.updates = 0;
  m.mix.point_lookups = 1.0;
  m.window_ops = 1000;
  m.window_updates = 0;
  m.write_amp = 0;  // Read-only window: no update-side sample.
  const obs::DriftSample reads = monitor.Evaluate(m);
  EXPECT_FALSE(reads.drifted);
  EXPECT_EQ(reads.update_ratio, 0.0);  // No updates -> no ratio, no score.

  obs::ModelDriftMonitor::Measured w = MatchedMeasured();
  w.mix.updates = 1.0;
  w.mix.point_lookups = 0;
  w.window_ops = 1000;
  w.window_lookups = 0;
  w.blocks_per_lookup = 0;
  const obs::DriftSample writes = monitor.Evaluate(w);
  // (|1-0| + |0-1| + 0) / 2 = 1.0 — a full workload flip.
  EXPECT_NEAR(writes.mix_shift, 1.0, 1e-9);
  EXPECT_TRUE(writes.drifted);
}

TEST(ModelDrift, PredictionErrorTriggersDrift) {
  obs::ModelDriftMonitor monitor;
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.blocks_per_lookup *= 10.0;  // Reality 10x worse than the model.
  const obs::DriftSample s = monitor.Evaluate(m);
  EXPECT_NEAR(s.point_ratio, 10.0, 1e-9);
  EXPECT_GE(s.drift_score, 10.0 - 1e-9);
  EXPECT_TRUE(s.drifted);

  // Symmetric: reality 10x *better* than the model is equally drift — the
  // design is mis-provisioned either way.
  obs::ModelDriftMonitor monitor2;
  obs::ModelDriftMonitor::Measured better = MatchedMeasured();
  better.blocks_per_lookup /= 10.0;
  const obs::DriftSample s2 = monitor2.Evaluate(better);
  EXPECT_NEAR(s2.point_ratio, 0.1, 1e-9);
  EXPECT_GE(s2.drift_score, 10.0 - 1e-6);
  EXPECT_TRUE(s2.drifted);
}

TEST(ModelDrift, IdleWindowKeepsMixBaseline) {
  obs::ModelDriftMonitor monitor;
  obs::ModelDriftMonitor::Measured m = MatchedMeasured();
  m.mix.updates = 0;
  m.mix.point_lookups = 1.0;
  m.window_ops = 1000;
  m.window_updates = 0;
  m.write_amp = 0;
  EXPECT_FALSE(monitor.Evaluate(m).drifted);

  // An idle window (no traffic; the mix estimate decays to its fallback)
  // must not move the baseline...
  obs::ModelDriftMonitor::Measured idle;
  idle.mix.updates = 0.5;
  idle.mix.point_lookups = 0.5;
  idle.window_ops = 0;
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

// A scan-only window holds traffic (no lookups, no updates, yet every op
// counted): it moves the baseline, so a run of scan windows after a read
// window flips once, not on every window.
TEST(ModelDrift, ScanOnlyWindowsMoveMixBaseline) {
  obs::ModelDriftMonitor monitor;
  obs::ModelDriftMonitor::Measured reads = MatchedMeasured();
  reads.mix.updates = 0;
  reads.mix.point_lookups = 1.0;
  reads.window_ops = 1000;
  reads.window_updates = 0;
  reads.write_amp = 0;
  EXPECT_FALSE(monitor.Evaluate(reads).drifted);

  obs::ModelDriftMonitor::Measured scans = MatchedMeasured();
  scans.mix.updates = 0;
  scans.mix.point_lookups = 0;
  scans.mix.range_lookups = 1.0;
  scans.window_ops = 1000;
  scans.window_lookups = 0;
  scans.window_updates = 0;
  scans.blocks_per_lookup = 0;
  scans.write_amp = 0;
  const obs::DriftSample first = monitor.Evaluate(scans);
  EXPECT_NEAR(first.mix_shift, 1.0, 1e-9);  // The flip itself.
  EXPECT_TRUE(first.drifted);

  const obs::DriftSample second = monitor.Evaluate(scans);
  EXPECT_EQ(second.mix_shift, 0.0);
  EXPECT_FALSE(second.drifted);
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

// Every named policy is priced as the parts it runs (DESIGN.md §6.7): the
// drift sample's design is the policy's own report, and on a steady
// Put+Get stream the prediction stays within the monitor's default factor
// of 4 (its drift threshold) for every name with a closed form, so no
// drift fires. The stream is item 3's probe at reduced scale: MemEnv,
// kInline, T = 6, 16 KiB buffers, a 4 KiB block cache; 6000 keys loaded,
// then two windows of 3000 Put+Get pairs over 12000 keys.
class ModelDriftPerName : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelDriftPerName, PricesThePartsThatRunWithinFactor) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.block_size = 4096;
  opts.block_cache_bytes = 4096;
  ASSERT_TRUE(GrowthPolicyConfigByName(GetParam(), 6.0, 0, &opts.policy));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 6000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  db->EvaluateModelDrift();  // The load window.
  Random rnd(7);
  std::string value;
  obs::DriftSample steady;
  for (int window = 0; window < 2; window++) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(workload::FormatKey(rnd.Uniform(12000), 16),
                          std::string(64, 'w'))
                      .ok());
      db->Get(workload::FormatKey(rnd.Uniform(12000), 16), &value);
    }
    steady = db->EvaluateModelDrift();
  }
  SCOPED_TRACE(steady.ToString());
  const std::optional<tuning::Design> parts = db->policy()->design();
  EXPECT_EQ(steady.design, parts);
  EXPECT_LT(steady.mix_shift, 0.05);
  if (!parts) {
    // Universal: no closed form, so no prediction and no drift score.
    EXPECT_EQ(GetParam(), "universal");
    EXPECT_EQ(steady.predicted_point, 0.0);
    EXPECT_EQ(steady.predicted.update, 0.0);
    EXPECT_EQ(steady.drift_score, 0.0);
    EXPECT_NE(steady.ToString().find("design: none levels=0"),
              std::string::npos);
    EXPECT_FALSE(steady.drifted);
    return;
  }
  if (GetParam().rfind("hr-", 0) == 0) {
    EXPECT_TRUE(parts->vertical.empty());  // A horizontal part alone.
  }
  if (GetParam() == "vertiorizon") {
    // The navigator's live pick for the part's current n.
    const tuning::HorizontalDesign& top = *parts->horizontal;
    WorkloadMix mix = opts.policy.expected_mix;
    mix.Normalize();
    const tuning::NavigatorResult pick = tuning::Navigate(
        top.buffers, BloomFalsePositiveRate(opts.policy.bloom_bits_per_key),
        opts.policy.page_entries, mix,
        ComposedPolicy::kMaxHorizontalLevels);
    EXPECT_EQ(top.merge, pick.merge);
    EXPECT_EQ(top.levels, pick.levels);
    EXPECT_EQ(parts->vertical.size(), 2u);  // V1 and V2.
  }
  EXPECT_GT(steady.point_ratio, 0.25);
  EXPECT_LT(steady.point_ratio, 4.0);
  EXPECT_GT(steady.update_ratio, 0.25);
  EXPECT_LT(steady.update_ratio, 4.0);
  EXPECT_FALSE(steady.drifted);
}

// The text between "design: " and " levels=" names the parts a
// configuration runs and stays the same while it runs; tools compare it
// across engines of one configuration. Vertiorizon's live (merge, ℓ, n)
// goes on the "horizontal: " line, which moves as the part grows.
TEST(ModelDriftIntegration, DesignLineStaysFixedWhileVertiorizonRedesigns) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.policy = GrowthPolicyConfig::Vertiorizon(6);
  opts.policy.vrn_initial_capacity_buffers = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  auto line = [&](const char* head, const char* tail) {
    std::string model;
    EXPECT_TRUE(db->GetProperty("talus.model", &model));
    const size_t start = model.find(head);
    if (start == std::string::npos) return model;
    const size_t from = start + std::strlen(head);
    return model.substr(from, model.find(tail, from) - from);
  };
  db->EvaluateModelDrift();
  const std::string design = line("design: ", " levels=");
  const std::string first = line("horizontal: ", "\n");
  EXPECT_EQ(first, db->policy()->design()->horizontal->ToString());
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i, 16), std::string(64, 'v')).ok());
  }
  db->EvaluateModelDrift();
  EXPECT_EQ(line("design: ", " levels="), design);
  EXPECT_NE(line("horizontal: ", "\n"), first);  // n grew.
  EXPECT_EQ(design.rfind("horizontal + merge=", 0), 0u) << design;
}

std::vector<std::string> NamedPolicies() {
  std::vector<std::string> names;
  std::string all = GrowthPolicyNames();
  for (size_t pos = 0; pos <= all.size();) {
    size_t end = all.find('|', pos);
    if (end == std::string::npos) end = all.size();
    names.push_back(all.substr(pos, end - pos));
    pos = end + 1;
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Names, ModelDriftPerName, ::testing::ValuesIn(NamedPolicies()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The drift window counts a batch's entries, not the batch: one 100-put
// WriteBatch and 100 Gets are half updates, as talus_puts_total says.
TEST(ModelDriftIntegration, BatchEntriesCountAsUpdates) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallDbOptions(env.get()), &db).ok());
  WriteBatch batch;
  for (int i = 0; i < 100; i++) {
    batch.Put(workload::FormatKey(i, 16), std::string(16, 'v'));
  }
  ASSERT_TRUE(db->Write(batch).ok());
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
  }
  const obs::DriftSample sample = db->EvaluateModelDrift();
  EXPECT_EQ(sample.window_updates, 100u);
  EXPECT_EQ(sample.window_lookups, 100u);
  EXPECT_DOUBLE_EQ(sample.mix.updates, 0.5);
  EXPECT_DOUBLE_EQ(sample.mix.point_lookups, 0.5);
}

// ----------------------------------------------------------- Snapshotter

TEST(StatsSnapshotter, RingBoundJsonlAndIdempotentStop) {
  const std::string path = "/tmp/talus_obs_snap_unit_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::atomic<int> next{0};
  obs::StatsSnapshotter::Options sopts;
  sopts.ring_capacity = 4;
  sopts.jsonl_path = path;
  auto sample = [&next] {
    return "{\"n\": " + std::to_string(next.fetch_add(1)) + "}";
  };
  std::unique_ptr<obs::StatsSnapshotter> snap;
  ASSERT_TRUE(
      obs::StatsSnapshotter::Open(/*pool=*/nullptr, sopts, sample, &snap)
          .ok());
  // Without a pool the ticks sample inline, so every one lands.
  for (int i = 0; i < 5; i++) snap->SampleAsync();
  snap->SampleNow();
  snap->Stop();
  const uint64_t total = snap->TotalSamples();
  EXPECT_EQ(total, 7u);  // Five ticks, one explicit, one closing.

  // The ring is bounded and oldest-first: consecutive sample numbers
  // ending at the newest.
  const std::vector<std::string> ring = snap->RingContents();
  ASSERT_EQ(ring.size(), 4u);
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
    EXPECT_EQ(line, "{\"n\": " + std::to_string(lines) + "}");
    lines++;
  }
  EXPECT_EQ(lines, total);

  // Stop is idempotent: no second closing sample, and ticks after Stop
  // are ignored.
  snap->Stop();
  snap->SampleAsync();
  EXPECT_EQ(snap->TotalSamples(), total);
  std::remove(path.c_str());
}

TEST(StatsSnapshotter, SampleAsyncDropsTicksWhileASampleIsInFlight) {
  exec::ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> calls{0};
  auto sample = [&] {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return release; });
    calls.fetch_add(1);
    return std::string("{}");
  };
  std::unique_ptr<obs::StatsSnapshotter> snap;
  ASSERT_TRUE(obs::StatsSnapshotter::Open(&pool, {}, sample, &snap).ok());
  snap->SampleAsync();  // Submitted; blocks the pool's worker.
  snap->SampleAsync();  // Dropped, not queued: a sample is in flight.
  snap->SampleAsync();
  {
    std::lock_guard<std::mutex> l(mu);
    release = true;
  }
  cv.notify_all();
  snap->Stop();  // Waits out the pool sample, then the closing one.
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(snap->TotalSamples(), 2u);
  pool.Shutdown();
}

TEST(StatsSnapshotter, ClosingSampleCoversRunsShorterThanInterval) {
  std::atomic<int> calls{0};
  auto sample = [&calls] {
    calls.fetch_add(1);
    return std::string("{\"closing\": true}");
  };
  std::unique_ptr<obs::StatsSnapshotter> snap;
  ASSERT_TRUE(
      obs::StatsSnapshotter::Open(/*pool=*/nullptr, {}, sample, &snap).ok());
  // No tick ever fired; the closing sample still leaves one sample.
  snap->Stop();
  EXPECT_EQ(snap->TotalSamples(), 1u);
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(snap->RingContents().size(), 1u);
  EXPECT_EQ(snap->RingContents()[0], "{\"closing\": true}");
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

// An output file that cannot be created fails Open with IOError naming
// the path, instead of a store that silently writes nothing.
TEST(UnwritableOutput, DbOpenFailsForTraceAndSnapshotFiles) {
  const std::string path = "/tmp/talus_no_such_dir_" +
                           std::to_string(::getpid()) + "/out.jsonl";
  for (bool trace : {true, false}) {
    SCOPED_TRACE(trace ? "trace_file_path" : "stats_snapshot_path");
    auto env = NewMemEnv();
    DbOptions opts = SmallDbOptions(env.get());
    if (trace) {
      opts.trace_file_path = path;
    } else {
      opts.stats_snapshot_interval_ms = 60000;
      opts.stats_snapshot_path = path;
    }
    std::unique_ptr<DB> db;
    const Status s = DB::Open(opts, &db);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find(path), std::string::npos) << s.ToString();
    EXPECT_EQ(db, nullptr);
  }
}

TEST(UnwritableOutput, ShardedDbOpenFailsForTraceAndSnapshotFiles) {
  const std::string path = "/tmp/talus_no_such_dir_" +
                           std::to_string(::getpid()) + "/out.jsonl";
  for (bool trace : {true, false}) {
    SCOPED_TRACE(trace ? "trace_file_path" : "stats_snapshot_path");
    auto env = NewMemEnv();
    DbOptions opts = SmallDbOptions(env.get());
    opts.execution_mode = ExecutionMode::kBackground;
    opts.shard_count = 2;
    if (trace) {
      opts.trace_file_path = path;
    } else {
      opts.stats_snapshot_interval_ms = 60000;
      opts.stats_snapshot_path = path;
    }
    std::unique_ptr<shard::ShardedDB> db;
    const Status s = shard::ShardedDB::Open(opts, &db);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find(path), std::string::npos) << s.ToString();
    EXPECT_EQ(db, nullptr);
  }
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
// exactly once, right after a # HELP line that names its unit, and every
// sample sits under its own family's TYPE header (which is equivalent to
// families being contiguous).
void CheckPrometheusConformance(const std::string& prom) {
  std::vector<std::string> declared;
  std::string family;
  std::string last_help;
  size_t start = 0;
  int line_no = 0;
  while (start < prom.size()) {
    size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(start, end - start);
    start = end + 1;
    line_no++;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      last_help = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_NE(line.find(" Unit: "), std::string::npos) << line;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      family = line.substr(7, sp - 7);
      EXPECT_EQ(last_help, family) << "family without # HELP: " << family;
      for (const std::string& d : declared) {
        EXPECT_NE(d, family) << "family declared twice: " << family;
      }
      declared.push_back(family);
      continue;
    }
    if (line[0] == '#') continue;  // Other comments.
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


// ------------------------------------------------ Golden metric surface

// A fixed-seed kInline engine on MemEnv: no clock feeds its counters, so
// every talus.stats value and every Prometheus series is reproducible bit
// for bit. The constants below pin the whole metric surface; they are
// never edited to make a refactor pass. (switches and talus_events_total
// moved once, when kInline's flushes began going through the memtable
// switch and the flush and compaction lanes. The lane's own compaction
// count lost its row when every merge began in the lane: `compactions`
// is the one count.)
std::unique_ptr<DB> RunGoldenMetricsWorkload(Env* env) {
  DbOptions opts = SmallDbOptions(env);
  opts.adaptive_tuning = true;
  opts.tune_interval_ms = 0;  // Decisions only via RetuneNow below.
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).ok());
  Random rnd(301);
  std::string value;
  std::vector<std::pair<std::string, std::string>> scanned;
  for (int i = 0; i < 6000; i++) {
    const uint32_t r = rnd.Uniform(100);
    const std::string key = workload::FormatKey(rnd.Uniform(2000), 16);
    if (r < 55) {
      EXPECT_TRUE(
          db->Put(key, std::string(64 + rnd.Uniform(64), 'v')).ok());
    } else if (r < 60) {
      EXPECT_TRUE(db->Delete(key).ok());
    } else if (r < 95) {
      db->Get(key, &value);
    } else {
      EXPECT_TRUE(db->Scan(key, 20, &scanned).ok());
    }
    if (i % 1500 == 1499) db->RetuneNow();
  }
  return db;
}

// talus.stats key → value, tokens split on whitespace.
std::map<std::string, std::string> ParseStatsLine(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return out;
}

struct PromDump {
  std::map<std::string, std::string> types;   // family → TYPE
  std::map<std::string, std::string> series;  // name{labels} → value
};

// Parses an exposition dump. `_bucket` series are left out: which `le`
// buckets exist depends on measured latencies.
PromDump ParsePrometheus(const std::string& text) {
  PromDump out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      out.types[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    const std::string name = line.substr(0, sp);
    if (name.find("_bucket{") != std::string::npos) continue;
    out.series[name] = line.substr(sp + 1);
  }
  return out;
}

bool IsInteger(const std::string& v) {
  return !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
}

void ExpectRelativelyEqual(const std::string& what, const std::string& got,
                           const std::string& want) {
  const double g = std::strtod(got.c_str(), nullptr);
  const double w = std::strtod(want.c_str(), nullptr);
  EXPECT_LE(std::fabs(g - w), 1e-6 * std::fabs(w)) << what << " = " << got
                                                    << ", golden " << want;
}

struct GoldenPair {
  const char* name;
  const char* value;
};

// talus.stats after RunGoldenMetricsWorkload: integers exact, decimals
// to a relative 1e-6.
const GoldenPair kGoldenStats[] = {
    {"batches", "3643"},
    {"bc_cap", "8388608"},
    {"bc_evictions", "0"},
    {"bc_hits", "1543"},
    {"bc_misses", "912"},
    {"bc_usage", "120486"},
    {"cache_hits", "757"},
    {"comp_read", "488418"},
    {"compactions", "3"},
    {"deletes", "292"},
    {"filter_negatives", "1669"},
    {"flush_read", "1564047"},
    {"flushes", "24"},
    {"gc_deleted", "95"},
    {"gc_pending", "0"},
    {"gets", "2033"},
    {"group_commits", "3643"},
    {"group_size_avg", "1.00"},
    {"group_size_max", "1"},
    {"group_size_p50", "1.0"},
    {"max_stall", "16.3"},
    {"puts", "3351"},
    {"read_amp", "1.432"},
    {"scans", "324"},
    {"slowdowns", "0"},
    {"slowdowns_l0", "0"},
    {"stall_slowdown_us", "0"},
    {"stall_stop_us", "0"},
    {"stall_us", "0"},
    {"stops", "0"},
    {"stops_l0", "0"},
    {"stops_memtable", "0"},
    {"switches", "24"},
    {"tc_cap", "512"},
    {"tc_evictions", "0"},
    {"tc_hits", "3480"},
    {"tc_misses", "107"},
    {"tc_open_readers", "12"},
    {"tc_opens", "107"},
    {"wal_syncs", "0"},
    {"write_amp", "4.353"},
    {"write_queue_wait_us", "0"},
};

// Every family's TYPE.
const GoldenPair kGoldenTypes[] = {
    {"talus_amp_block_reads_total", "counter"},
    {"talus_amp_bloom_fp_total", "counter"},
    {"talus_amp_bytes_written_total", "counter"},
    {"talus_amp_compaction_bytes_read_total", "counter"},
    {"talus_amp_files_probed_total", "counter"},
    {"talus_amp_filter_negatives_total", "counter"},
    {"talus_amp_hits_total", "counter"},
    {"talus_amp_live_bytes", "gauge"},
    {"talus_amp_lookups_total", "counter"},
    {"talus_amp_memtable_hits_total", "counter"},
    {"talus_amp_misses_total", "counter"},
    {"talus_amp_user_payload_bytes_total", "counter"},
    {"talus_blocks_per_lookup", "gauge"},
    {"talus_compaction_bytes_written_total", "counter"},
    {"talus_compactions_total", "counter"},
    {"talus_data_bytes", "gauge"},
    {"talus_deletes_total", "counter"},
    {"talus_events_total", "counter"},
    {"talus_flush_bytes_written_total", "counter"},
    {"talus_flushes_total", "counter"},
    {"talus_gets_total", "counter"},
    {"talus_latency_us", "histogram"},
    {"talus_obsolete_files_deleted_total", "counter"},
    {"talus_puts_total", "counter"},
    {"talus_read_amp", "gauge"},
    {"talus_scans_total", "counter"},
    {"talus_space_amp", "gauge"},
    {"talus_stall_micros_total", "counter"},
    {"talus_stalls_total", "counter"},
    {"talus_tune_cost", "gauge"},
    {"talus_tune_drift_events_total", "counter"},
    {"talus_tune_holds_total", "counter"},
    {"talus_tune_last_gain", "gauge"},
    {"talus_tune_retunes_total", "counter"},
    {"talus_tune_switches_total", "counter"},
    {"talus_tune_ticks_total", "counter"},
    {"talus_write_amp", "gauge"},
};

// Every series except histogram buckets. Counters and histogram counts
// are exact, gauges match to a relative 1e-6, and a histogram `_sum`
// (nullptr: measured wall time) only has to be present.
const GoldenPair kGoldenSeries[] = {
    {"talus_amp_block_reads_total{level=\"0\"}", "334"},
    {"talus_amp_block_reads_total{level=\"1\"}", "152"},
    {"talus_amp_bloom_fp_total{level=\"0\"}", "185"},
    {"talus_amp_bloom_fp_total{level=\"1\"}", "87"},
    {"talus_amp_bytes_written_total{level=\"0\",source=\"compaction\"}", "0"},
    {"talus_amp_bytes_written_total{level=\"0\",source=\"flush\"}", "1357321"},
    {"talus_amp_bytes_written_total{level=\"1\",source=\"compaction\"}",
     "359645"},
    {"talus_amp_bytes_written_total{level=\"1\",source=\"flush\"}", "0"},
    {"talus_amp_compaction_bytes_read_total{level=\"0\"}", "0"},
    {"talus_amp_compaction_bytes_read_total{level=\"1\"}", "488418"},
    {"talus_amp_files_probed_total{level=\"0\"}", "1615"},
    {"talus_amp_files_probed_total{level=\"1\"}", "1297"},
    {"talus_amp_filter_negatives_total{level=\"0\"}", "1039"},
    {"talus_amp_filter_negatives_total{level=\"1\"}", "630"},
    {"talus_amp_hits_total{level=\"0\"}", "391"},
    {"talus_amp_hits_total{level=\"1\"}", "580"},
    {"talus_amp_live_bytes{level=\"0\",kind=\"payload\"}", "30407"},
    {"talus_amp_live_bytes{level=\"0\",kind=\"sst\"}", "30354"},
    {"talus_amp_live_bytes{level=\"1\",kind=\"payload\"}", "171315"},
    {"talus_amp_live_bytes{level=\"1\",kind=\"sst\"}", "171132"},
    {"talus_amp_lookups_total", "2033"},
    {"talus_amp_memtable_hits_total", "65"},
    {"talus_amp_misses_total", "997"},
    {"talus_amp_user_payload_bytes_total", "394470"},
    {"talus_blocks_per_lookup", "0.239056"},
    {"talus_compaction_bytes_written_total", "359645"},
    {"talus_compactions_total", "3"},
    {"talus_data_bytes", "201827"},
    {"talus_deletes_total", "292"},
    {"talus_events_total", "182"},
    {"talus_flush_bytes_written_total", "1357321"},
    {"talus_flushes_total", "24"},
    {"talus_gets_total", "2033"},
    {"talus_latency_us_count{op=\"compaction\"}", "3"},
    {"talus_latency_us_count{op=\"flush\"}", "24"},
    {"talus_latency_us_count{op=\"get\"}", "2033"},
    {"talus_latency_us_count{op=\"group_wait\"}", "3643"},
    {"talus_latency_us_count{op=\"iter_seek\"}", "324"},
    {"talus_latency_us_count{op=\"put\"}", "3643"},
    {"talus_latency_us_count{op=\"scan\"}", "324"},
    {"talus_latency_us_count{op=\"wal_append\"}", "3643"},
    {"talus_latency_us_sum{op=\"compaction\"}", nullptr},
    {"talus_latency_us_sum{op=\"flush\"}", nullptr},
    {"talus_latency_us_sum{op=\"get\"}", nullptr},
    {"talus_latency_us_sum{op=\"group_wait\"}", nullptr},
    {"talus_latency_us_sum{op=\"iter_seek\"}", nullptr},
    {"talus_latency_us_sum{op=\"put\"}", nullptr},
    {"talus_latency_us_sum{op=\"scan\"}", nullptr},
    {"talus_latency_us_sum{op=\"wal_append\"}", nullptr},
    {"talus_obsolete_files_deleted_total", "95"},
    {"talus_puts_total", "3351"},
    {"talus_read_amp", "1.43237"},
    {"talus_scans_total", "324"},
    {"talus_space_amp", "0.99883"},
    {"talus_stall_micros_total{regime=\"slowdown\"}", "0"},
    {"talus_stall_micros_total{regime=\"stop\"}", "0"},
    {"talus_stalls_total{regime=\"slowdown\",cause=\"l0\"}", "0"},
    {"talus_stalls_total{regime=\"stop\",cause=\"l0\"}", "0"},
    {"talus_stalls_total{regime=\"stop\",cause=\"memtable\"}", "0"},
    {"talus_tune_cost{design=\"best\"}", "0.475276"},
    {"talus_tune_cost{design=\"current\"}", "0.601887"},
    {"talus_tune_drift_events_total", "1"},
    {"talus_tune_holds_total{kind=\"cooldown\"}", "2"},
    {"talus_tune_holds_total{kind=\"hysteresis\"}", "1"},
    {"talus_tune_holds_total{kind=\"thin_window\"}", "0"},
    {"talus_tune_last_gain", "0.266394"},
    {"talus_tune_retunes_total", "1"},
    {"talus_tune_switches_total", "1"},
    {"talus_tune_ticks_total", "4"},
    {"talus_write_amp", "4.35259"},
};

TEST(MetricSurfaceGolden, InlineDbStatsAndPrometheus) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db = RunGoldenMetricsWorkload(env.get());

  std::string stats_text;
  ASSERT_TRUE(db->GetProperty("talus.stats", &stats_text));
  const std::map<std::string, std::string> stats = ParseStatsLine(stats_text);
  EXPECT_EQ(stats.size(), std::size(kGoldenStats)) << stats_text;
  for (const GoldenPair& g : kGoldenStats) {
    const auto it = stats.find(g.name);
    ASSERT_NE(it, stats.end()) << "talus.stats lacks " << g.name;
    if (IsInteger(g.value)) {
      EXPECT_EQ(it->second, g.value) << g.name;
    } else {
      ExpectRelativelyEqual(g.name, it->second, g.value);
    }
  }

  const PromDump prom = ParsePrometheus(db->DumpPrometheus());
  EXPECT_EQ(prom.types.size(), std::size(kGoldenTypes));
  for (const GoldenPair& g : kGoldenTypes) {
    const auto it = prom.types.find(g.name);
    ASSERT_NE(it, prom.types.end()) << "no family " << g.name;
    EXPECT_EQ(it->second, g.value) << g.name;
  }
  EXPECT_EQ(prom.series.size(), std::size(kGoldenSeries));
  for (const GoldenPair& g : kGoldenSeries) {
    const auto it = prom.series.find(g.name);
    ASSERT_NE(it, prom.series.end()) << "no series " << g.name;
    if (g.value == nullptr) continue;
    const std::string family = it->first.substr(0, it->first.find('{'));
    const auto type = prom.types.find(family);
    if (type != prom.types.end() && type->second == "gauge") {
      ExpectRelativelyEqual(g.name, it->second, g.value);
    } else {
      EXPECT_EQ(it->second, g.value) << g.name;
    }
  }
}

// The exact per-level text of talus.cstats and talus.amp after the same
// workload. The last RetuneNow consumed the drift window, so the window
// section shows only live space.
TEST(MetricSurfaceGolden, InlineDbCstatsAndAmpText) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db = RunGoldenMetricsWorkload(env.get());

  std::string cstats;
  ASSERT_TRUE(db->GetProperty("talus.cstats", &cstats));
  EXPECT_EQ(cstats,
            "level compactions bytes_read bytes_written\n"
            "L0 0 0 0\n"
            "L1 3 488418 359645\n");

  std::string amp;
  ASSERT_TRUE(db->GetProperty("talus.amp", &amp));
  EXPECT_EQ(amp,
            "cumulative:\n"
            "write_amp=4.353 read_amp=1.432 space_amp=0.999 "
            "blocks_per_lookup=0.239 lookups=2033 memtable_hits=65 "
            "misses=997 user_payload=394470\n"
            "level flush_w comp_w comp_r probes fneg bloom_fp blocks hits "
            "live_sst live_payload\n"
            "L0 1357321 0 0 1615 1039 185 334 391 30354 30407\n"
            "L1 0 359645 488418 1297 630 87 152 580 171132 171315\n"
            "window:\n"
            "write_amp=0.000 read_amp=0.000 space_amp=0.999 "
            "blocks_per_lookup=0.000 lookups=0 memtable_hits=0 misses=0 "
            "user_payload=0\n"
            "level flush_w comp_w comp_r probes fneg bloom_fp blocks hits "
            "live_sst live_payload\n"
            "L0 0 0 0 0 0 0 0 0 30354 30407\n"
            "L1 0 0 0 0 0 0 0 0 171132 171315\n");
}


// ------------------------------------------------------- Metric catalog

TEST(MetricCatalog, DeclarationsAreCompleteAndUnique) {
  std::set<std::string> series, stat_keys, tune_keys, json_keys;
  std::map<std::string, const obs::MetricDef*> families;
  for (const obs::MetricDef& def : obs::MetricCatalog()) {
    ASSERT_NE(def.help, nullptr);
    ASSERT_NE(def.unit, nullptr);
    EXPECT_NE(def.help[0], '\0');
    EXPECT_NE(def.unit[0], '\0') << def.help;
    EXPECT_TRUE(def.prom != nullptr || def.stat != nullptr ||
                def.json != nullptr)
        << def.help;
    if (def.prom != nullptr) {
      EXPECT_TRUE(series.insert(def.prom).second) << def.prom;
      const std::string name(def.prom, std::strcspn(def.prom, "{"));
      const auto [it, fresh] = families.emplace(name, &def);
      if (!fresh) {  // Series of one family agree on what it is.
        EXPECT_EQ(it->second->kind, def.kind) << name;
        EXPECT_STREQ(it->second->help, def.help) << name;
        EXPECT_STREQ(it->second->unit, def.unit) << name;
      }
    }
    if (def.stat != nullptr) {
      std::set<std::string>& keys =
          def.section == obs::kTune ? tune_keys : stat_keys;
      EXPECT_TRUE(keys.insert(def.stat).second) << def.stat;
    }
    if (def.json != nullptr) {
      EXPECT_TRUE(json_keys.insert(def.json).second) << def.json;
    }
  }
  for (const char* property :
       {"talus.stats", "talus.levels", "talus.cstats", "talus.num-runs",
        "talus.data-bytes", "talus.exec", "talus.latency", "talus.events",
        "talus.amp", "talus.model", "talus.snapshots", "talus.tune",
        "talus.shards"}) {
    EXPECT_NE(obs::FindProperty(property), nullptr) << property;
  }
  EXPECT_EQ(obs::FindProperty("talus.nope"), nullptr);
}

// Two shards' snapshots merged by each metric's rule: sums add, high-water
// marks and the shared event count take the max, ratios divide summed
// parts, group sizes merge as one histogram, and per-shard metrics keep a
// shard label (Prometheus) or stay out (talus.stats, JSONL).
TEST(MetricCatalog, FleetMergeRules) {
  std::vector<obs::MetricSnapshot> snaps(2);
  for (size_t i = 0; i < snaps.size(); i++) {
    snaps[i].sections = obs::kEngine | obs::kWrite | obs::kTune | obs::kDrift;
    snaps[i].shard_index = i;
    snaps[i].latency.resize(obs::kNumOpTypes);
    snaps[i].events_total = 40;  // Both shards emit into one ring.
  }
  snaps[0].amp.puts = 10;
  snaps[1].amp.puts = 32;
  snaps[0].stats.max_stall_clock = 2.5;
  snaps[1].stats.max_stall_clock = 7.5;
  snaps[0].amp.num_levels = 1;
  snaps[0].amp.levels[0].flush_bytes_written = 300;
  snaps[0].amp.user_payload_bytes = 100;
  snaps[1].amp.num_levels = 2;
  snaps[1].amp.levels[1].compaction_bytes_written = 500;
  snaps[1].amp.user_payload_bytes = 300;
  for (int g = 0; g < 3; g++) snaps[0].writes.group_sizes.Add(1);
  snaps[1].writes.group_sizes.Add(8);
  snaps[0].tune.last_gain = 0.25;
  snaps[1].tune.last_gain = 0.5;
  snaps[0].drift.drift_score = 1.5;
  snaps[1].drift.drift_score = 3;
  snaps[1].drift.mix.updates = 0.75;

  Histogram merged = snaps[0].writes.group_sizes;
  merged.Merge(snaps[1].writes.group_sizes);
  char p50[32];
  std::snprintf(p50, sizeof(p50), "%.1f", merged.Median());

  const std::map<std::string, std::string> fleet =
      ParseStatsLine(obs::RenderStats(snaps));
  EXPECT_EQ(fleet.at("shards"), "2");
  EXPECT_EQ(fleet.at("puts"), "42");
  EXPECT_EQ(fleet.at("max_stall"), "7.5");
  EXPECT_EQ(fleet.at("write_amp"), "2.000");  // (300 + 500) / (100 + 300).
  EXPECT_EQ(fleet.at("group_size_avg"), "2.75");
  EXPECT_EQ(fleet.at("group_size_p50"), p50);
  EXPECT_NE(fleet.at("group_size_p50"), "8.0");  // Not a max of medians.
  EXPECT_EQ(fleet.at("group_size_max"), "8");
  EXPECT_EQ(fleet.count("ticks"), 0u);  // talus.tune's, not talus.stats'.

  const std::string prom = obs::RenderPrometheus(snaps);
  CheckPrometheusConformance(prom);
  EXPECT_NE(prom.find("\ntalus_puts_total 42\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\ntalus_events_total 40\n"), std::string::npos);
  EXPECT_NE(prom.find("\ntalus_tune_last_gain{shard=\"0\"} 0.25\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\ntalus_tune_last_gain{shard=\"1\"} 0.5\n"),
            std::string::npos);

  const std::string json = obs::RenderJsonSample(snaps, 7);
  EXPECT_EQ(json.rfind("{\"t_us\": 7, \"shards\": 2, ", 0), 0u) << json;
  EXPECT_NE(json.find("\"drift_score\": 3.000"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"mix_w\""), std::string::npos) << json;

  // A single engine shows its per-shard metrics plainly, and no shards=.
  const std::vector<obs::MetricSnapshot> one(snaps.begin() + 1, snaps.end());
  EXPECT_EQ(ParseStatsLine(obs::RenderStats(one)).count("shards"), 0u);
  EXPECT_NE(obs::RenderPrometheus(one).find("\ntalus_tune_last_gain 0.5\n"),
            std::string::npos);
  EXPECT_NE(obs::RenderJsonSample(one, 7).find("\"mix_w\": 0.750"),
            std::string::npos);
  EXPECT_EQ(obs::RenderStats(one, obs::kTune).rfind("ticks=0 ", 0), 0u);
}

// Byte gauges and histogram sums print every digit; `%.6g` once turned
// 60480123 into 6.04801e+07.
TEST(MetricCatalog, IntegralValuesRenderExactly) {
  obs::MetricSnapshot s;
  s.sections = obs::kEngine | obs::kWrite;
  s.latency.resize(obs::kNumOpTypes);
  s.data_bytes = 60480123;
  s.amp.num_levels = 1;
  s.amp.levels[0].live_sst_bytes = 123456789;
  s.amp.levels[0].live_payload_bytes = 98765431;
  Histogram& put = s.latency[static_cast<size_t>(obs::OpType::kPut)];
  put.Add(12345678);
  put.Add(20000001);
  const std::string prom = obs::RenderPrometheus({s});
  EXPECT_NE(prom.find("\ntalus_data_bytes 60480123\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\ntalus_amp_live_bytes{level=\"0\",kind=\"sst\"} "
                      "123456789\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\ntalus_amp_live_bytes{level=\"0\",kind=\"payload\"} "
                      "98765431\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\ntalus_latency_us_sum{op=\"put\"} 32345679\n"),
            std::string::npos);
  // A ratio keeps six significant digits.
  EXPECT_NE(prom.find("\ntalus_space_amp 1.25\n"), std::string::npos);

  obs::PrometheusWriter w;
  w.AddGauge("talus_test_big", "", 12345678901.0);
  EXPECT_NE(w.Output().find("\ntalus_test_big 12345678901\n"),
            std::string::npos);
}

// /metrics is one exposition: the fleet's families and the server's, each
// with HELP text and a unit.
TEST(MetricCatalog, ServerMetricsTextConforms) {
  auto env = NewMemEnv();
  DbOptions opts = SmallDbOptions(env.get());
  opts.shard_count = 2;
  opts.shard_split_points = {workload::FormatKey(50, 16)};
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), "v").ok());
  }
  server::Server srv(db.get(), server::ServerOptions());
  const std::string text = srv.MetricsText();
  CheckPrometheusConformance(text);
  EXPECT_NE(text.find("\ntalus_puts_total 100\n"), std::string::npos);
  EXPECT_NE(text.find("\ntalus_server_requests_total 0\n"),
            std::string::npos)
      << text;
  EXPECT_LT(text.find("talus_puts_total"),
            text.find("talus_server_requests_total"));
}

}  // namespace
}  // namespace talus
