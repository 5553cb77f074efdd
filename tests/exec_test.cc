// Background execution subsystem tests: thread-pool ordering/shutdown, the
// periodic ticker, stall-controller thresholds, an engine's flush and
// compaction lanes (flush-first dispatch, teardown on a shared pool, the
// talus.exec idle contract, CompactAll and policy switches as compaction
// lane requests), run ownership (a leveling flush and a merge of level 0's
// run wait for each other; a tiering flush never waits), and whole-engine
// inline-vs-background equivalence under concurrent writers (the
// acceptance bar for DESIGN.md §2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_env.h"
#include "exec/stall_controller.h"
#include "exec/thread_pool.h"
#include "exec/ticker.h"
#include "lsm/db.h"
#include "shard/sharded_db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  exec::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(pool.Submit([&counter] { counter++; }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // One worker and a slow first task: the rest must still run by the time
  // Shutdown() returns.
  exec::ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.Submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  for (int i = 0; i < 10; i++) {
    pool.Submit([&counter] { counter++; });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, RejectsTasksAfterShutdown) {
  exec::ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, SingleThreadPreservesFifoOrder) {
  exec::ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 20; i++) {
    pool.Submit([&order, &mu, i] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(i);
    });
  }
  pool.Shutdown();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(order[i], i);
}

// -------------------------------------------------------------------- Ticker

TEST(TickerTest, PacesTasksAndStopIsIdempotent) {
  std::atomic<int> fast{0};
  std::atomic<int> slow{0};
  exec::Ticker ticker;
  ticker.Add(2, [&fast] { fast.fetch_add(1); });
  ticker.Add(60000, [&slow] { slow.fetch_add(1); });
  ticker.Add(0, [] { ADD_FAILURE() << "a zero period registers nothing"; });
  ticker.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fast.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(fast.load(), 3);
  EXPECT_EQ(slow.load(), 0);
  ticker.Stop();
  ticker.Stop();  // Idempotent.
  const int after = fast.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(fast.load(), after);  // No runs after Stop returns.
}

TEST(TickerTest, TaskDueDuringAnotherRunsOnceNotAsBacklog) {
  // A 1 ms task waits ~200 ms behind a blocked one. Replaying the missed
  // periods would burst ~200 runs right after the release; skipping them
  // allows at most one run per elapsed millisecond.
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool release = false;
  std::atomic<int> quick{0};
  exec::Ticker ticker;
  ticker.Add(1, [&quick] { quick.fetch_add(1); });
  ticker.Add(1, [&] {
    std::unique_lock<std::mutex> l(mu);
    if (release) return;
    blocked = true;
    cv.notify_all();
    cv.wait(l, [&] { return release; });
  });
  ticker.Start();
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return blocked; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int before = quick.load();
  const auto released_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> l(mu);
    release = true;
  }
  cv.notify_all();
  const auto deadline = released_at + std::chrono::seconds(5);
  while (quick.load() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - released_at)
          .count();
  const int after = quick.load() - before;
  EXPECT_GE(after, 1);  // The overdue task did run once.
  EXPECT_LE(after, elapsed_ms + 2) << "missed periods were replayed";
}

TEST(TickerTest, NoTasksMeansNoThread) {
  exec::Ticker ticker;
  ticker.Add(0, [] {});
  ticker.Start();  // Nothing registered: no thread to join.
  ticker.Stop();
}

// ---------------------------------------------------------- StallController

TEST(StallControllerTest, ThresholdsDriveDecisions) {
  exec::StallConfig config;
  config.max_immutable_memtables = 2;
  config.l0_slowdown_runs = 4;
  config.l0_stop_runs = 8;
  exec::StallController ctl(config);

  // Healthy state.
  EXPECT_EQ(ctl.Decide(0, 0), exec::StallDecision::kNone);
  EXPECT_EQ(ctl.Decide(0, 3), exec::StallDecision::kNone);
  // A queued memtable below the cap has no slowdown stage.
  EXPECT_EQ(ctl.Decide(1, 0), exec::StallDecision::kNone);
  // L0 slowdown threshold.
  EXPECT_EQ(ctl.Decide(0, 4), exec::StallDecision::kSlowdown);
  EXPECT_EQ(ctl.Decide(0, 7), exec::StallDecision::kSlowdown);
  // Hard stops.
  EXPECT_EQ(ctl.Decide(2, 0), exec::StallDecision::kStop);
  EXPECT_EQ(ctl.Decide(3, 0), exec::StallDecision::kStop);
  EXPECT_EQ(ctl.Decide(0, 8), exec::StallDecision::kStop);
}

TEST(StallControllerTest, SanitizesDegenerateConfig) {
  exec::StallConfig config;
  config.max_immutable_memtables = 0;  // Clamped to 1.
  config.l0_slowdown_runs = 10;
  config.l0_stop_runs = 5;  // Below slowdown: pushed above it.
  exec::StallController ctl(config);
  EXPECT_EQ(ctl.Decide(0, 0), exec::StallDecision::kNone);
  // A cap of one stops writes at the first queued memtable.
  EXPECT_EQ(ctl.Decide(1, 0), exec::StallDecision::kStop);
  EXPECT_EQ(ctl.Decide(0, 10), exec::StallDecision::kSlowdown);
  EXPECT_EQ(ctl.Decide(0, 11), exec::StallDecision::kStop);
}

TEST(StallControllerTest, ExposesSanitizedConfig) {
  exec::StallConfig config;
  config.max_immutable_memtables = 0;
  config.l0_slowdown_runs = 6;
  config.l0_stop_runs = 3;
  config.slowdown_delay_micros = 777;  // The DB sleeps on this value.
  exec::StallController ctl(config);
  EXPECT_EQ(ctl.config().max_immutable_memtables, 1u);
  EXPECT_EQ(ctl.config().l0_stop_runs, 7u);
  EXPECT_EQ(ctl.config().slowdown_delay_micros, 777u);
}

// ------------------------------------------------------- DB background mode

DbOptions TestOptions(Env* env, ExecutionMode mode,
                      const GrowthPolicyConfig& policy) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;  // Tiny buffer: many flushes.
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.block_cache_bytes = 64 << 10;
  opts.policy = policy;
  opts.execution_mode = mode;
  opts.num_background_threads = 2;
  opts.slowdown_delay_micros = 100;  // Keep tests fast.
  return opts;
}

// Deterministic per-thread op stream over a disjoint key range: the final
// per-key state is independent of cross-thread interleaving, so inline and
// background runs must converge to the same database.
void ApplyWorkerOps(DB* db, int worker, int ops) {
  Random rnd(1000 + worker);
  const int base = worker * 1000;
  for (int i = 0; i < ops; i++) {
    std::string key = workload::FormatKey(base + rnd.Uniform(300), 16);
    const uint32_t action = rnd.Uniform(10);
    if (action < 7) {
      ASSERT_TRUE(
          db->Put(key, "v-" + std::to_string(worker) + "-" +
                           std::to_string(i))
              .ok());
    } else if (action < 8) {
      ASSERT_TRUE(db->Delete(key).ok());
    } else if (action < 9) {
      std::string value;
      Status s = db->Get(key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound());
    } else {
      std::vector<std::pair<std::string, std::string>> out;
      ASSERT_TRUE(db->Scan(key, 10, &out).ok());
    }
  }
}

std::vector<std::pair<std::string, std::string>> FullScan(DB* db) {
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_TRUE(db->Scan(Slice(""), 1000000, &out).ok());
  return out;
}

struct NamedPolicy {
  std::string name;
  GrowthPolicyConfig config;
};

// The whole named roster at T = 3, labeled as the paper labels it.
std::vector<NamedPolicy> EquivalencePolicies() {
  std::vector<NamedPolicy> policies;
  std::string roster = GrowthPolicyNames() + "|";
  for (size_t pos; (pos = roster.find('|')) != std::string::npos;
       roster.erase(0, pos + 1)) {
    GrowthPolicyConfig config;
    if (GrowthPolicyConfigByName(roster.substr(0, pos), 3, 1 << 20,
                                 &config)) {
      policies.push_back({config.Label(), config});
    }
  }
  return policies;
}

class ExecEquivalenceTest : public ::testing::TestWithParam<NamedPolicy> {};

TEST_P(ExecEquivalenceTest, BackgroundMatchesInlineUnderConcurrency) {
  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 1500;

  // Inline reference: the same per-worker streams applied sequentially.
  auto inline_env = NewMemEnv();
  std::unique_ptr<DB> inline_db;
  ASSERT_TRUE(DB::Open(TestOptions(inline_env.get(), ExecutionMode::kInline,
                                   GetParam().config),
                       &inline_db)
                  .ok());
  for (int w = 0; w < kWorkers; w++) {
    ApplyWorkerOps(inline_db.get(), w, kOpsPerWorker);
  }

  // Background run: four concurrent writer threads.
  auto bg_env = NewMemEnv();
  std::unique_ptr<DB> bg_db;
  ASSERT_TRUE(DB::Open(TestOptions(bg_env.get(), ExecutionMode::kBackground,
                                   GetParam().config),
                       &bg_db)
                  .ok());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; w++) {
    workers.emplace_back(
        [&bg_db, w] { ApplyWorkerOps(bg_db.get(), w, kOpsPerWorker); });
  }
  for (auto& t : workers) t.join();
  ASSERT_TRUE(bg_db->FlushMemTable().ok());

  // Key-for-key equality of the full scans.
  auto expect = FullScan(inline_db.get());
  auto got = FullScan(bg_db.get());
  ASSERT_EQ(expect.size(), got.size()) << GetParam().name;
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(expect[i].first, got[i].first) << GetParam().name;
    EXPECT_EQ(expect[i].second, got[i].second) << GetParam().name;
  }

  // The background machinery really ran.
  const EngineStats& stats = bg_db->stats();
  EXPECT_GT(stats.memtable_switches, 0u) << GetParam().name;
  EXPECT_GT(stats.flushes, 0u) << GetParam().name;

  std::string exec_info;
  ASSERT_TRUE(bg_db->GetProperty("talus.exec", &exec_info));
  EXPECT_NE(exec_info.find("mode=background"), std::string::npos);
  std::string stats_str;
  ASSERT_TRUE(bg_db->GetProperty("talus.stats", &stats_str));
  EXPECT_NE(stats_str.find("compactions="), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExecEquivalenceTest,
                         ::testing::ValuesIn(EquivalencePolicies()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(ExecDbTest, ConcurrentReadersSeeConsistentState) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kBackground,
                                   GrowthPolicyConfig::VTTierFull(3)),
                       &db)
                  .ok());

  std::atomic<bool> done{false};
  // Writer thread: monotonically increasing value for a hot key.
  std::thread writer([&] {
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put(workload::FormatKey(i % 200, 16),
                          std::to_string(i))
                      .ok());
    }
    done = true;
  });
  // Reader threads: every Get either misses or returns a well-formed value.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      Random rnd(7 + r);
      while (!done) {
        std::string value;
        Status s = db->Get(workload::FormatKey(rnd.Uniform(200), 16), &value);
        ASSERT_TRUE(s.ok() || s.IsNotFound());
        if (s.ok()) ASSERT_FALSE(value.empty());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_TRUE(db->FlushMemTable().ok());

  auto rows = FullScan(db.get());
  EXPECT_EQ(rows.size(), 200u);
}

TEST(ExecDbTest, SnapshotsPinStateAcrossBackgroundFlushes) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kBackground,
                                   GrowthPolicyConfig::VTLevelFull(3)),
                       &db)
                  .ok());
  ASSERT_TRUE(db->Put("pinned", "before").ok());
  const Snapshot* snap = db->GetSnapshot();

  // Overwrite through several background flush cycles.
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i % 500, 16), "filler").ok());
  }
  ASSERT_TRUE(db->Put("pinned", "after").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::string value;
  ASSERT_TRUE(db->Get("pinned", &value, snap).ok());
  EXPECT_EQ(value, "before");
  ASSERT_TRUE(db->Get("pinned", &value).ok());
  EXPECT_EQ(value, "after");
  db->ReleaseSnapshot(snap);
}

TEST(ExecDbTest, FlushMemTableDrainsBackgroundWork) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kBackground,
                                   GrowthPolicyConfig::VTLevelFull(3)),
                       &db)
                  .ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i % 400, 16), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  // After the drain, nothing is buffered: every switched memtable was
  // flushed into the tree.
  EXPECT_EQ(db->stats().flushes, db->stats().memtable_switches);
}

// ------------------------------------------ Background lanes (one engine)

// Holds one pool worker until Open(). On a one-thread pool, every task
// submitted after the gate waits behind it, in FIFO order.
class PoolGate {
 public:
  explicit PoolGate(exec::ThreadPool* pool)
      : state_(std::make_shared<State>()) {
    EXPECT_TRUE(pool->Submit([s = state_] {
      std::unique_lock<std::mutex> l(s->mu);
      s->held = true;
      s->cv.notify_all();
      s->cv.wait(l, [&s] { return s->open; });
    }));
  }
  ~PoolGate() { Open(); }
  PoolGate(const PoolGate&) = delete;
  PoolGate& operator=(const PoolGate&) = delete;

  /// Returns once a worker runs the gate: everything submitted before it
  /// has started.
  void WaitHeld() {
    std::unique_lock<std::mutex> l(state_->mu);
    state_->cv.wait(l, [this] { return state_->held; });
  }
  void Open() {
    std::lock_guard<std::mutex> l(state_->mu);
    state_->open = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool open = false;
  };
  // Shared with the gate task, which may still be unlocking `mu` after the
  // gate object is gone.
  std::shared_ptr<State> state_;
};

// Puts `prefix`-keyed values until the engine switches its memtable once,
// which queues its flush lane. *puts, when given, is how many it made.
void PutUntilSwitch(DB* db, const std::string& prefix, int* puts = nullptr) {
  const uint64_t before = db->stats().memtable_switches;
  for (int i = 0; db->stats().memtable_switches == before; i++) {
    ASSERT_LT(i, 100000) << "no memtable switch";
    ASSERT_TRUE(db->Put(prefix + workload::FormatKey(i, 16),
                        std::string(100, 'v'))
                    .ok());
    if (puts != nullptr) *puts = i + 1;
  }
}

// The job counts bench/e2e/run.py polls in talus.exec to tell that an
// engine's background work has finished, with its pattern.
std::vector<int> ExecJobCounts(DB* db) {
  std::string text;
  EXPECT_TRUE(db->GetProperty("talus.exec", &text));
  static const std::regex kCount(
      R"(\b(?:imm_queued|queued|running|active)=(\d+))");
  std::vector<int> counts;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kCount);
       it != std::sregex_iterator(); ++it) {
    counts.push_back(std::stoi((*it)[1]));
  }
  return counts;
}

std::string ExecLanes(DB* db) {
  std::string text;
  EXPECT_TRUE(db->GetProperty("talus.exec", &text));
  return text.substr(text.find("flush{"));
}

// Two level-0 runs under VT-Tier-Full(3): the next flush makes the policy
// compact.
void FlushTwoRuns(DB* db) {
  for (int run = 0; run < 2; run++) {
    ASSERT_TRUE(db->Put("run" + std::to_string(run), "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
}

TEST(BackgroundLanes, QueuedFlushRunsBeforeQueuedCompaction) {
  exec::ThreadPool pool(1);
  auto env = NewMemEnv();
  DbOptions opts = TestOptions(env.get(), ExecutionMode::kBackground,
                               GrowthPolicyConfig::VTTierFull(3));
  opts.shared_pool = &pool;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  FlushTwoRuns(db.get());

  // The first flush runs between the two gates and queues the compaction
  // lane; the second switch then queues the flush lane behind it.
  PoolGate first(&pool);
  first.WaitHeld();
  PutUntilSwitch(db.get(), "a");
  PoolGate second(&pool);
  first.Open();
  second.WaitHeld();
  EXPECT_EQ(ExecLanes(db.get()),
            "flush{queued=0 running=0} compaction{queued=1 running=0}");
  PutUntilSwitch(db.get(), "b");
  EXPECT_EQ(ExecLanes(db.get()),
            "flush{queued=1 running=0} compaction{queued=1 running=0}");

  const uint64_t mark = db->event_ring()->TotalEmitted();
  second.Open();
  ASSERT_TRUE(db->FlushMemTable().ok());
  // A flush plans its own merge too: only a plan outside a flush's
  // begin/end pair belongs to a compaction.
  std::vector<std::string> order;
  bool in_flush = false;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.seq < mark) continue;
    if (e.type == obs::EventType::kFlushBegin) in_flush = true;
    if (e.type == obs::EventType::kFlushEnd) {
      in_flush = false;
      order.push_back("flush_end");
    }
    if (e.type == obs::EventType::kCompactionPlan && !in_flush) {
      order.push_back("compaction_plan");
    }
  }
  // The task submitted for the compaction starts first and runs the flush.
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], "flush_end");
  EXPECT_EQ(order[1], "compaction_plan");
}

TEST(BackgroundLanes, ShardedTeardownWaitsForTasksQueuedBehindAGate) {
  auto env = NewMemEnv();
  DbOptions opts = TestOptions(env.get(), ExecutionMode::kBackground,
                               GrowthPolicyConfig::VTTierFull(3));
  opts.shard_count = 4;
  opts.shard_split_points = {"b", "c", "d"};
  opts.num_background_threads = 1;
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  PoolGate gate(db->shard(0)->options().shared_pool);
  gate.WaitHeld();
  for (size_t i = 0; i < db->shard_count(); i++) {
    PutUntilSwitch(db->shard(i), std::string(1, static_cast<char>('a' + i)));
    ASSERT_EQ(ExecLanes(db->shard(i)),
              "flush{queued=1 running=0} compaction{queued=0 running=0}");
  }

  std::atomic<bool> destroyed{false};
  std::thread closer([&] {
    db.reset();
    destroyed = true;
  });
  // ~DB waits for its shard's tasks, which cannot start behind the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());
  gate.Open();
  closer.join();
  EXPECT_TRUE(destroyed.load());
}

TEST(BackgroundLanes, ExecCountsAreZeroExactlyWhenIdle) {
  exec::ThreadPool pool(1);
  auto env = NewMemEnv();
  DbOptions opts = TestOptions(env.get(), ExecutionMode::kBackground,
                               GrowthPolicyConfig::VTLevelFull(3));
  opts.shared_pool = &pool;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_EQ(ExecJobCounts(db.get()), std::vector<int>(5, 0));

  PoolGate gate(&pool);
  gate.WaitHeld();
  PutUntilSwitch(db.get(), "k");
  // The held flush: one memtable queued, and its lane.
  const std::vector<int> held = ExecJobCounts(db.get());
  ASSERT_EQ(held.size(), 5u);
  EXPECT_EQ(held, (std::vector<int>{1, 1, 0, 0, 0}));

  gate.Open();
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_EQ(ExecJobCounts(db.get()), std::vector<int>(5, 0));
}

// Events of `type` the engine emitted at or after ring position `mark`.
int EventsSince(DB* db, uint64_t mark, obs::EventType type) {
  int n = 0;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.seq >= mark && e.type == type) n++;
  }
  return n;
}

// Runs `call` on a second thread while `gate` holds the engine's one-thread
// pool. Its merges start only on the compaction lane, so until the gate
// opens it neither swaps a policy nor plans a merge, and does not return.
void ExpectWaitsForTheLane(DB* db, PoolGate* gate,
                           const std::function<Status()>& call) {
  const uint64_t mark = db->event_ring()->TotalEmitted();
  std::atomic<bool> returned{false};
  Status status;
  std::thread caller([&] {
    status = call();
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(EventsSince(db, mark, obs::EventType::kCompactionPlan), 0);
  EXPECT_EQ(EventsSince(db, mark, obs::EventType::kPolicyChange), 0);
  gate->Open();
  caller.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(EventsSince(db, mark, obs::EventType::kCompactionPlan), 0);
}

// A one-thread shared pool, both lanes idle, an empty memtable and two
// level-0 runs under VT-Tier-Full(3).
std::unique_ptr<DB> OpenTwoRunEngine(Env* env, exec::ThreadPool* pool) {
  DbOptions opts = TestOptions(env, ExecutionMode::kBackground,
                               GrowthPolicyConfig::VTTierFull(3));
  opts.shared_pool = pool;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).ok());
  FlushTwoRuns(db.get());
  EXPECT_EQ(db->current_version().TotalRuns(), 2u);
  return db;
}

TEST(BackgroundLanes, CompactAllRunsOnTheLane) {
  exec::ThreadPool pool(1);
  auto env = NewMemEnv();
  std::unique_ptr<DB> db = OpenTwoRunEngine(env.get(), &pool);
  PoolGate gate(&pool);
  gate.WaitHeld();
  ExpectWaitsForTheLane(db.get(), &gate, [&db] { return db->CompactAll(); });
  EXPECT_EQ(db->current_version().TotalRuns(), 1u);
}

TEST(BackgroundLanes, PolicySwitchRunsOnTheLane) {
  exec::ThreadPool pool(1);
  auto env = NewMemEnv();
  std::unique_ptr<DB> db = OpenTwoRunEngine(env.get(), &pool);
  PoolGate gate(&pool);
  gate.WaitHeld();
  ExpectWaitsForTheLane(db.get(), &gate, [&db] {
    return db->ApplyPolicyConfig(GrowthPolicyConfig::VTLevelFull(3));
  });
  EXPECT_EQ(db->CurrentPolicyConfig().Label(), "VT-Level-Full");
  // The switch's catch-up left the leveled shape: one run per level.
  for (const auto& level : db->current_version().levels) {
    EXPECT_LE(level.runs.size(), 1u) << db->DebugString();
  }
}

TEST(BackgroundLanes, RequestTheLaneCannotTakeFailsAtOnce) {
  exec::ThreadPool pool(1);
  auto env = NewMemEnv();
  std::unique_ptr<DB> db = OpenTwoRunEngine(env.get(), &pool);
  // A borrowed pool that is shut down refuses the lane's task: nothing
  // would ever run the request, so the call fails instead of waiting.
  pool.Shutdown();
  EXPECT_TRUE(db->CompactAll().IsBusy());
  EXPECT_TRUE(
      db->ApplyPolicyConfig(GrowthPolicyConfig::VTLevelFull(3)).IsBusy());
  EXPECT_EQ(db->CurrentPolicyConfig().Label(), "VT-Tier-Full");
  EXPECT_EQ(db->current_version().TotalRuns(), 2u);
  EXPECT_EQ(ExecJobCounts(db.get()), std::vector<int>(5, 0));
}

// ------------------------------------- Inline lanes (no pool, one engine)

// Forwards to another Env and logs every file creation and removal, in
// call order, as "create <name>" / "remove <name>".
class FileOpLogEnv : public Env {
 public:
  explicit FileOpLogEnv(Env* base) : base_(base) {}

  std::vector<std::string> ops() const {
    std::lock_guard<std::mutex> l(mu_);
    return ops_;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    Note("create ", fname);
    return base_->NewWritableFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    Note("remove ", fname);
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  IoStats* io_stats() override { return base_->io_stats(); }
  uint64_t TotalFileBytes(const std::string& dir) override {
    return base_->TotalFileBytes(dir);
  }

 private:
  void Note(const char* op, const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    ops_.push_back(op + fname);
  }

  Env* base_;
  mutable std::mutex mu_;
  std::vector<std::string> ops_;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(InlineLanes, FillingPutReturnsAfterSwitchFlushAndCompactions) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kInline,
                                   GrowthPolicyConfig::VTTierFull(3)),
                       &db)
                  .ok());
  FlushTwoRuns(db.get());

  const uint64_t mark = db->event_ring()->TotalEmitted();
  PutUntilSwitch(db.get(), "k");
  // What the filling Put left in the ring by the time it returned. A flush
  // plans its own merge too: only a plan outside a flush's begin/end pair
  // belongs to a compaction.
  std::vector<std::string> order;
  bool in_flush = false;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.seq < mark) continue;
    switch (e.type) {
      case obs::EventType::kMemtableSwitch:
        order.push_back("memtable_switch");
        break;
      case obs::EventType::kFlushBegin:
        in_flush = true;
        order.push_back("flush_begin");
        break;
      case obs::EventType::kFlushEnd:
        in_flush = false;
        order.push_back("flush_end");
        break;
      case obs::EventType::kCompactionPlan:
        if (!in_flush) order.push_back("compaction_plan");
        break;
      default:
        break;
    }
  }
  ASSERT_GE(order.size(), 4u);
  EXPECT_EQ(order[0], "memtable_switch");
  EXPECT_EQ(order[1], "flush_begin");
  EXPECT_EQ(order[2], "flush_end");
  for (size_t i = 3; i < order.size(); i++) {
    EXPECT_EQ(order[i], "compaction_plan") << i;
  }
  // Nothing is left queued or running once the Put has returned.
  EXPECT_EQ(ExecJobCounts(db.get()), std::vector<int>(5, 0));
}

TEST(InlineLanes, FlushedWalIsRemovedBeforeTheFirstCompactionOutput) {
  auto base = NewMemEnv();
  FileOpLogEnv env(base.get());
  DbOptions opts = TestOptions(&env, ExecutionMode::kInline,
                               GrowthPolicyConfig::VTTierFull(3));
  // One output file per flush and per compaction.
  opts.target_file_size = 64 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  FlushTwoRuns(db.get());

  const size_t mark = env.ops().size();
  const uint64_t compactions = db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions);
  PutUntilSwitch(db.get(), "k");
  ASSERT_GT(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), compactions);

  const std::vector<std::string> ops = env.ops();
  std::vector<size_t> sst_creates;
  size_t wal_removed = ops.size();
  for (size_t i = mark; i < ops.size(); i++) {
    if (ops[i].rfind("create ", 0) == 0 && EndsWith(ops[i], ".sst")) {
      sst_creates.push_back(i);
    }
    if (wal_removed == ops.size() && ops[i].rfind("remove ", 0) == 0 &&
        EndsWith(ops[i], ".wal")) {
      wal_removed = i;
    }
  }
  // The flush's output, then the compaction's.
  ASSERT_GE(sst_creates.size(), 2u);
  ASSERT_LT(wal_removed, ops.size()) << "the flushed WAL was never removed";
  EXPECT_GT(wal_removed, sst_creates[0]);
  EXPECT_LT(wal_removed, sst_creates[1]);
}

TEST(InlineLanes, FailedFlushLatchesItsErrorAndKeepsEveryWrite) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  const DbOptions opts = TestOptions(&env, ExecutionMode::kInline,
                                     GrowthPolicyConfig::VTTierFull(3));
  std::map<std::string, std::string> model;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 10; i++) {
      const std::string key = workload::FormatKey(i, 16);
      ASSERT_TRUE(db->Put(key, std::string(100, 'a' + i)).ok());
      model[key] = std::string(100, 'a' + i);
    }
    ASSERT_EQ(db->stats().flushes, 0u);
    // The next Put fills the 4 KiB memtable. Its mutating calls are the
    // WAL record's two appends, the switch's new WAL, then the flush's SST
    // file: the fourth call, which fails.
    // The Put committed before its flush failed, so it returns OK, as a
    // pooled engine's does; the flush's error is latched for later writes.
    env.FailAfterWrites(3);
    const Status committed = db->Put("big", std::string(4 << 10, 'x'));
    env.Disarm();
    EXPECT_TRUE(committed.ok()) << committed.ToString();
    model["big"] = std::string(4 << 10, 'x');
    // The switch succeeded and the flush failed: one memtable waits.
    EXPECT_EQ(db->stats().memtable_switches, 1u);
    EXPECT_EQ(db->stats().flushes, 0u);

    const Status latched = db->Put("after", "v");
    EXPECT_TRUE(latched.IsIOError()) << latched.ToString();
    EXPECT_EQ(db->Delete("big").ToString(), latched.ToString());
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(db->Get(k, &value).ok()) << k;
      EXPECT_EQ(value, v) << k;
    }
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  const auto got = FullScan(db.get());
  ASSERT_EQ(got.size(), model.size());
  auto want = model.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, want->first);
    EXPECT_TRUE(v == want->second) << k;
    ++want;
  }
}

TEST(InlineLanes, ConcurrentWritersAndReadersMatchAnOracle) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kInline,
                                   GrowthPolicyConfig::VTTierFull(3)),
                       &db)
                  .ok());
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerWriter = 1500;
  // Each writer owns a key range, so its own oracle is exact.
  std::vector<std::map<std::string, std::string>> oracles(kWriters);
  std::atomic<int> writing{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &oracles, &writing, w] {
      Random rnd(77 + w);
      for (int i = 0; i < kOpsPerWriter; i++) {
        const std::string key =
            workload::FormatKey(w * 1000 + rnd.Uniform(300), 16);
        if (rnd.Uniform(5) == 0) {
          EXPECT_TRUE(db->Delete(key).ok());
          oracles[w].erase(key);
        } else {
          const std::string value =
              "v-" + std::to_string(w) + "-" + std::to_string(i);
          EXPECT_TRUE(db->Put(key, value).ok());
          oracles[w][key] = value;
        }
      }
      writing.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&db, &writing, r] {
      Random rnd(500 + r);
      while (writing.load() > 0) {
        const std::string key =
            workload::FormatKey(rnd.Uniform(kWriters * 1000), 16);
        std::string value;
        const Status s = db->Get(key, &value);
        EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        std::vector<std::pair<std::string, std::string>> out;
        EXPECT_TRUE(db->Scan(key, 20, &out).ok());
        for (size_t i = 1; i < out.size(); i++) {
          EXPECT_LT(out[i - 1].first, out[i].first);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::map<std::string, std::string> oracle;
  for (const auto& o : oracles) oracle.insert(o.begin(), o.end());
  const std::vector<std::pair<std::string, std::string>> want(oracle.begin(),
                                                              oracle.end());
  EXPECT_EQ(FullScan(db.get()), want);
  EXPECT_GT(db->stats().flushes, 0u);
  EXPECT_GT(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), 0u);
}

// ------------------------------- Run ownership (a pool of two, one engine)

// Holds the next `n` SSTs created after HoldNextSsts(n) — each a merge's
// first output write — one at a time: the i-th held one waits until
// Release() has been called i times. The merge's runs stay owned and the
// DB mutex free while it waits.
class SstGateEnv : public FileOpLogEnv {
 public:
  using FileOpLogEnv::FileOpLogEnv;

  void HoldNextSsts(int n) {
    std::lock_guard<std::mutex> l(mu_);
    armed_ += n;
  }
  /// Returns once `n` merges have reached the gate.
  void WaitHeld(int n) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this, n] { return held_ >= n; });
  }
  /// Lets the oldest held merge go on.
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_++;
    cv_.notify_all();
  }
  void ReleaseAll() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = 1 << 30;
    cv_.notify_all();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (EndsWith(fname, ".sst")) {
      std::unique_lock<std::mutex> l(mu_);
      if (armed_ > 0) {
        armed_--;
        const int ticket = ++held_;
        cv_.notify_all();
        cv_.wait(l, [this, ticket] { return released_ >= ticket; });
      }
    }
    return FileOpLogEnv::NewWritableFile(fname, result);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int armed_ = 0;
  int held_ = 0;
  int released_ = 0;
};

// Opens the gate when a test leaves early, before its engine's teardown
// waits for a held merge.
struct ReleaseOnExit {
  SstGateEnv* env;
  ~ReleaseOnExit() { env->ReleaseAll(); }
};

// Waits up to ten seconds for the engine to emit `type` since `mark`.
bool AwaitEvent(DB* db, uint64_t mark, obs::EventType type) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (EventsSince(db, mark, type) == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Opens a pooled engine on `env` and the two-thread `pool` under `policy`.
// Writers stop at `max_imm` immutable memtables.
std::unique_ptr<DB> OpenPooled(Env* env, exec::ThreadPool* pool,
                               const GrowthPolicyConfig& policy,
                               size_t max_imm = 2) {
  DbOptions opts = TestOptions(env, ExecutionMode::kBackground, policy);
  opts.shared_pool = pool;
  opts.max_immutable_memtables = max_imm;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).ok());
  return db;
}

TEST(RunOwnership, LevelingFlushWaitsForTheMergeThatOwnsItsTarget) {
  exec::ThreadPool pool(2);
  auto base = NewMemEnv();
  SstGateEnv env(base.get());
  std::unique_ptr<DB> db =
      OpenPooled(&env, &pool, GrowthPolicyConfig::VTLevelFull(3));
  ReleaseOnExit release{&env};
  ASSERT_TRUE(db->Put("a", "v").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_EQ(db->current_version().levels[0].runs.size(), 1u);

  // The whole-tree merge owns level 0's run while its output is held.
  env.HoldNextSsts(1);
  std::thread compact_all([&db] { EXPECT_TRUE(db->CompactAll().ok()); });
  env.WaitHeld(1);
  const uint64_t mark = db->event_ring()->TotalEmitted();
  int puts = 0;
  PutUntilSwitch(db.get(), "k", &puts);
  // The second pool thread starts the leveling flush, which waits for the
  // held merge instead of rewriting the run under it.
  const bool began = AwaitEvent(db.get(), mark, obs::EventType::kFlushBegin);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(began);
  EXPECT_EQ(EventsSince(db.get(), mark, obs::EventType::kFlushEnd), 0);
  env.ReleaseAll();
  compact_all.join();
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_EQ(EventsSince(db.get(), mark, obs::EventType::kFlushEnd), 1);

  // The same writes with no pool scan back the same database.
  auto inline_env = NewMemEnv();
  std::unique_ptr<DB> inline_db;
  ASSERT_TRUE(DB::Open(TestOptions(inline_env.get(), ExecutionMode::kInline,
                                   GrowthPolicyConfig::VTLevelFull(3)),
                       &inline_db)
                  .ok());
  ASSERT_TRUE(inline_db->Put("a", "v").ok());
  ASSERT_TRUE(inline_db->CompactAll().ok());
  for (int i = 0; i < puts; i++) {
    ASSERT_TRUE(inline_db
                    ->Put("k" + workload::FormatKey(i, 16),
                          std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE(inline_db->FlushMemTable().ok());
  EXPECT_EQ(FullScan(db.get()), FullScan(inline_db.get()));
}

// Run counts of levels 0, 1 and 2.
std::vector<size_t> RunsPerLevel(DB* db) {
  std::vector<size_t> runs(3, 0);
  const Version& v = db->current_version();
  for (size_t i = 0; i < v.levels.size() && i < runs.size(); i++) {
    runs[i] = v.levels[i].runs.size();
  }
  return runs;
}

// Output levels of the compaction plans the engine emitted since `mark`,
// in order: a flush plans into level 0, a catch-up merge into its level.
std::vector<uint64_t> PlanLevelsSince(DB* db, uint64_t mark) {
  std::vector<uint64_t> levels;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.seq >= mark && e.type == obs::EventType::kCompactionPlan) {
      levels.push_back(e.a);
    }
  }
  return levels;
}

TEST(RunOwnership, HeldLevelingFlushKeepsTheCompactionLaneFromPicking) {
  exec::ThreadPool pool(2);
  auto base = NewMemEnv();
  SstGateEnv env(base.get());
  std::unique_ptr<DB> db = OpenPooled(
      &env, &pool, GrowthPolicyConfig::VTTierFull(3), /*max_imm=*/4);
  ReleaseOnExit release{&env};
  // A tiered layout: one level-0 run above two runs in each of levels 1
  // and 2.
  for (int i = 0; RunsPerLevel(db.get()) != std::vector<size_t>{1, 2, 2};
       i++) {
    ASSERT_LT(i, 100) << db->DebugString();
    ASSERT_TRUE(db->Put("t" + workload::FormatKey(i, 16), "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }

  // A switch to leveling merges level 1's runs, then level 2's. The first
  // merge is held at its output; the leveling flush that follows rewrites
  // level 0's run, which that merge does not own, and is held too. A
  // second full memtable queues behind it.
  env.HoldNextSsts(2);
  Status switched;
  std::thread switcher([&db, &switched] {
    switched = db->ApplyPolicyConfig(GrowthPolicyConfig::VTLevelFull(3));
  });
  env.WaitHeld(1);
  const uint64_t mark = db->event_ring()->TotalEmitted();
  PutUntilSwitch(db.get(), "k");
  env.WaitHeld(2);
  PutUntilSwitch(db.get(), "m");
  // Level 1's merge installs, and the lane does not plan level 2's while
  // the flush rewrites level 0.
  env.Release();
  const bool installed =
      AwaitEvent(db.get(), mark, obs::EventType::kCompactionInstall);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(installed);
  EXPECT_EQ(PlanLevelsSince(db.get(), mark), std::vector<uint64_t>{0});
  EXPECT_EQ(EventsSince(db.get(), mark, obs::EventType::kFlushEnd), 0);
  // Once the held flush installs, the waiting lane plans level 2's merge
  // before the queued flush plans its own.
  env.Release();
  switcher.join();
  EXPECT_TRUE(switched.ok()) << switched.ToString();
  ASSERT_TRUE(db->FlushMemTable().ok());
  const std::vector<uint64_t> plans = PlanLevelsSince(db.get(), mark);
  ASSERT_GE(plans.size(), 3u);
  EXPECT_EQ(std::vector<uint64_t>(plans.begin(), plans.begin() + 3),
            (std::vector<uint64_t>{0, 2, 0}));
  for (const auto& level : db->current_version().levels) {
    EXPECT_LE(level.runs.size(), 1u) << db->DebugString();
  }
}

TEST(RunOwnership, TieringFlushInstallsWhileAMergeIsHeld) {
  exec::ThreadPool pool(2);
  auto base = NewMemEnv();
  SstGateEnv env(base.get());
  std::unique_ptr<DB> db =
      OpenPooled(&env, &pool, GrowthPolicyConfig::VTTierFull(3));
  ReleaseOnExit release{&env};
  FlushTwoRuns(db.get());

  env.HoldNextSsts(1);
  std::thread compact_all([&db] { EXPECT_TRUE(db->CompactAll().ok()); });
  env.WaitHeld(1);
  const uint64_t mark = db->event_ring()->TotalEmitted();
  int puts = 0;
  PutUntilSwitch(db.get(), "k", &puts);
  // A tiering flush makes a new front run, which no merge owns: it
  // installs while the whole-tree merge is still held.
  EXPECT_TRUE(AwaitEvent(db.get(), mark, obs::EventType::kFlushEnd));
  env.ReleaseAll();
  compact_all.join();
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::vector<std::pair<std::string, std::string>> want = {{"run0", "v"},
                                                           {"run1", "v"}};
  for (int i = 0; i < puts; i++) {
    want.emplace_back("k" + workload::FormatKey(i, 16), std::string(100, 'v'));
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(FullScan(db.get()), want);
}

// With both lanes idle no maintenance can retire level-0 debt, so a writer
// proceeds: no slowdown, in either mode.
TEST(StallValve, IdleLanesNeverSlowAWriter) {
  for (ExecutionMode mode :
       {ExecutionMode::kInline, ExecutionMode::kBackground}) {
    SCOPED_TRACE(mode == ExecutionMode::kInline ? "inline" : "background");
    auto env = NewMemEnv();
    DbOptions opts =
        TestOptions(env.get(), mode, GrowthPolicyConfig::VTTierFull(3));
    opts.l0_slowdown_runs = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    ASSERT_TRUE(db->Put("a", "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());  // Both lanes idle after it.
    ASSERT_GE(db->current_version().levels[0].runs.size(), 1u);

    const uint64_t mark = db->event_ring()->TotalEmitted();
    ASSERT_TRUE(db->Put("b", "v").ok());
    EXPECT_EQ(db->stats().stall_slowdowns(), 0u);
    for (const obs::Event& e : db->event_ring()->Snapshot()) {
      if (e.seq < mark) continue;
      EXPECT_NE(e.type, obs::EventType::kStallEnter);
    }
  }
}

// A flush queued below the memtable cap does not slow writers: they fill
// the next memtable at full speed, and the switch that reaches the cap stops
// them until a flush installs.
TEST(StallGate, WritersStopAtTheMemtableCapWithoutSlowingDown) {
  exec::ThreadPool pool(2);
  auto base = NewMemEnv();
  SstGateEnv env(base.get());
  std::unique_ptr<DB> db =
      OpenPooled(&env, &pool, GrowthPolicyConfig::VTTierFull(3));
  ReleaseOnExit release{&env};
  const uint64_t mark = db->event_ring()->TotalEmitted();
  // The first flush is held at its output, so its memtable stays queued
  // while the writer fills the second.
  env.HoldNextSsts(1);
  PutUntilSwitch(db.get(), "a");
  env.WaitHeld(1);
  PutUntilSwitch(db.get(), "b");
  EXPECT_EQ(db->stats().stall_slowdowns(), 0u);
  EXPECT_EQ(db->stats().stall_stops(), 0u);

  // Two immutable memtables: the next write stops.
  std::atomic<bool> written{false};
  std::thread writer([&db, &written] {
    EXPECT_TRUE(db->Put("c", "v").ok());
    written = true;
  });
  const bool stopped =
      AwaitEvent(db.get(), mark, obs::EventType::kStallEnter);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(stopped);
  EXPECT_FALSE(written);
  env.Release();
  writer.join();
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_EQ(db->stats().stall_slowdowns(), 0u);
  EXPECT_EQ(db->stats().stall_stops_memtable, 1u);

  // One stop for memtable debt (b = 1, never a slowdown's 0), left only
  // after the held flush ended.
  std::vector<obs::EventType> order;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.seq < mark) continue;
    if (e.type == obs::EventType::kStallEnter) {
      EXPECT_EQ(e.a, obs::kCauseMemtable);
      EXPECT_EQ(e.b, 1u);
    }
    if (e.type == obs::EventType::kStallEnter ||
        e.type == obs::EventType::kStallExit ||
        e.type == obs::EventType::kFlushEnd) {
      order.push_back(e.type);
    }
  }
  auto first = [&order](obs::EventType type) {
    return std::find(order.begin(), order.end(), type) - order.begin();
  };
  EXPECT_EQ(first(obs::EventType::kStallEnter), 0);
  EXPECT_LT(first(obs::EventType::kFlushEnd),
            first(obs::EventType::kStallExit));
  EXPECT_LT(first(obs::EventType::kStallExit),
            static_cast<std::ptrdiff_t>(order.size()));
}

TEST(ExecDbTest, ReopenAfterBackgroundModeRecovers) {
  auto env = NewMemEnv();
  GrowthPolicyConfig policy = GrowthPolicyConfig::VTTierFull(3);
  std::map<std::string, std::string> model;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kBackground,
                                     policy),
                         &db)
                    .ok());
    Random rnd(42);
    for (int i = 0; i < 2500; i++) {
      std::string key = workload::FormatKey(rnd.Uniform(600), 16);
      std::string value = "val-" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    // Destructor drains background jobs; unflushed tail stays in the WAL.
  }
  {
    // Reopen in inline mode: recovery must replay every live WAL.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(TestOptions(env.get(), ExecutionMode::kInline, policy), &db)
            .ok());
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(db->Get(k, &value).ok()) << k;
      EXPECT_EQ(value, v);
    }
  }
}

TEST(ExecDbTest, InlineModeReportsInlineExecProperty) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(TestOptions(env.get(), ExecutionMode::kInline,
                                   GrowthPolicyConfig::VTLevelFull(3)),
                       &db)
                  .ok());
  ASSERT_TRUE(db->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(db->GetProperty("talus.exec", &value));
  EXPECT_EQ(value,
            "mode=inline threads=0 imm_queued=0 max_imm_queue=0 stall_us=0 "
            "slowdowns=0 stops=0 | flush{queued=0 running=0} "
            "compaction{queued=0 running=0}");
  EXPECT_EQ(db->stats().memtable_switches, 0u);
}

}  // namespace
}  // namespace talus
