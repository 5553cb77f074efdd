// Compaction pipeline tests (DESIGN.md §2.8): planner resolution and its
// refusal of a compaction's new front run in level 0, flush plans (the
// memtable as newest input), version splicing (ApplyCompactionPlan) and its
// refusal of a plan whose runs or files are gone, run-file disjointness
// after a whole-tree merge, and whole-engine inline-vs-background
// equivalence across growth policies under concurrent writers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compaction/compaction_install.h"
#include "compaction/compaction_planner.h"
#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

// ----------------------------------------------------------- version helpers

FileMetaPtr MakeFile(uint64_t number, const std::string& lo,
                     const std::string& hi, uint64_t size = 1000) {
  auto f = std::make_shared<FileMeta>();
  f->number = number;
  f->file_size = size;
  f->num_entries = 10;
  f->payload_bytes = size;
  f->smallest = InternalKey(Slice(lo), 100, kTypeValue);
  f->largest = InternalKey(Slice(hi), 1, kTypeValue);
  return f;
}

SortedRun MakeRun(uint64_t run_id, std::vector<FileMetaPtr> files) {
  SortedRun run;
  run.run_id = run_id;
  run.files = std::move(files);
  return run;
}

// L0: run 1 (two files), L1: run 2 (two files) — the shape of a simple
// leveling compaction.
Version TwoLevelVersion() {
  Version v;
  v.EnsureLevels(2);
  v.levels[0].runs.push_back(
      MakeRun(1, {MakeFile(10, "c", "h"), MakeFile(11, "k", "p")}));
  v.levels[1].runs.push_back(
      MakeRun(2, {MakeFile(20, "a", "j"), MakeFile(21, "l", "z")}));
  return v;
}

CompactionRequest LevelingRequest() {
  CompactionRequest req;
  req.inputs.push_back({0, 1, {}});
  req.output_level = 1;
  req.output_run_id = 2;
  req.reason = "test-leveling";
  return req;
}

// ------------------------------------------------------------------- planner

TEST(CompactionPlannerTest, ResolvesInputsTargetAndRange) {
  Version v = TwoLevelVersion();
  compaction::PlannerContext ctx;
  ctx.smallest_snapshot = 500;
  compaction::CompactionPlan plan;
  ASSERT_TRUE(
      compaction::PlanCompaction(v, LevelingRequest(), ctx, &plan).ok());

  ASSERT_FALSE(plan.empty());
  ASSERT_EQ(plan.inputs.size(), 1u);
  EXPECT_TRUE(plan.inputs[0].whole_run);
  EXPECT_EQ(plan.inputs[0].files.size(), 2u);
  EXPECT_EQ(plan.min_user, "c");
  EXPECT_EQ(plan.max_user, "p");
  // Both L1 files overlap [c, p].
  ASSERT_TRUE(plan.target_run_id.has_value());
  EXPECT_EQ(plan.target_overlaps.size(), 2u);
  // L1 is the bottommost data: tombstones may go.
  EXPECT_TRUE(plan.drop_tombstones);
  EXPECT_EQ(plan.smallest_snapshot, 500u);
}

TEST(CompactionPlannerTest, UnknownRunIsInvalidArgument) {
  Version v = TwoLevelVersion();
  CompactionRequest req;
  req.inputs.push_back({0, 99, {}});
  req.output_level = 1;
  compaction::CompactionPlan plan;
  EXPECT_TRUE(compaction::PlanCompaction(v, req, compaction::PlannerContext(),
                                         &plan)
                  .IsInvalidArgument());
}

TEST(CompactionPlannerTest, CompactionFrontRunIntoLevel0IsInvalidArgument) {
  // Only a flush makes a new front run of level 0: a compaction's could
  // land in front of a run flushed while it merged.
  Version v;
  v.EnsureLevels(1);
  v.levels[0].runs.push_back(
      MakeRun(1, {MakeFile(10, "a", "m"), MakeFile(11, "n", "z")}));
  v.levels[0].runs.push_back(MakeRun(2, {MakeFile(12, "a", "z")}));
  CompactionRequest req;
  req.inputs.push_back({0, 1, {}});
  req.output_level = 0;
  req.placement = CompactionRequest::Placement::kFront;
  compaction::CompactionPlan plan;
  EXPECT_TRUE(compaction::PlanCompaction(v, req, compaction::PlannerContext(),
                                         &plan)
                  .IsInvalidArgument());
  // Taking the inputs' place in level 0 is fine.
  req.placement = CompactionRequest::Placement::kReplaceInputs;
  ASSERT_TRUE(compaction::PlanCompaction(v, req, compaction::PlannerContext(),
                                         &plan)
                  .ok());
  EXPECT_FALSE(plan.empty());
}

// ------------------------------------------------------------------ install

TEST(CompactionInstallTest, MissingPlannedRunOrFileIsCorruption) {
  Version v = TwoLevelVersion();
  compaction::CompactionPlan plan;
  ASSERT_TRUE(compaction::PlanCompaction(v, LevelingRequest(),
                                         compaction::PlannerContext(), &plan)
                  .ok());
  CompactionRequest partial = LevelingRequest();
  partial.inputs[0].file_numbers = {11};
  compaction::CompactionPlan partial_plan;
  ASSERT_TRUE(compaction::PlanCompaction(v, partial,
                                         compaction::PlannerContext(),
                                         &partial_plan)
                  .ok());

  Version no_input(v);
  no_input.levels[0].runs.clear();
  Version no_file(v);
  no_file.levels[0].runs[0].files.pop_back();  // File 11.
  Version no_target(v);
  no_target.levels[1].runs.clear();
  const std::vector<std::pair<const compaction::CompactionPlan*, Version*>>
      cases = {{&plan, &no_input},
               {&partial_plan, &no_file},
               {&plan, &no_target}};
  for (const auto& [p, version] : cases) {
    const std::string before = version->DebugString();
    uint64_t next_run_id = 3;
    std::vector<FileMetaPtr> obsolete;
    EXPECT_TRUE(compaction::ApplyCompactionPlan(*p, {MakeFile(90, "a", "z")},
                                                &next_run_id, version,
                                                &obsolete)
                    .IsCorruption())
        << before;
    // Refused whole: nothing spliced, consumed or allocated.
    EXPECT_EQ(version->DebugString(), before);
    EXPECT_TRUE(obsolete.empty());
    EXPECT_EQ(next_run_id, 3u);
  }
}

TEST(CompactionInstallTest, ApplySplicesOutputsAndCollectsObsolete) {
  Version v = TwoLevelVersion();
  compaction::CompactionPlan plan;
  ASSERT_TRUE(compaction::PlanCompaction(v, LevelingRequest(),
                                         compaction::PlannerContext(), &plan)
                  .ok());

  Version next(v);
  uint64_t next_run_id = 3;
  std::vector<FileMetaPtr> obsolete;
  std::vector<FileMetaPtr> outputs = {MakeFile(90, "a", "k"),
                                      MakeFile(91, "l", "z")};
  ASSERT_TRUE(compaction::ApplyCompactionPlan(plan, outputs, &next_run_id,
                                              &next, &obsolete)
                  .ok());

  // Input run consumed, target run rewritten in place with the outputs.
  EXPECT_TRUE(next.levels[0].runs.empty());
  ASSERT_EQ(next.levels[1].runs.size(), 1u);
  EXPECT_EQ(next.levels[1].runs[0].run_id, 2u);  // Target identity kept.
  ASSERT_EQ(next.levels[1].runs[0].files.size(), 2u);
  EXPECT_EQ(next.levels[1].runs[0].files[0]->number, 90u);
  EXPECT_EQ(next.levels[1].runs[0].files[1]->number, 91u);
  // Every consumed file (2 inputs + 2 target overlaps) queued for GC.
  EXPECT_EQ(obsolete.size(), 4u);
  EXPECT_EQ(next_run_id, 3u);  // No new run was created.
}

// ---------------------------------------------------------------- flush plans

compaction::PlannerContext FlushContext() {
  compaction::PlannerContext ctx;
  ctx.memtable = [] { return std::unique_ptr<Iterator>(); };
  return ctx;
}

CompactionRequest FlushRequest(std::optional<uint64_t> target) {
  CompactionRequest req;
  req.output_level = 0;
  req.output_run_id = target;
  req.reason = "flush";
  return req;
}

TEST(FlushPlanTest, TieringFlushIsNeverEmptyAndInstallsInFront) {
  Version v = TwoLevelVersion();
  compaction::CompactionPlan plan;
  ASSERT_TRUE(compaction::PlanCompaction(v, FlushRequest(std::nullopt),
                                         FlushContext(), &plan)
                  .ok());
  EXPECT_FALSE(plan.empty());  // No SST inputs, but a memtable.
  EXPECT_TRUE(plan.inputs.empty());
  EXPECT_FALSE(plan.drop_tombstones);  // Older data lies below.

  // A compaction installed a new front run meanwhile: the flush's output
  // is still the newest data and installs in front of it.
  Version reshaped(v);
  reshaped.levels[0].runs.insert(reshaped.levels[0].runs.begin(),
                                 MakeRun(7, {MakeFile(60, "a", "z")}));
  uint64_t next_run_id = 8;
  std::vector<FileMetaPtr> obsolete;
  ASSERT_TRUE(compaction::ApplyCompactionPlan(plan, {MakeFile(70, "b", "x")},
                                              &next_run_id, &reshaped,
                                              &obsolete)
                  .ok());
  ASSERT_EQ(reshaped.levels[0].runs.size(), 3u);
  EXPECT_EQ(reshaped.levels[0].runs[0].run_id, 8u);
  EXPECT_TRUE(obsolete.empty());

  // Into an empty tree, tombstones can go.
  Version empty;
  empty.EnsureLevels(1);
  ASSERT_TRUE(compaction::PlanCompaction(empty, FlushRequest(std::nullopt),
                                         FlushContext(), &plan)
                  .ok());
  EXPECT_TRUE(plan.drop_tombstones);
}

TEST(FlushPlanTest, LevelingFlushRewritesWholeRunKeepingItsId) {
  Version v = TwoLevelVersion();
  compaction::CompactionPlan plan;
  ASSERT_TRUE(compaction::PlanCompaction(v, FlushRequest(1), FlushContext(),
                                         &plan)
                  .ok());
  // The whole target run, not just the files a key range overlaps.
  ASSERT_EQ(plan.target_overlaps.size(), 2u);
  EXPECT_EQ(plan.target_overlaps[0]->number, 10u);
  EXPECT_EQ(plan.target_overlaps[1]->number, 11u);
  EXPECT_FALSE(plan.drop_tombstones);  // L1 holds older data.

  uint64_t next_run_id = 3;
  std::vector<FileMetaPtr> obsolete;
  Version next(v);
  ASSERT_TRUE(compaction::ApplyCompactionPlan(plan, {MakeFile(80, "a", "z")},
                                              &next_run_id, &next, &obsolete)
                  .ok());
  ASSERT_EQ(next.levels[0].runs.size(), 1u);
  EXPECT_EQ(next.levels[0].runs[0].run_id, 1u);  // Run id kept.
  ASSERT_EQ(next.levels[0].runs[0].files.size(), 1u);
  EXPECT_EQ(next.levels[0].runs[0].files[0]->number, 80u);
  EXPECT_EQ(obsolete.size(), 2u);
  EXPECT_EQ(next_run_id, 3u);
}

// --------------------------------------------- engine-level pipeline checks

DbOptions PipelineOptions(Env* env, ExecutionMode mode,
                          const GrowthPolicyConfig& policy) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.block_cache_bytes = 64 << 10;
  opts.policy = policy;
  opts.execution_mode = mode;
  opts.num_background_threads = 3;
  opts.slowdown_delay_micros = 100;
  return opts;
}

std::vector<std::pair<std::string, std::string>> FullScan(DB* db) {
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_TRUE(db->Scan(Slice(""), 1000000, &out).ok());
  return out;
}

// Every run in every level must be internally sorted and key-disjoint —
// the invariant point lookups rely on (one file probed per run).
void CheckRunFileInvariants(DB* db) {
  const Version& v = db->current_version();
  for (const auto& level : v.levels) {
    for (const auto& run : level.runs) {
      for (size_t i = 1; i < run.files.size(); i++) {
        EXPECT_LT(run.files[i - 1]->largest.user_key().compare(
                      run.files[i]->smallest.user_key()),
                  0)
            << "overlapping files in run " << run.run_id;
      }
    }
  }
}

TEST(CompactionPipelineDbTest, InlineCompactAllKeepsRunsDisjoint) {
  // A whole-tree merge of an inline workload must respect the run-file
  // invariants and scan back exactly the model's final state.
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(PipelineOptions(env.get(), ExecutionMode::kInline,
                                       GrowthPolicyConfig::VTLevelFull(3)),
                       &db)
                  .ok());
  std::map<std::string, std::string> model;
  Random rnd(77);
  for (int i = 0; i < 4000; i++) {
    const std::string key = workload::FormatKey(rnd.Uniform(900), 16);
    if (rnd.Uniform(10) < 8) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
    }
  }
  ASSERT_TRUE(db->CompactAll().ok());
  CheckRunFileInvariants(db.get());
  EXPECT_GT(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), 0u);
  const std::vector<std::pair<std::string, std::string>> expect(
      model.begin(), model.end());
  EXPECT_EQ(FullScan(db.get()), expect);
}

// Deterministic per-thread op stream over a disjoint key range: the final
// per-key state is independent of cross-thread interleaving, so inline and
// background runs must converge to the same database.
void ApplyWorkerOps(DB* db, int worker, int ops) {
  Random rnd(4000 + worker);
  const int base = worker * 1000;
  for (int i = 0; i < ops; i++) {
    std::string key = workload::FormatKey(base + rnd.Uniform(300), 16);
    const uint32_t action = rnd.Uniform(10);
    if (action < 7) {
      ASSERT_TRUE(db->Put(key, "v-" + std::to_string(worker) + "-" +
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

struct NamedPolicy {
  const char* name;
  GrowthPolicyConfig config;
};

// Vertical (leveling + tiering), horizontal, lazy-leveling and Vertiorizon
// (the policy the served benchmark runs): every flush shape (new run,
// merge into level 0's run) and every compaction shape (new-run,
// merge-into-run, replace-inputs) the pipeline executes.
std::vector<NamedPolicy> PipelinePolicies() {
  return {
      {"VT-Level-Full", GrowthPolicyConfig::VTLevelFull(3)},
      {"VT-Tier-Full", GrowthPolicyConfig::VTTierFull(3)},
      {"HR-Level", GrowthPolicyConfig::HRLevel(3)},
      {"Lazy-Level", GrowthPolicyConfig::LazyLeveling(3, 4, false)},
      {"Vertiorizon", GrowthPolicyConfig::Vertiorizon(6)},
  };
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<NamedPolicy> {
};

TEST_P(PipelineEquivalenceTest, BackgroundMatchesInline) {
  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 1500;

  // Inline reference: same per-worker streams applied sequentially.
  auto inline_env = NewMemEnv();
  std::unique_ptr<DB> inline_db;
  ASSERT_TRUE(DB::Open(PipelineOptions(inline_env.get(),
                                       ExecutionMode::kInline,
                                       GetParam().config),
                       &inline_db)
                  .ok());
  for (int w = 0; w < kWorkers; w++) {
    ApplyWorkerOps(inline_db.get(), w, kOpsPerWorker);
  }

  // Background run: concurrent writers.
  auto bg_env = NewMemEnv();
  std::unique_ptr<DB> bg_db;
  ASSERT_TRUE(DB::Open(PipelineOptions(bg_env.get(),
                                       ExecutionMode::kBackground,
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

  auto expect = FullScan(inline_db.get());
  auto got = FullScan(bg_db.get());
  ASSERT_EQ(expect.size(), got.size()) << GetParam().name;
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(expect[i].first, got[i].first) << GetParam().name;
    EXPECT_EQ(expect[i].second, got[i].second) << GetParam().name;
  }
  CheckRunFileInvariants(bg_db.get());

  // The pipeline really compacted.
  EXPECT_GT(bg_db->GetAmpSnapshot().Total(
                &obs::AmpSnapshot::Level::compactions),
            0u)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Policies, PipelineEquivalenceTest,
                         ::testing::ValuesIn(PipelinePolicies()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(CompactionPipelineDbTest, CompactAllUnderConcurrentWriters) {
  // Manual compaction while writers keep flushing: the whole-tree merge
  // and the leveling flushes take turns on level 0's run, and the result
  // must contain every key the writers settled on.
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(PipelineOptions(env.get(), ExecutionMode::kBackground,
                                       GrowthPolicyConfig::VTLevelFull(3)),
                       &db)
                  .ok());
  std::thread writer([&db] {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(
          db->Put(workload::FormatKey(i % 500, 16), std::to_string(i)).ok());
    }
  });
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(db->CompactAll().ok());
  }
  writer.join();
  ASSERT_TRUE(db->CompactAll().ok());
  CheckRunFileInvariants(db.get());
  auto rows = FullScan(db.get());
  EXPECT_EQ(rows.size(), 500u);
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].first, workload::FormatKey(i, 16));
  }
}

}  // namespace
}  // namespace talus
