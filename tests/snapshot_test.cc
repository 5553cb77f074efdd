// Snapshot semantics: pinned read views must be repeatable across updates,
// flushes, and compactions (including manual major compactions).
#include <gtest/gtest.h>

#include <memory>

#include "env/env.h"
#include "lsm/db.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions Opts(Env* env) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/snap";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

std::string Key(int i) { return workload::FormatKey(i, 16); }

TEST(Snapshot, RepeatableReadInMemtable) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  ASSERT_TRUE(db->Put("k", "v1").ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v2").ok());

  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(db->Get("k", &value, snap).ok());
  EXPECT_EQ(value, "v1");
  db->ReleaseSnapshot(snap);
}

TEST(Snapshot, SurvivesFlushesAndCompactions) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(Key(i), "old-" + std::to_string(i)).ok());
  }
  const Snapshot* snap = db->GetSnapshot();

  // Overwrite everything several times across many flushes/compactions.
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(
          db->Put(Key(i), "new-" + std::to_string(round) + "-" +
                              std::to_string(i) + std::string(100, 'x'))
              .ok());
    }
  }
  EXPECT_GT(db->GetAmpSnapshot().Total(&obs::AmpSnapshot::Level::compactions), 0u);

  std::string value;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Get(Key(i), &value, snap).ok()) << i;
    EXPECT_EQ(value, "old-" + std::to_string(i)) << i;
  }
  db->ReleaseSnapshot(snap);
}

TEST(Snapshot, SurvivesManualMajorCompaction) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  ASSERT_TRUE(db->Put("pinned", "original").ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("pinned", "updated").ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(100, 'f')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  std::string value;
  ASSERT_TRUE(db->Get("pinned", &value, snap).ok());
  EXPECT_EQ(value, "original");
  ASSERT_TRUE(db->Get("pinned", &value).ok());
  EXPECT_EQ(value, "updated");
  db->ReleaseSnapshot(snap);
}

TEST(Snapshot, DeletionVisibleOnlyAfterSnapshot) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  ASSERT_TRUE(db->Put("doomed", "alive").ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Delete("doomed").ok());

  std::string value;
  EXPECT_TRUE(db->Get("doomed", &value).IsNotFound());
  ASSERT_TRUE(db->Get("doomed", &value, snap).ok());
  EXPECT_EQ(value, "alive");
  db->ReleaseSnapshot(snap);
}

TEST(Snapshot, ReleaseUnpinsVersions) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  ASSERT_TRUE(db->Put("k", "v1").ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v2").ok());
  db->ReleaseSnapshot(snap);

  // After release + major compaction the old version is reclaimed: the
  // store holds exactly one version of "k".
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(100, 'f')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  // One entry for "k" across the whole tree.
  uint64_t k_entries = 0;
  auto iter = db->NewIterator();
  for (iter->Seek("k"); iter->Valid() && iter->key() == Slice("k");
       iter->Next()) {
    k_entries++;
  }
  EXPECT_EQ(k_entries, 1u);
}

TEST(Snapshot, MultipleSnapshotsLayered) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());

  ASSERT_TRUE(db->Put("k", "v1").ok());
  const Snapshot* s1 = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v2").ok());
  const Snapshot* s2 = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v3").ok());

  // Push through enough data for several compactions.
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(100, 'z')).ok());
  }

  std::string value;
  ASSERT_TRUE(db->Get("k", &value, s1).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db->Get("k", &value, s2).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v3");
  db->ReleaseSnapshot(s1);
  db->ReleaseSnapshot(s2);
}

TEST(Properties, KnownPropertiesReport) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get()), &db).ok());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(100, 'p')).ok());
  }
  std::string value;
  EXPECT_TRUE(db->GetProperty("talus.stats", &value));
  EXPECT_NE(value.find("puts=300"), std::string::npos);
  EXPECT_TRUE(db->GetProperty("talus.levels", &value));
  EXPECT_NE(value.find("L0"), std::string::npos);
  EXPECT_TRUE(db->GetProperty("talus.num-runs", &value));
  EXPECT_GT(std::stoi(value), 0);
  EXPECT_TRUE(db->GetProperty("talus.data-bytes", &value));
  EXPECT_GT(std::stoll(value), 0);
  EXPECT_TRUE(db->GetProperty("talus.cstats", &value));
  EXPECT_FALSE(db->GetProperty("talus.unknown", &value));
}

TEST(ManualCompaction, CollapsesToSingleRun) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get());
  opts.policy = GrowthPolicyConfig::VTTierFull(3);  // Many runs naturally.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(Key(i % 200), std::string(100, 'm')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->current_version().TotalRuns(), 1u);
  // All data still present.
  std::string value;
  for (int i = 0; i < 200; i++) {
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << i;
  }
}

}  // namespace
}  // namespace talus
