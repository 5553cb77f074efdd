// Crash-consistency tests: the WAL + manifest protocol must never lose
// acknowledged-durable writes or leave the store unopenable, under injected
// write failures and simulated power loss (FaultInjectionEnv).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "env/fault_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/manifest.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions Opts(Env* env, bool wal_sync) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/crash";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.wal_sync_mode = wal_sync ? WalSyncMode::kPerGroup : WalSyncMode::kNone;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

std::string Key(int i) { return workload::FormatKey(i, 16); }

TEST(CrashRecovery, SyncedWalLosesNothing) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/true), &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put(Key(i), "value" + std::to_string(i)).ok());
    }
    // Power loss: drop everything unsynced, abandon the DB object.
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  for (int i = 0; i < 500; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST(CrashRecovery, UnsyncedWalKeepsFlushedPrefix) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  int durable_upto = -1;  // Last key written before the last flush.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/false), &db).ok());
    uint64_t flushes_seen = 0;
    for (int i = 0; i < 800; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
      if (db->stats().flushes > flushes_seen) {
        flushes_seen = db->stats().flushes;
        durable_upto = i;  // Everything up to i is now in synced SSTs.
      }
    }
    ASSERT_GE(durable_upto, 0);
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, false), &db).ok());
  for (int i = 0; i <= durable_upto; i++) {
    std::string value;
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost flushed key " << i;
  }
}

TEST(CrashRecovery, WriteFailuresSurfaceAndStoreStaysOpenable) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
    }
    env.FailAfterWrites(50);
    // Keep writing until the injected failure surfaces.
    bool failed = false;
    for (int i = 100; i < 2000; i++) {
      if (!db->Put(Key(i), std::string(200, 'v')).ok()) {
        failed = true;
        break;
      }
    }
    EXPECT_TRUE(failed);
    env.Disarm();
    env.DropUnsyncedWrites();
  }
  // The store must reopen cleanly after the failure + crash.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  std::string value;
  // Everything acknowledged before the failure window is present (synced
  // WAL mode).
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
  }
  // And the store accepts new writes.
  EXPECT_TRUE(db->Put(Key(9999), "after-recovery").ok());
  EXPECT_TRUE(db->Get(Key(9999), &value).ok());
}

// A failed inline flush returns before it retires its WAL, and recovery
// never replays a WAL older than the oldest one the manifest names. The
// next Open must delete such WALs, whichever write of the flush failed
// (with these options, arming n = 47..57 fails the first flush before it
// retires its WAL).
TEST(CrashRecovery, OpenSweepsWalsOlderThanTheManifestNames) {
  for (uint64_t n = 40; n < 64; n++) {
    SCOPED_TRACE(n);
    auto base = NewMemEnv();
    FaultInjectionEnv env(base.get());
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/false), &db).ok());
      env.FailAfterWrites(n);
      for (int i = 0; i < 2000 && !env.failing(); i++) {
        db->Put(Key(i), std::string(200, 'v'));  // Fails once armed out.
      }
      env.Disarm();
      db->Put(Key(5000), "after");  // Fails when the WAL error latched.
      db->FlushMemTable();
    }
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, false), &db).ok());
    ManifestData manifest;
    uint64_t manifest_number = 0;
    ASSERT_TRUE(
        ReadCurrentManifest(&env, "/crash", &manifest, &manifest_number).ok());
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren("/crash", &children).ok());
    for (const std::string& name : children) {
      uint64_t number = 0;
      std::string suffix;
      if (ParseFileName(name, &number, &suffix) && suffix == "wal") {
        EXPECT_GE(number, manifest.wal_number) << name;
      }
    }
  }
}

// (execution mode, leveling flush?, failure point).
using CrashPoint = std::tuple<ExecutionMode, bool, int>;

class CrashPointTest : public ::testing::TestWithParam<CrashPoint> {
 protected:
  // VT-Level-Part merges every flush into level 0's run; VT-Tier-Full
  // writes every flush as a new run. Both flush shapes, in both modes.
  DbOptions CrashOpts(Env* env) const {
    DbOptions opts = Opts(env, /*wal_sync=*/true);
    opts.execution_mode = std::get<0>(GetParam());
    opts.policy = std::get<1>(GetParam()) ? GrowthPolicyConfig::VTLevelPart(3)
                                          : GrowthPolicyConfig::VTTierFull(3);
    return opts;
  }
  int crash_point() const { return std::get<2>(GetParam()); }
};

// Sweep the failure point across the write stream: whatever the crash
// position, reopening must succeed and recovered contents must be a
// prefix-consistent subset of acknowledged writes.
TEST_P(CrashPointTest, RecoversConsistentState) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  std::map<std::string, std::string> acked;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(CrashOpts(&env), &db).ok());
    env.FailAfterWrites(crash_point());
    for (int i = 0; i < 600; i++) {
      const std::string key = Key(i % 150);
      const std::string value = "v" + std::to_string(i);
      if (db->Put(key, value).ok()) {
        acked[key] = value;
      } else {
        break;  // Engine reported the failure: stop like a client would.
      }
    }
    // Background jobs may still be writing: drain them first, or they
    // would append past the tail the power loss drops.
    if (std::get<0>(GetParam()) == ExecutionMode::kBackground) db.reset();
    env.Disarm();
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(CrashOpts(&env), &db).ok())
      << "crash point " << crash_point();
  // With synced WAL, acknowledged implies durable. (The converse need not
  // hold: a failed op may still have reached the log.)
  for (const auto& [key, value] : acked) {
    std::string got;
    Status s = db->Get(key, &got);
    ASSERT_TRUE(s.ok()) << "crash point " << crash_point() << " lost "
                        << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashPointTest,
    ::testing::Combine(::testing::Values(ExecutionMode::kInline,
                                         ExecutionMode::kBackground),
                       ::testing::Bool(),
                       ::testing::Values(10, 60, 150, 400, 900, 2000, 5000)),
    [](const ::testing::TestParamInfo<CrashPoint>& info) {
      return std::string(std::get<0>(info.param) == ExecutionMode::kInline
                             ? "Inline"
                             : "Background") +
             (std::get<1>(info.param) ? "_LevelingFlush_" : "_TieringFlush_") +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace talus
