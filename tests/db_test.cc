// Engine integration tests: every growth policy must present identical
// user-visible semantics. A model std::map oracle checks reads after random
// op sequences that cross many flushes and compactions.
#include "lsm/db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions SmallOptions(Env* env, const GrowthPolicyConfig& policy) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.write_buffer_size = 4 << 10;  // Tiny buffer: many flushes.
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.block_cache_bytes = 64 << 10;
  opts.policy = policy;
  return opts;
}

struct NamedPolicy {
  const char* name;
  GrowthPolicyConfig config;
};

std::vector<NamedPolicy> AllPolicies() {
  return {
      {"VT-Level-Part", GrowthPolicyConfig::VTLevelPart(3)},
      {"VT-Level-Full", GrowthPolicyConfig::VTLevelFull(3)},
      {"VT-Tier-Part", GrowthPolicyConfig::VTTierPart(3)},
      {"VT-Tier-Full", GrowthPolicyConfig::VTTierFull(3)},
      {"RocksDB-Tuned", GrowthPolicyConfig::RocksDBTuned()},
      {"Universal", GrowthPolicyConfig::Universal()},
      {"HR-Level", GrowthPolicyConfig::HRLevel(3)},
      {"HR-Tier", GrowthPolicyConfig::HRTier(3, 1 << 20)},
      {"VRN-Level", GrowthPolicyConfig::VRNLevel(3)},
      {"VRN-Tier", GrowthPolicyConfig::VRNTier(3)},
      {"Vertiorizon", GrowthPolicyConfig::Vertiorizon(3)},
      {"Lazy-Level", GrowthPolicyConfig::LazyLeveling(3, 4, false)},
      {"Lazy-Level+VRN", GrowthPolicyConfig::LazyLeveling(3, 4, true)},
  };
}

class DbPolicyTest : public ::testing::TestWithParam<NamedPolicy> {};

TEST_P(DbPolicyTest, PutGetRoundTrip) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallOptions(env.get(), GetParam().config), &db).ok());

  std::map<std::string, std::string> model;
  Random rnd(1234);
  for (int i = 0; i < 3000; i++) {
    std::string key = workload::FormatKey(rnd.Uniform(500), 16);
    std::string value = "value-" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, value).ok()) << GetParam().name;
    model[key] = value;
  }

  for (const auto& [k, v] : model) {
    std::string value;
    Status s = db->Get(k, &value);
    ASSERT_TRUE(s.ok()) << GetParam().name << " key " << k << ": "
                        << s.ToString();
    EXPECT_EQ(value, v);
  }
  // Missing keys stay missing.
  for (int i = 600; i < 650; i++) {
    std::string value;
    EXPECT_TRUE(db->Get(workload::FormatKey(i, 16), &value).IsNotFound());
  }
}

TEST_P(DbPolicyTest, DeletesAndReinserts) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallOptions(env.get(), GetParam().config), &db).ok());

  std::map<std::string, std::string> model;
  Random rnd(99);
  for (int i = 0; i < 4000; i++) {
    std::string key = workload::FormatKey(rnd.Uniform(300), 16);
    if (rnd.OneIn(4)) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
  }

  for (int i = 0; i < 300; i++) {
    std::string key = workload::FormatKey(i, 16);
    std::string value;
    Status s = db->Get(key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << GetParam().name << " key " << key;
    } else {
      ASSERT_TRUE(s.ok()) << GetParam().name << " key " << key;
      EXPECT_EQ(value, it->second);
    }
  }
}

TEST_P(DbPolicyTest, ScanMatchesModel) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallOptions(env.get(), GetParam().config), &db).ok());

  std::map<std::string, std::string> model;
  Random rnd(4321);
  for (int i = 0; i < 2500; i++) {
    std::string key = workload::FormatKey(rnd.Uniform(400), 16);
    if (rnd.OneIn(5)) {
      db->Delete(key);
      model.erase(key);
    } else {
      std::string value = "sv" + std::to_string(i);
      db->Put(key, value);
      model[key] = value;
    }
  }

  // Full scan equals the model.
  auto iter = db->NewIterator();
  iter->SeekToFirst();
  auto it = model.begin();
  while (iter->Valid()) {
    ASSERT_NE(it, model.end()) << GetParam().name;
    EXPECT_EQ(iter->key().ToString(), it->first);
    EXPECT_EQ(iter->value().ToString(), it->second);
    iter->Next();
    ++it;
  }
  EXPECT_EQ(it, model.end()) << GetParam().name;

  // Bounded scans from random positions.
  for (int trial = 0; trial < 20; trial++) {
    std::string start = workload::FormatKey(rnd.Uniform(400), 16);
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(db->Scan(start, 10, &got).ok());
    auto mit = model.lower_bound(start);
    for (const auto& [k, v] : got) {
      ASSERT_NE(mit, model.end());
      EXPECT_EQ(k, mit->first);
      EXPECT_EQ(v, mit->second);
      ++mit;
    }
  }
}

TEST_P(DbPolicyTest, ReopenRecoversEverything) {
  auto env = NewMemEnv();
  std::map<std::string, std::string> model;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(SmallOptions(env.get(), GetParam().config), &db).ok());
    Random rnd(55);
    for (int i = 0; i < 2000; i++) {
      std::string key = workload::FormatKey(rnd.Uniform(250), 16);
      std::string value = "r" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    // No explicit flush: the tail of the data is only in the WAL.
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(SmallOptions(env.get(), GetParam().config), &db).ok())
        << GetParam().name;
    for (const auto& [k, v] : model) {
      std::string value;
      Status s = db->Get(k, &value);
      ASSERT_TRUE(s.ok()) << GetParam().name << " lost " << k;
      EXPECT_EQ(value, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DbPolicyTest, ::testing::ValuesIn(AllPolicies()),
    [](const ::testing::TestParamInfo<NamedPolicy>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Db, EmptyKeyRejected) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(SmallOptions(env.get(), GrowthPolicyConfig::VTLevelPart(3)),
               &db)
          .ok());
  EXPECT_TRUE(db->Put("", "v").IsInvalidArgument());
}

TEST(Db, OverwritesReturnLatest) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(SmallOptions(env.get(), GrowthPolicyConfig::VTLevelFull(3)),
               &db)
          .ok());
  const std::string key = workload::FormatKey(1, 16);
  for (int i = 0; i < 500; i++) {
    // Interleave other keys to force flushes between versions.
    ASSERT_TRUE(db->Put(key, "version" + std::to_string(i)).ok());
    ASSERT_TRUE(
        db->Put(workload::FormatKey(100 + i, 16), std::string(200, 'x')).ok());
  }
  std::string value;
  ASSERT_TRUE(db->Get(key, &value).ok());
  EXPECT_EQ(value, "version499");
}

TEST(Db, StatsAccumulate) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(SmallOptions(env.get(), GrowthPolicyConfig::VTLevelPart(3)),
               &db)
          .ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(workload::FormatKey(i % 1500, 16), std::string(100, 'v')).ok());
  }
  std::string value;
  for (int i = 0; i < 100; i++) {
    db->Get(workload::FormatKey(i, 16), &value);
  }
  EXPECT_GT(db->stats().flushes, 0u);
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  EXPECT_EQ(amp.puts, 2000u);
  EXPECT_GT(amp.Total(&obs::AmpSnapshot::Level::compactions), 0u);
  EXPECT_EQ(amp.lookups, 100u);
  EXPECT_EQ(amp.lookups - amp.misses, 100u);  // No deletes: every hit found.
  EXPECT_GT(amp.WriteAmp(), 1.0);
  EXPECT_GT(amp.ReadAmp(), 0.0);
  EXPECT_GT(env->io_stats()->peak_storage_bytes(), 0u);
}

TEST(Db, PolicyMismatchOnReopenRejected) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(SmallOptions(env.get(), GrowthPolicyConfig::VTLevelPart(3)),
                 &db)
            .ok());
    db->Put(workload::FormatKey(1, 16), "v");
  }
  std::unique_ptr<DB> db;
  Status s =
      DB::Open(SmallOptions(env.get(), GrowthPolicyConfig::HRLevel(3)), &db);
  EXPECT_TRUE(s.IsInvalidArgument());
}

// stats() copies the counters under the engine mutex, so a monitor may
// poll it while background flushes and compactions update them.
TEST(Db, StatsPollDuringBackgroundWrites) {
  auto env = NewMemEnv();
  DbOptions opts = SmallOptions(env.get(), GrowthPolicyConfig::VTTierFull(3));
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&db, &running, w] {
      for (int i = 0; i < kPerWriter; i++) {
        EXPECT_TRUE(db->Put(workload::FormatKey(w * kPerWriter + i, 16),
                            std::string(100, 'v'))
                        .ok());
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last_flushes = 0;
  while (running.load() > 0) {
    const EngineStats st = db->stats();
    EXPECT_GE(st.flushes, last_flushes);  // Counters never go back.
    last_flushes = st.flushes;
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_EQ(db->GetAmpSnapshot().puts, uint64_t{kWriters} * kPerWriter);
  EXPECT_GT(db->stats().flushes, 0u);
}

}  // namespace
}  // namespace talus
