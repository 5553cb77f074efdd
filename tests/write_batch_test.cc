#include "lsm/write_batch.h"

#include <gtest/gtest.h>

#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "workload/generator.h"

namespace talus {
namespace {

struct CollectingHandler : public WriteBatch::Handler {
  void Put(const Slice& key, const Slice& value) override {
    ops.emplace_back("put:" + key.ToString() + "=" + value.ToString());
  }
  void Delete(const Slice& key) override {
    ops.emplace_back("del:" + key.ToString());
  }
  std::vector<std::string> ops;
};

TEST(WriteBatch, IterateInOrder) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(batch.Count(), 3u);
  EXPECT_EQ(batch.PayloadBytes(), 2u + 1u + 2u);

  CollectingHandler handler;
  ASSERT_TRUE(batch.Iterate(&handler).ok());
  ASSERT_EQ(handler.ops.size(), 3u);
  EXPECT_EQ(handler.ops[0], "put:a=1");
  EXPECT_EQ(handler.ops[1], "del:b");
  EXPECT_EQ(handler.ops[2], "put:c=3");
}

TEST(WriteBatch, ClearResets) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_EQ(batch.PayloadBytes(), 0u);
}

TEST(WriteBatch, RepRoundTrip) {
  WriteBatch batch;
  batch.Put("key1", std::string(1000, 'x'));
  batch.Delete("key2");
  batch.Put("", "");  // Empty key allowed at batch level; DB rejects later.

  WriteBatch decoded;
  ASSERT_TRUE(WriteBatch::FromRep(batch.rep(), &decoded).ok());
  EXPECT_EQ(decoded.Count(), 3u);
  EXPECT_EQ(decoded.rep(), batch.rep());
}

TEST(WriteBatch, CorruptRepRejected) {
  WriteBatch decoded;
  EXPECT_FALSE(WriteBatch::FromRep(Slice("\x07garbage"), &decoded).ok());
  std::string bad;
  bad.push_back(static_cast<char>(kTypeValue));
  bad.push_back(static_cast<char>(200));  // Length prefix beyond input.
  EXPECT_FALSE(WriteBatch::FromRep(Slice(bad), &decoded).ok());
}

TEST(WriteBatchDb, AtomicApply) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/wb";
  opts.write_buffer_size = 8 << 10;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  WriteBatch batch;
  for (int i = 0; i < 100; i++) {
    batch.Put(workload::FormatKey(i, 16), "batch-" + std::to_string(i));
  }
  batch.Delete(workload::FormatKey(50, 16));
  ASSERT_TRUE(db->Write(batch).ok());

  std::string value;
  ASSERT_TRUE(db->Get(workload::FormatKey(7, 16), &value).ok());
  EXPECT_EQ(value, "batch-7");
  EXPECT_TRUE(db->Get(workload::FormatKey(50, 16), &value).IsNotFound());
}

TEST(WriteBatchDb, BatchSurvivesReopen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/wb2";
  opts.write_buffer_size = 1 << 20;  // Large: batch stays in WAL only.
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    WriteBatch batch;
    batch.Put("alpha", "1");
    batch.Put("beta", "2");
    batch.Delete("alpha");
    ASSERT_TRUE(db->Write(batch).ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get("alpha", &value).IsNotFound());
  ASSERT_TRUE(db->Get("beta", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST(WriteBatchDb, EmptyBatchIsNoop) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/wb3";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  WriteBatch batch;
  EXPECT_TRUE(db->Write(batch).ok());
  EXPECT_EQ(db->GetAmpSnapshot().puts, 0u);
}

}  // namespace
}  // namespace talus
