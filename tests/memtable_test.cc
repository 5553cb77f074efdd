#include "mem/memtable.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/random.h"

namespace talus {
namespace {

TEST(MemTable, AddAndGet) {
  MemTable mem;
  mem.Add(1, kTypeValue, "alpha", "one");
  mem.Add(2, kTypeValue, "beta", "two");

  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("alpha", 10), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "one");
  ASSERT_TRUE(mem.Get(LookupKey("beta", 10), &value, &s));
  EXPECT_EQ(value, "two");
  EXPECT_FALSE(mem.Get(LookupKey("gamma", 10), &value, &s));
}

TEST(MemTable, NewestVersionWins) {
  MemTable mem;
  mem.Add(1, kTypeValue, "k", "v1");
  mem.Add(2, kTypeValue, "k", "v2");
  mem.Add(3, kTypeValue, "k", "v3");

  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &value, &s));
  EXPECT_EQ(value, "v3");
}

TEST(MemTable, SnapshotVisibility) {
  MemTable mem;
  mem.Add(5, kTypeValue, "k", "v5");
  mem.Add(9, kTypeValue, "k", "v9");

  std::string value;
  Status s;
  // A lookup at sequence 7 must see the version at seq 5, not 9.
  ASSERT_TRUE(mem.Get(LookupKey("k", 7), &value, &s));
  EXPECT_EQ(value, "v5");
  ASSERT_TRUE(mem.Get(LookupKey("k", 9), &value, &s));
  EXPECT_EQ(value, "v9");
  // Before the first version existed: not found in the memtable.
  EXPECT_FALSE(mem.Get(LookupKey("k", 4), &value, &s));
}

TEST(MemTable, TombstoneReported) {
  MemTable mem;
  mem.Add(1, kTypeValue, "k", "v");
  mem.Add(2, kTypeDeletion, "k", "");

  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 10), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(MemTable, IteratorOrdered) {
  MemTable mem;
  Random rnd(7);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1000; i++) {
    std::string key = "key" + std::to_string(rnd.Uniform(10000));
    std::string value = "v" + std::to_string(i);
    mem.Add(static_cast<SequenceNumber>(i + 1), kTypeValue, key, value);
    model[key] = value;  // Latest wins.
  }
  auto iter = mem.NewIterator();
  iter->SeekToFirst();
  std::string prev_user_key;
  std::map<std::string, std::string> seen;
  while (iter->Valid()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    std::string uk = parsed.user_key.ToString();
    if (seen.find(uk) == seen.end()) {
      seen[uk] = iter->value().ToString();  // First occurrence is newest.
    }
    EXPECT_LE(prev_user_key, uk);
    prev_user_key = uk;
    iter->Next();
  }
  EXPECT_EQ(seen, model);
}

// Keys on both sides of LookupKey's inline buffer, and of the one-byte
// varint length prefix (internal keys of 127 and 128 bytes): Get and
// iterator Seek find each entry, and the encoded layout round-trips.
TEST(MemTable, LookupKeyLayoutAtEveryKeyLength) {
  MemTable mem;
  const std::vector<size_t> sizes = {1, 119, 120, 186, 187, 188, 500, 4000};
  for (size_t i = 0; i < sizes.size(); i++) {
    const std::string key(sizes[i], static_cast<char>('a' + i));
    mem.Add(i + 1, kTypeValue, key, "v" + std::to_string(sizes[i]));

    const LookupKey lkey(key, kMaxSequenceNumber);
    EXPECT_EQ(lkey.user_key(), Slice(key));
    EXPECT_EQ(lkey.internal_key().size(), key.size() + 8);
    Slice mkey = lkey.memtable_key();
    Slice ikey;
    ASSERT_TRUE(GetLengthPrefixedSlice(&mkey, &ikey));
    EXPECT_TRUE(mkey.empty());
    EXPECT_EQ(ikey, lkey.internal_key());
  }
  for (size_t i = 0; i < sizes.size(); i++) {
    const std::string key(sizes[i], static_cast<char>('a' + i));
    std::string value;
    Status s;
    ASSERT_TRUE(mem.Get(LookupKey(key, kMaxSequenceNumber), &value, &s))
        << sizes[i];
    EXPECT_EQ(value, "v" + std::to_string(sizes[i]));

    auto iter = mem.NewIterator();
    iter->Seek(LookupKey(key, kMaxSequenceNumber).internal_key());
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(ExtractUserKey(iter->key()), Slice(key));
    EXPECT_EQ(iter->value(), Slice(value));
  }
}

TEST(MemTable, PayloadAccounting) {
  MemTable mem;
  mem.Add(1, kTypeValue, "abc", "defgh");
  EXPECT_EQ(mem.payload_bytes(), 8u);
  EXPECT_EQ(mem.num_entries(), 1u);
  mem.Add(2, kTypeDeletion, "xy", "");
  EXPECT_EQ(mem.payload_bytes(), 10u);
  EXPECT_GT(mem.ApproximateMemoryUsage(), 0u);
}

}  // namespace
}  // namespace talus
