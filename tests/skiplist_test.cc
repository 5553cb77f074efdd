#include "mem/skiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/random.h"

namespace talus {
namespace {

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

using IntSkipList = SkipList<uint64_t, IntComparator>;

TEST(SkipList, EmptyList) {
  Arena arena;
  IntSkipList list(IntComparator(), &arena);
  EXPECT_FALSE(list.Contains(10));
  IntSkipList::Iterator iter(&list);
  EXPECT_FALSE(iter.Valid());
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  iter.SeekToLast();
  EXPECT_FALSE(iter.Valid());
  iter.Seek(100);
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipList, InsertAndLookup) {
  Arena arena;
  IntSkipList list(IntComparator(), &arena);
  Random rnd(2000);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; i++) {
    const uint64_t key = rnd.Uniform(5000);
    if (keys.insert(key).second) {
      list.Insert(key);
    }
  }

  for (uint64_t i = 0; i < 5000; i++) {
    EXPECT_EQ(list.Contains(i), keys.count(i) > 0) << i;
  }

  // Forward iteration matches the ordered set.
  IntSkipList::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t key : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), key);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());

  // Backward iteration.
  iter.SeekToLast();
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), *it);
    iter.Prev();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipList, SeekSemantics) {
  Arena arena;
  IntSkipList list(IntComparator(), &arena);
  for (uint64_t k : {10, 20, 30, 40, 50}) list.Insert(k);

  IntSkipList::Iterator iter(&list);
  iter.Seek(25);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 30u);
  iter.Seek(30);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 30u);
  iter.Seek(51);
  EXPECT_FALSE(iter.Valid());
  iter.Seek(5);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 10u);
}

TEST(SkipList, LargeSequentialInsert) {
  Arena arena;
  IntSkipList list(IntComparator(), &arena);
  for (uint64_t i = 0; i < 50000; i++) {
    list.Insert(i * 2);
  }
  EXPECT_TRUE(list.Contains(0));
  EXPECT_TRUE(list.Contains(99998));
  EXPECT_FALSE(list.Contains(99999));
  EXPECT_FALSE(list.Contains(12345));
  EXPECT_TRUE(list.Contains(12346));
}

// The memtable's concurrency contract: one inserting thread, many lock-free
// readers. Every scan must be strictly ordered and must contain every key
// whose insert was published (through `published`) before the scan began;
// a Seek to such a key must land on it.
TEST(SkipList, OneWriterManyReaders) {
  constexpr uint64_t kKeys = 10000;
  constexpr int kReaders = 4;
  Arena arena;
  IntSkipList list(IntComparator(), &arena);

  // Odd keys in shuffled order, so inserts land all over the list and even
  // numbers are always absent Seek targets.
  std::vector<uint64_t> order(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) order[i] = 2 * i + 1;
  Random shuffle(301);
  for (uint64_t i = kKeys - 1; i > 0; i--) {
    std::swap(order[i], order[shuffle.Uniform(i + 1)]);
  }

  std::atomic<uint64_t> published{0};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> unordered{0}, missing{0}, bad_seeks{0}, scans{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rnd(1000 + r);
      std::vector<bool> seen(2 * kKeys + 1);
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writer_done.load(std::memory_order_acquire);
        const uint64_t before = published.load(std::memory_order_acquire);

        std::fill(seen.begin(), seen.end(), false);
        IntSkipList::Iterator iter(&list);
        uint64_t prev = 0;
        for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
          if (iter.key() <= prev) unordered++;
          prev = iter.key();
          seen[prev] = true;
        }
        for (uint64_t i = 0; i < before; i++) {
          if (!seen[order[i]]) missing++;
        }
        scans++;

        for (int i = 0; i < 20; i++) {
          if (before > 0) {
            const uint64_t k = order[rnd.Uniform(before)];
            iter.Seek(k);
            if (!iter.Valid() || iter.key() != k) bad_seeks++;
          }
          const uint64_t target = rnd.Uniform(2 * kKeys + 2);
          iter.Seek(target);
          if (iter.Valid()) {
            const uint64_t found = iter.key();
            if (found < target) bad_seeks++;
            iter.Next();
            if (iter.Valid() && iter.key() <= found) unordered++;
          }
        }
      }
    });
  }

  std::thread writer([&] {
    for (uint64_t i = 0; i < kKeys; i++) {
      list.Insert(order[i]);
      published.store(i + 1, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(unordered.load(), 0u);
  EXPECT_EQ(missing.load(), 0u);
  EXPECT_EQ(bad_seeks.load(), 0u);
  EXPECT_GE(scans.load(), static_cast<uint64_t>(kReaders));
  for (uint64_t k : order) EXPECT_TRUE(list.Contains(k)) << k;
}

}  // namespace
}  // namespace talus
