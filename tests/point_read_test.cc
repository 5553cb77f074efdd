// Point-read fast path (DESIGN.md §7): Block::PointGet must position on
// exactly the entry Block::Iter::Seek does — fuzzed over key shapes,
// restart intervals, and corrupt inputs — stay safe under concurrent use,
// and leave the amp counters bit-identical to the legacy iterator path.
#include "format/block.h"
#include "format/block_builder.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

// Random user key, biased toward sharing prefixes with `prev` so the
// delta-decode and prefix-skip paths get real coverage; occasionally long
// enough to overflow PointGetContext's inline buffer.
std::string RandomUserKey(Random* rnd, const std::string& prev) {
  std::string key;
  if (!prev.empty() && rnd->Uniform(100) < 60) {
    key = prev.substr(0, rnd->Uniform(static_cast<int>(prev.size()) + 1));
  }
  int extra = 1 + rnd->Uniform(12);
  if (rnd->Uniform(100) < 5) extra += 230 + rnd->Uniform(120);  // Heap path.
  for (int i = 0; i < extra; i++) {
    key.push_back(static_cast<char>('a' + rnd->Uniform(8)));
  }
  return key;
}

struct FuzzBlock {
  std::vector<std::string> ikeys;   // Sorted internal keys.
  std::vector<std::string> values;
  std::string contents;
};

FuzzBlock BuildInternalBlock(Random* rnd, int num_keys, int restart_interval) {
  std::set<std::string> users;
  std::string prev;
  while (static_cast<int>(users.size()) < num_keys) {
    prev = RandomUserKey(rnd, prev);
    users.insert(prev);
  }
  FuzzBlock fb;
  BlockBuilder builder(restart_interval, /*internal_key_order=*/true);
  int i = 0;
  for (const auto& user : users) {
    InternalKey ikey(user, 1 + rnd->Uniform(1000), kTypeValue);
    fb.ikeys.push_back(ikey.Encode().ToString());
    fb.values.push_back("v" + std::to_string(i++));
    builder.Add(Slice(fb.ikeys.back()), Slice(fb.values.back()));
  }
  fb.contents = builder.Finish().ToString();
  return fb;
}

// One probe: PointGet and Iter::Seek must agree on found-ness, key, value.
void CheckAgainstSeek(const Block& block, PointGetContext* ctx,
                      const Slice& target, bool internal) {
  auto iter = block.NewIterator(internal);
  iter->Seek(target);
  const PointGetStatus ps = block.PointGet(target, ctx, internal);
  ASSERT_NE(ps, PointGetStatus::kCorrupt) << target.ToString();
  if (iter->Valid()) {
    ASSERT_EQ(ps, PointGetStatus::kFound);
    EXPECT_EQ(ctx->key().ToString(), iter->key().ToString());
    EXPECT_EQ(ctx->value().ToString(), iter->value().ToString());
  } else {
    ASSERT_TRUE(iter->status().ok());
    ASSERT_EQ(ps, PointGetStatus::kNotFound);
  }
}

TEST(PointGet, EquivalentToSeekOnInternalKeysFuzz) {
  Random rnd(20260808);
  const int kRestartIntervals[] = {1, 2, 3, 7, 16, 64};
  for (int round = 0; round < 60; round++) {
    const int ri = kRestartIntervals[rnd.Uniform(6)];
    const int n = 1 + rnd.Uniform(200);
    FuzzBlock fb = BuildInternalBlock(&rnd, n, ri);
    Block block(fb.contents);
    PointGetContext ctx;

    for (size_t i = 0; i < fb.ikeys.size(); i++) {
      // Exact internal key.
      CheckAgainstSeek(block, &ctx, Slice(fb.ikeys[i]), true);
      // Same user key at the max-sequence seek point (the LookupKey shape).
      const std::string user = ExtractUserKey(Slice(fb.ikeys[i])).ToString();
      LookupKey lkey(user, kMaxSequenceNumber);
      CheckAgainstSeek(block, &ctx, lkey.internal_key(), true);
    }
    // Absent keys: random, plus prefixes/extensions of present keys.
    for (int p = 0; p < 50; p++) {
      std::string user = RandomUserKey(&rnd, "");
      if (rnd.Uniform(2) == 0 && !fb.ikeys.empty()) {
        const size_t pick = rnd.Uniform(static_cast<int>(fb.ikeys.size()));
        user = ExtractUserKey(Slice(fb.ikeys[pick])).ToString();
        if (rnd.Uniform(2) == 0 && user.size() > 1) {
          user.resize(user.size() - 1);  // Strict prefix of a present key.
        } else {
          user.push_back('x');  // Extension.
        }
      }
      LookupKey lkey(user, rnd.Uniform(2) == 0 ? kMaxSequenceNumber
                                               : 1 + rnd.Uniform(1000));
      CheckAgainstSeek(block, &ctx, lkey.internal_key(), true);
    }
  }
}

TEST(PointGet, EquivalentToSeekOnRawKeysFuzz) {
  Random rnd(31337);
  for (int round = 0; round < 40; round++) {
    const int ri = 1 + rnd.Uniform(20);
    std::map<std::string, std::string> entries;
    std::string prev;
    const int n = 1 + rnd.Uniform(150);
    while (static_cast<int>(entries.size()) < n) {
      prev = RandomUserKey(&rnd, prev);
      entries[prev] = "val" + std::to_string(rnd.Next() % 1000);
    }
    BlockBuilder builder(ri);
    for (const auto& [k, v] : entries) builder.Add(Slice(k), Slice(v));
    Block block(builder.Finish().ToString());
    PointGetContext ctx;
    for (const auto& [k, v] : entries) {
      CheckAgainstSeek(block, &ctx, Slice(k), false);
    }
    for (int p = 0; p < 30; p++) {
      CheckAgainstSeek(block, &ctx, Slice(RandomUserKey(&rnd, prev)), false);
    }
  }
}

// Corrupt inputs must come back as kCorrupt or a clean kNotFound/kFound —
// never crash or read out of bounds (this suite runs under ASan/UBSan).
TEST(PointGet, CorruptInputsFuzzSafely) {
  Random rnd(777);
  for (int round = 0; round < 120; round++) {
    FuzzBlock fb = BuildInternalBlock(&rnd, 1 + rnd.Uniform(80),
                                      1 + rnd.Uniform(16));
    std::string bytes = fb.contents;
    // Mutate: byte flips and/or truncation.
    const int flips = 1 + rnd.Uniform(8);
    for (int f = 0; f < flips && !bytes.empty(); f++) {
      bytes[rnd.Uniform(static_cast<int>(bytes.size()))] ^=
          static_cast<char>(1 + rnd.Uniform(255));
    }
    if (rnd.Uniform(3) == 0) {
      bytes.resize(rnd.Uniform(static_cast<int>(bytes.size()) + 1));
    }
    Block block(bytes);
    PointGetContext ctx;
    for (int p = 0; p < 10; p++) {
      const size_t pick = rnd.Uniform(static_cast<int>(fb.ikeys.size()));
      const PointGetStatus ps = block.PointGet(Slice(fb.ikeys[pick]), &ctx);
      if (ps == PointGetStatus::kFound) {
        EXPECT_GE(ctx.key().size(), 8u);  // Internal-key invariant held.
      }
    }
  }
}

TEST(PointGet, NonZeroSharedAtRestartIsCorruption) {
  Random rnd(5);
  FuzzBlock fb = BuildInternalBlock(&rnd, 20, /*restart_interval=*/1);
  std::string bytes = fb.contents;
  // Entry 0 starts at offset 0 and is a restart: its shared byte must be 0.
  ASSERT_EQ(bytes[0], 0);
  bytes[0] = 1;
  Block block(bytes);
  PointGetContext ctx;
  EXPECT_EQ(block.PointGet(Slice(fb.ikeys[0]), &ctx),
            PointGetStatus::kCorrupt);
}

TEST(PointGet, ShortTargetOnInternalBlockIsCorruption) {
  Random rnd(6);
  FuzzBlock fb = BuildInternalBlock(&rnd, 10, 16);
  Block block(fb.contents);
  PointGetContext ctx;
  // An internal-key probe shorter than its own 8-byte trailer can't be
  // compared; it must be rejected, not read out of bounds.
  EXPECT_EQ(block.PointGet(Slice("abc"), &ctx), PointGetStatus::kCorrupt);
}

// A Block is immutable after construction: many threads PointGet against
// one Block with private contexts. Run under TSan via the concurrency
// label.
TEST(PointGet, ConcurrentLookupsAreSafe) {
  Random rnd(99);
  FuzzBlock fb = BuildInternalBlock(&rnd, 400, 16);
  Block block(fb.contents);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      PointGetContext ctx;
      for (int i = 0; i < 2000; i++) {
        const size_t pick = (t * 2711 + i * 37) % fb.ikeys.size();
        if (block.PointGet(Slice(fb.ikeys[pick]), &ctx) !=
                PointGetStatus::kFound ||
            ctx.key() != Slice(fb.ikeys[pick]) ||
            ctx.value() != Slice(fb.values[pick])) {
          failures[t]++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) EXPECT_EQ(failures[t], 0) << t;
}

// The amp attribution the point-read path folds into the tracker feeds the
// cost model, so it must agree with what an iterator sees: hits equal the
// keys a DB iterator's Seek finds, and every file probe is exactly one of a
// filter negative, a hit, or a Bloom false positive.
TEST(PointGet, AmpCountersMatchIteratorOracle) {
  for (const FilterVariant variant :
       {FilterVariant::kLegacy, FilterVariant::kBlocked}) {
    SCOPED_TRACE("variant=" + std::to_string(static_cast<int>(variant)));
    auto env = NewMemEnv();
    DbOptions opts;
    opts.env = env.get();
    opts.path = "/db";
    opts.policy = GrowthPolicyConfig::VTTierFull(3);
    opts.filter_variant = variant;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    // Two flushed runs with interleaved key ranges so lookups probe
    // multiple files, plus misses to exercise the filters.
    for (int i = 0; i < 400; i++) {
      db->Put(workload::FormatKey(i * 2, 16), "even" + std::to_string(i));
    }
    db->FlushMemTable();
    for (int i = 0; i < 400; i++) {
      db->Put(workload::FormatKey(i * 2 + 1, 16), "odd" + std::to_string(i));
    }
    db->FlushMemTable();
    auto iter = db->NewIterator();
    uint64_t found = 0;
    std::string value;
    for (int i = 0; i < 1200; i++) {  // 800 hits + 400 misses.
      const std::string key = workload::FormatKey(i, 16);
      const Status s = db->Get(key, &value);
      iter->Seek(key);
      const bool present = iter->Valid() && iter->key() == Slice(key);
      ASSERT_EQ(s.ok(), present) << key;
      if (present) {
        EXPECT_EQ(value, iter->value().ToString()) << key;
        found++;
      }
    }
    EXPECT_EQ(found, 800u);
    const obs::AmpSnapshot a = db->GetAmpSnapshot();
    EXPECT_EQ(a.lookups, 1200u);
    EXPECT_EQ(a.memtable_hits, 0u);
    EXPECT_EQ(a.misses, 1200u - found);
    uint64_t hits = 0;
    for (int i = 0; i < a.num_levels; i++) {
      SCOPED_TRACE("level=" + std::to_string(i));
      const obs::AmpSnapshot::Level& l = a.levels[i];
      EXPECT_EQ(l.files_probed,
                l.filter_negatives + l.hits + l.bloom_false_positives);
      EXPECT_LE(l.block_reads, l.files_probed - l.filter_negatives);
      hits += l.hits;
    }
    EXPECT_EQ(hits, found);
  }
}

}  // namespace
}  // namespace talus
