// Behavioral engine tests: Bloom filters actually cut I/O, the block cache
// actually serves repeats, statistics stay internally consistent, and the
// virtual clock moves the way the cost model says it should.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

using Level = obs::AmpSnapshot::Level;

DbOptions BaseOptions(Env* env, const std::string& path) {
  DbOptions opts;
  opts.env = env;
  opts.path = path;
  opts.write_buffer_size = 8 << 10;
  opts.target_file_size = 8 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(4);
  return opts;
}

void Load(DB* db, int n, size_t value_size = 200) {
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16),
                        workload::MakeValue(i, 0, value_size))
                    .ok());
  }
}

TEST(BloomEffect, NegativeLookupsAvoidIo) {
  for (double bpk : {0.0, 10.0}) {
    auto env = NewMemEnv();
    DbOptions opts = BaseOptions(env.get(), "/bloom");
    opts.bloom_bits_per_key = bpk;
    opts.block_cache_bytes = 0;  // Isolate filter effect.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    // Even keys only: odd keys are absent but inside every file's range.
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db->Put(workload::FormatKey(i * 2, 16),
                          workload::MakeValue(i, 0, 200))
                      .ok());
    }

    const obs::AmpSnapshot before = db->GetAmpSnapshot();
    std::string value;
    for (int i = 0; i < 1000; i++) {
      EXPECT_TRUE(
          db->Get(workload::FormatKey(i * 2 + 1, 16), &value).IsNotFound());
    }
    obs::AmpSnapshot delta = db->GetAmpSnapshot();
    delta.Subtract(before);
    const uint64_t reads = delta.Total(&Level::block_reads);
    const uint64_t negatives =
        db->GetAmpSnapshot().Total(&Level::filter_negatives);
    if (bpk > 0) {
      // Filters must suppress nearly every probe for absent keys.
      EXPECT_GT(negatives, 800u);
      EXPECT_LT(reads, 400u);
    } else {
      // No filters: every probe of a covering file costs a block read.
      EXPECT_EQ(negatives, 0u);
      EXPECT_GT(reads, 800u);
    }
  }
}

TEST(BloomEffect, HigherBitsFewerFalsePositiveReads) {
  uint64_t reads_at[2] = {0, 0};
  int idx = 0;
  for (double bpk : {2.0, 16.0}) {
    auto env = NewMemEnv();
    DbOptions opts = BaseOptions(env.get(), "/bloom2");
    opts.bloom_bits_per_key = bpk;
    opts.block_cache_bytes = 0;
    opts.policy = GrowthPolicyConfig::VTTierFull(4);  // Many runs to probe.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    Load(db.get(), 3000);

    const obs::AmpSnapshot before = db->GetAmpSnapshot();
    std::string value;
    Random rnd(3);
    for (int i = 0; i < 1500; i++) {
      // Absent keys interleaved within the populated range.
      db->Get(workload::FormatKey(100000 + rnd.Uniform(100000), 16), &value);
    }
    obs::AmpSnapshot delta = db->GetAmpSnapshot();
    delta.Subtract(before);
    reads_at[idx++] = delta.Total(&Level::block_reads);
  }
  EXPECT_LT(reads_at[1], reads_at[0] / 2 + 10);
}

TEST(BlockCache, RepeatLookupsHitCache) {
  auto env = NewMemEnv();
  DbOptions opts = BaseOptions(env.get(), "/cache");
  opts.block_cache_bytes = 32 << 20;  // Everything fits.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  Load(db.get(), 2000);

  std::string value;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Get(workload::FormatKey(i, 16), &value).ok());
    }
  }
  // After warmup, hits dominate reads.
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  EXPECT_GT(amp.Total(&Level::cache_hits), amp.Total(&Level::block_reads));

  // And the virtual clock moved less per op than the uncached baseline.
  auto env2 = NewMemEnv();
  DbOptions opts2 = BaseOptions(env2.get(), "/cache2");
  opts2.block_cache_bytes = 0;
  std::unique_ptr<DB> db2;
  ASSERT_TRUE(DB::Open(opts2, &db2).ok());
  Load(db2.get(), 2000);
  const double c2_start = env2->io_stats()->clock();
  const double c1_start = env->io_stats()->clock();
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 500; i++) {
      db->Get(workload::FormatKey(i, 16), &value);
      db2->Get(workload::FormatKey(i, 16), &value);
    }
  }
  const double cached_cost = env->io_stats()->clock() - c1_start;
  const double uncached_cost = env2->io_stats()->clock() - c2_start;
  EXPECT_LT(cached_cost, uncached_cost / 2);
}

TEST(StatsConsistency, CountersAddUp) {
  auto env = NewMemEnv();
  DbOptions opts = BaseOptions(env.get(), "/stats");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  Random rnd(1);
  uint64_t puts = 0, deletes = 0, gets = 0, scans = 0;
  for (int i = 0; i < 3000; i++) {
    const std::string key = workload::FormatKey(rnd.Uniform(600), 16);
    switch (rnd.Uniform(4)) {
      case 0:
      case 1: {
        ASSERT_TRUE(db->Put(key, std::string(150, 'x')).ok());
        puts++;
        break;
      }
      case 2: {
        std::string value;
        db->Get(key, &value);
        gets++;
        break;
      }
      case 3: {
        if (rnd.OneIn(4)) {
          ASSERT_TRUE(db->Delete(key).ok());
          deletes++;
        } else {
          std::vector<std::pair<std::string, std::string>> out;
          ASSERT_TRUE(db->Scan(key, 5, &out).ok());
          scans++;
        }
        break;
      }
    }
  }
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  EXPECT_EQ(amp.puts, puts);
  EXPECT_EQ(amp.deletes, deletes);
  EXPECT_EQ(amp.lookups, gets);
  EXPECT_EQ(amp.scans, scans);
  EXPECT_EQ(amp.memtable_hits + amp.Total(&Level::hits) + amp.misses, gets);
  EXPECT_GT(amp.Total(&Level::compactions), 0u);
  // Physical writes at least the logical payload (no compression here).
  EXPECT_GE(amp.TotalBytesFlushed() + amp.TotalBytesCompacted(),
            amp.TotalBytesFlushed());
  EXPECT_GT(amp.WriteAmp(), 1.0);
}

TEST(VirtualClock, MonotoneAndChargedPerOp) {
  auto env = NewMemEnv();
  DbOptions opts = BaseOptions(env.get(), "/clock");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  double last = env->io_stats()->clock();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(workload::FormatKey(i, 16), std::string(150, 'c'))
                    .ok());
    const double now = env->io_stats()->clock();
    EXPECT_GT(now, last);  // Every op advances the clock (CPU epsilon).
    last = now;
  }
}

TEST(DataBytes, TracksLivePayloadApproximately) {
  auto env = NewMemEnv();
  DbOptions opts = BaseOptions(env.get(), "/bytes");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  const int n = 1000;
  const size_t entry = 16 + 200;
  Load(db.get(), n);
  const uint64_t approx = db->ApproximateDataBytes();
  EXPECT_GE(approx, static_cast<uint64_t>(n) * entry);
  // Bounded above by a small multiple (shadowed versions across runs).
  EXPECT_LT(approx, static_cast<uint64_t>(n) * entry * 3);
}

// ---- Golden kInline fingerprint ------------------------------------------
// kInline is the paper-reproduction mode: every figure depends on it being
// deterministic down to the byte. These cases pin the exact on-disk shape,
// I/O counters and virtual clock a fixed-seed Put/Delete/Get stream leaves
// behind, so any refactor of flush or compaction that shifts a file number,
// an output cut, a run id or a manifest write fails here. The first five
// cases were recorded before the flush moved onto the compaction pipeline;
// only files_hash, io_bytes_written and clock_bits moved since, once, when
// kInline took the lanes' maintenance order (the WAL now takes its number
// at the switch, and the flush's manifest is written before the compaction
// chain; CHANGES.md has the deltas). HRTier, LazyLevelVRN and VRNTier were
// recorded before their four horizontal-counter copies became one
// HorizontalPart. None may be edited to make a refactor pass.

struct GoldenFingerprint {
  std::string version;  // Version::DebugString().
  uint64_t files = 0;   // Live SST count.
  uint64_t files_hash = 0;  // FNV-1a over every live file's (number, size).
  uint64_t io_bytes_read = 0, io_bytes_written = 0;
  uint64_t io_read_requests = 0, io_write_requests = 0;
  uint64_t clock_bits = 0;  // IoStats::clock(), bit pattern of the double.
  uint64_t flushes = 0, compactions = 0;
  uint64_t flush_bytes_read = 0, flush_bytes_written = 0;
  uint64_t compaction_bytes_read = 0, compaction_bytes_written = 0;
};

struct GoldenCase {
  const char* name;
  GrowthPolicyConfig policy;
  GoldenFingerprint expected;
};

uint64_t Fnv1a(uint64_t hash, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    hash ^= (v >> (8 * i)) & 0xff;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

DbOptions GoldenOptions(Env* env, const GrowthPolicyConfig& policy) {
  DbOptions opts = BaseOptions(env, "/golden");
  opts.policy = policy;
  opts.execution_mode = ExecutionMode::kInline;
  return opts;
}

// The fixed-seed stream: 6000 Puts, Deletes and Gets over 2000 keys, a
// snapshot held across the middle third, then a flush.
void RunGoldenOps(DB* db) {
  Random rnd(20251017);
  const Snapshot* snap = nullptr;
  std::string value;
  for (int i = 0; i < 6000; i++) {
    if (i == 2000) snap = db->GetSnapshot();  // Pins versions in merges.
    if (i == 4000) db->ReleaseSnapshot(snap);
    const std::string key = workload::FormatKey(rnd.Uniform(2000), 16);
    const uint64_t op = rnd.Uniform(8);
    if (op == 0) {
      EXPECT_TRUE(db->Delete(key).ok());
    } else if (op == 1) {
      db->Get(key, &value);
    } else {
      EXPECT_TRUE(
          db->Put(key, workload::MakeValue(i, 0, 100 + rnd.Uniform(200)))
              .ok());
    }
  }
  EXPECT_TRUE(db->FlushMemTable().ok());
}

GoldenFingerprint RunGoldenWorkload(const GrowthPolicyConfig& policy) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(GoldenOptions(env.get(), policy), &db).ok());
  if (db == nullptr) return GoldenFingerprint();
  RunGoldenOps(db.get());

  GoldenFingerprint fp;
  const Version& v = db->current_version();
  fp.version = v.DebugString();
  fp.files_hash = 0xCBF29CE484222325ull;
  for (const auto& level : v.levels) {
    for (const auto& run : level.runs) {
      for (const auto& f : run.files) {
        fp.files++;
        fp.files_hash = Fnv1a(Fnv1a(fp.files_hash, f->number), f->file_size);
      }
    }
  }
  const IoStats* io = env->io_stats();
  fp.io_bytes_read = io->bytes_read();
  fp.io_bytes_written = io->bytes_written();
  fp.io_read_requests = io->read_requests();
  fp.io_write_requests = io->write_requests();
  const double clock = io->clock();
  std::memcpy(&fp.clock_bits, &clock, sizeof(clock));
  const EngineStats& st = db->stats();
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  fp.flushes = st.flushes;
  fp.compactions = amp.Total(&Level::compactions);
  fp.flush_bytes_read = amp.Total(&Level::flush_bytes_read);
  fp.flush_bytes_written = amp.TotalBytesFlushed();
  fp.compaction_bytes_read = amp.Total(&Level::compaction_bytes_read);
  fp.compaction_bytes_written = amp.TotalBytesCompacted();
  return fp;
}

// Renders a fingerprint as the initializer that would pin it, so a failure
// message shows every field side by side with the expectation.
std::string FormatFingerprint(const GoldenFingerprint& fp) {
  std::string version;
  for (char c : fp.version) {
    if (c == '\n') {
      version += "\\n";
    } else {
      version += c;
    }
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %" PRIu64 ", 0x%016" PRIx64 "ull, %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                "ull, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "}",
                version.c_str(), fp.files, fp.files_hash, fp.io_bytes_read,
                fp.io_bytes_written, fp.io_read_requests,
                fp.io_write_requests, fp.clock_bits, fp.flushes,
                fp.compactions, fp.flush_bytes_read, fp.flush_bytes_written,
                fp.compaction_bytes_read, fp.compaction_bytes_written);
  return buf;
}

class GoldenInlineTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenInlineTest, FingerprintIsBitIdentical) {
  const GoldenCase& c = GetParam();
  const GoldenFingerprint got = RunGoldenWorkload(c.policy);
  const GoldenFingerprint& want = c.expected;
  SCOPED_TRACE("actual: " + FormatFingerprint(got));
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.files, want.files);
  EXPECT_EQ(got.files_hash, want.files_hash);
  EXPECT_EQ(got.io_bytes_read, want.io_bytes_read);
  EXPECT_EQ(got.io_bytes_written, want.io_bytes_written);
  EXPECT_EQ(got.io_read_requests, want.io_read_requests);
  EXPECT_EQ(got.io_write_requests, want.io_write_requests);
  EXPECT_EQ(got.clock_bits, want.clock_bits);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.compactions, want.compactions);
  EXPECT_EQ(got.flush_bytes_read, want.flush_bytes_read);
  EXPECT_EQ(got.flush_bytes_written, want.flush_bytes_written);
  EXPECT_EQ(got.compaction_bytes_read, want.compaction_bytes_read);
  EXPECT_EQ(got.compaction_bytes_written, want.compaction_bytes_written);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GoldenInlineTest,
    ::testing::Values(
        GoldenCase{"VTLevelPart", GrowthPolicyConfig::VTLevelPart(4),
                   {"L0:\n"
                    "  run 1: 4 files, 31722 bytes, 144 entries\n"
                    "L1:\n"
                    "  run 2: 14 files, 121716 bytes, 629 entries\n"
                    "L2:\n"
                    "  run 3: 40 files, 340200 bytes, 1510 entries\n"
                    "L3: (empty)\n",
                    58, 0xfe984b47958dc8e3ull,
                    9454079, 11368097, 11363, 22595,
                    0x40b7f81d8ccccdbdull,
                    121, 185,
                    4349819, 4256141,
                    5519830, 4988260}},
        GoldenCase{"VTTierFull", GrowthPolicyConfig::VTTierFull(4),
                   {"L0:\n"
                    "  run 159: 1 files, 1025 bytes, 6 entries\n"
                    "L1:\n"
                    "  run 158: 4 files, 33605 bytes, 156 entries\n"
                    "  run 153: 4 files, 32499 bytes, 157 entries\n"
                    "L2:\n"
                    "  run 148: 13 files, 118045 bytes, 617 entries\n"
                    "  run 127: 12 files, 112094 bytes, 579 entries\n"
                    "  run 106: 15 files, 136578 bytes, 680 entries\n"
                    "L3:\n"
                    "  run 85: 46 files, 433027 bytes, 2068 entries\n"
                    "L4: (empty)\n",
                    95, 0x846809d1e1c08113ull,
                    3310401, 4997344, 4014, 14955,
                    0x40a7dab0bb3334f5ull,
                    121, 38,
                    1039790, 1029186,
                    2480919, 2302787}},
        GoldenCase{"HRLevel", GrowthPolicyConfig::HRLevel(),
                   {"L0: (empty)\n"
                    "L1:\n"
                    "  run 46: 1 files, 1025 bytes, 6 entries\n"
                    "L2:\n"
                    "  run 2: 39 files, 358058 bytes, 1583 entries\n",
                    40, 0x4c124490507d9fabull,
                    6268345, 7438630, 7339, 18030,
                    0x40ad424a51999c1bull,
                    121, 37,
                    2813785, 2759202,
                    3827115, 3157814}},
        GoldenCase{"LazyLevel", GrowthPolicyConfig::LazyLeveling(),
                   {"L0:\n"
                    "  run 144: 1 files, 1025 bytes, 6 entries\n"
                    "L1:\n"
                    "  run 143: 6 files, 49211 bytes, 234 entries\n"
                    "  run 136: 6 files, 48731 bytes, 252 entries\n"
                    "L2:\n"
                    "  run 129: 23 files, 208940 bytes, 1076 entries\n"
                    "  run 86: 33 files, 305411 bytes, 1543 entries\n"
                    "  run 43: 23 files, 210545 bytes, 938 entries\n"
                    "L3: (empty)\n",
                    92, 0x59bf45a6cd0d4362ull,
                    2760072, 4351933, 3340, 14207,
                    0x40a5ed48a9999b45ull,
                    121, 23,
                    1039790, 1029186,
                    1926573, 1710669}},
        GoldenCase{"Vertiorizon6", GrowthPolicyConfig::Vertiorizon(6),
                   {"L0:\n"
                    "  run 143: 1 files, 1025 bytes, 6 entries\n"
                    "  run 142: 1 files, 8157 bytes, 40 entries\n"
                    "  run 141: 1 files, 8760 bytes, 38 entries\n"
                    "  run 140: 1 files, 8512 bytes, 43 entries\n"
                    "  run 139: 1 files, 8703 bytes, 36 entries\n"
                    "L1: (empty)\n"
                    "L2: (empty)\n"
                    "L3: (empty)\n"
                    "L4: (empty)\n"
                    "L5: (empty)\n"
                    "L6: (empty)\n"
                    "L7: (empty)\n"
                    "L8:\n"
                    "  run 21: 38 files, 349394 bytes, 1552 entries\n"
                    "L9: (empty)\n",
                    43, 0x15e0fbac3b415a7bull,
                    4390264, 5511579, 5130, 15717,
                    0x40aa0f86480001d9ull,
                    121, 28,
                    1039790, 1029186,
                    3648614, 2982710}},
        GoldenCase{"HRTier", GrowthPolicyConfig::HRTier(3),
                   {"L0: (empty)\n"
                    "L1: (empty)\n"
                    "L2:\n"
                    "  run 173: 5 files, 42226 bytes, 201 entries\n"
                    "  run 164: 9 files, 75878 bytes, 384 entries\n"
                    "  run 150: 12 files, 108379 bytes, 573 entries\n"
                    "  run 130: 16 files, 144201 bytes, 714 entries\n"
                    "  run 103: 1 files, 8650 bytes, 47 entries\n"
                    "  run 101: 3 files, 25828 bytes, 124 entries\n"
                    "  run 96: 6 files, 51359 bytes, 267 entries\n"
                    "  run 87: 10 files, 85736 bytes, 429 entries\n"
                    "  run 73: 14 files, 126831 bytes, 636 entries\n"
                    "  run 53: 1 files, 8625 bytes, 41 entries\n"
                    "  run 51: 3 files, 25289 bytes, 130 entries\n"
                    "  run 46: 6 files, 47927 bytes, 250 entries\n"
                    "  run 37: 9 files, 75709 bytes, 392 entries\n"
                    "  run 23: 1 files, 8671 bytes, 41 entries\n"
                    "  run 21: 3 files, 24935 bytes, 130 entries\n"
                    "  run 16: 6 files, 49051 bytes, 246 entries\n"
                    "  run 7: 1 files, 8643 bytes, 39 entries\n"
                    "  run 5: 3 files, 24558 bytes, 106 entries\n",
                    109, 0x6b7f6171495b3605ull,
                    2709049, 4644455, 3350, 14435,
                    0x40a6e65aa1999b36ull,
                    121, 52,
                    1039790, 1029186,
                    1904884, 1808917}},
        GoldenCase{"LazyLevelVRN", GrowthPolicyConfig::LazyLeveling(6, 4, true),
                   {"L0: (empty)\n"
                    "L1:\n"
                    "  run 143: 5 files, 42226 bytes, 201 entries\n"
                    "  run 136: 7 files, 55125 bytes, 283 entries\n"
                    "  run 128: 7 files, 63827 bytes, 327 entries\n"
                    "L2:\n"
                    "  run 119: 26 files, 237537 bytes, 1235 entries\n"
                    "  run 65: 38 files, 357174 bytes, 1670 entries\n"
                    "L3: (empty)\n",
                    83, 0xd5a991314863c29eull,
                    2688093, 4188530, 3219, 14010,
                    0x40a5de3c433334bbull,
                    121, 22,
                    1039790, 1029186,
                    1842354, 1559191}},
        GoldenCase{"VRNTier", GrowthPolicyConfig::VRNTier(6),
                   {"L0:\n"
                    "  run 143: 1 files, 1025 bytes, 6 entries\n"
                    "  run 142: 1 files, 8157 bytes, 40 entries\n"
                    "  run 141: 1 files, 8760 bytes, 38 entries\n"
                    "  run 140: 1 files, 8512 bytes, 43 entries\n"
                    "  run 139: 1 files, 8703 bytes, 36 entries\n"
                    "L1: (empty)\n"
                    "L2: (empty)\n"
                    "L3: (empty)\n"
                    "L4: (empty)\n"
                    "L5: (empty)\n"
                    "L6: (empty)\n"
                    "L7: (empty)\n"
                    "L8:\n"
                    "  run 21: 38 files, 349394 bytes, 1552 entries\n"
                    "L9: (empty)\n",
                    43, 0x15e0fbac3b415a7bull,
                    4390264, 5513679, 5130, 15717,
                    0x40aa0f93680001daull,
                    121, 28,
                    1039790, 1029186,
                    3648614, 2982710}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

// The policy state each named policy persists in the manifest after the
// golden stream, as an FNV-1a hash of its EncodeState() bytes. A store
// written by an earlier build must reopen into the same state, so these
// constants, like the fingerprints above, are never edited to make a
// refactor pass.
TEST(PolicyState, EncodedStateIsPinnedForEveryNamedPolicy) {
  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"vt-level-part", 0x7a284394ed9ba7e0ull},
      {"vt-level-full", 0x08328807b4eb6fedull},
      {"vt-tier-part", 0xa643ee7b2a0a8c4aull},
      {"vt-tier-full", 0x08328807b4eb6fedull},
      {"rocksdb-tuned", 0x88470388295c3b6aull},
      {"universal", 0xcbf29ce484222325ull},  // Stateless: empty state.
      {"hr-level", 0x4961d90c37588c6dull},
      {"hr-tier", 0x20e58afdf9be854dull},
      {"vrn-level", 0x77a98754db825136ull},
      {"vrn-tier", 0xec79c372593f0eafull},
      {"vertiorizon", 0xec79c372593f0eafull},
      {"lazy", 0x91bda81f08aa4a07ull},
      {"lazy-vrn", 0x5e8dd508617fc6d0ull},
  };
  std::vector<std::string> names;
  std::string roster = GrowthPolicyNames() + "|";
  for (size_t pos; (pos = roster.find('|')) != std::string::npos;
       roster.erase(0, pos + 1)) {
    names.push_back(roster.substr(0, pos));
  }
  ASSERT_EQ(names.size(), pinned.size());
  for (size_t i = 0; i < names.size(); i++) {
    const std::string& name = names[i];
    GrowthPolicyConfig config;
    ASSERT_TRUE(GrowthPolicyConfigByName(name, 4, 1 << 20, &config)) << name;
    auto env = NewMemEnv();
    const DbOptions opts = GoldenOptions(env.get(), config);
    std::string state;
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, &db).ok()) << name;
      RunGoldenOps(db.get());
      state = db->policy()->EncodeState();
    }
    uint64_t hash = 0xCBF29CE484222325ull;
    for (unsigned char c : state) {
      hash ^= c;
      hash *= 0x100000001B3ull;
    }
    EXPECT_EQ(name, pinned[i].first);
    EXPECT_EQ(hash, pinned[i].second) << name;

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok()) << name;
    EXPECT_EQ(db->policy()->EncodeState(), state) << name;
  }
}

}  // namespace
}  // namespace talus
