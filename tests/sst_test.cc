#include "table/sst_builder.h"
#include "table/sst_reader.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "util/coding.h"
#include "util/random.h"

namespace talus {
namespace {

struct SstFixture {
  std::unique_ptr<Env> env = NewMemEnv();
  std::map<std::string, std::string> model;  // user key -> value
  std::unique_ptr<SstReader> reader;
  LruCache cache{1 << 20};

  void Build(int num_keys, double bpk = 10.0, size_t block_size = 4096,
             FilterVariant variant = FilterVariant::kLegacy) {
    Random rnd(17);
    SequenceNumber seq = 1;
    for (int i = 0; i < num_keys; i++) {
      char key[32];
      snprintf(key, sizeof(key), "user%08d", i * 3);
      model[key] = "value-" + std::to_string(rnd.Next());
    }
    SstBuilderOptions opts;
    opts.bits_per_key = bpk;
    opts.block_size = block_size;
    opts.filter_variant = variant;
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("/sst/000001.sst", &file).ok());
    SstBuilder builder(opts, std::move(file));
    for (const auto& [k, v] : model) {
      InternalKey ikey(k, seq++, kTypeValue);
      builder.Add(ikey.Encode(), v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(
        SstReader::Open(env.get(), "/sst/000001.sst", 1, &cache, &reader)
            .ok());
  }
};

TEST(Sst, PointLookupsFindEverything) {
  SstFixture fx;
  fx.Build(2000);
  for (const auto& [k, v] : fx.model) {
    std::string value;
    Status s;
    LookupKey lkey(k, kMaxSequenceNumber);
    ASSERT_TRUE(fx.reader->Get(lkey, &value, &s)) << k;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(value, v);
  }
}

TEST(Sst, MissingKeysUndecided) {
  SstFixture fx;
  fx.Build(1000);
  int decided = 0;
  for (int i = 0; i < 1000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i * 3 + 1);  // Gaps.
    std::string value;
    Status s;
    if (fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s)) {
      decided++;
    }
  }
  EXPECT_EQ(decided, 0);
}

TEST(Sst, FilterSkipsMostMissingKeys) {
  SstFixture fx;
  fx.Build(5000, 10.0);
  int filter_negative = 0;
  const int probes = 2000;
  for (int i = 0; i < probes; i++) {
    char key[32];
    snprintf(key, sizeof(key), "zzzz%08d", i);
    std::string value;
    Status s;
    SstReader::GetStats stats;
    fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &stats);
    if (stats.filter_negative) filter_negative++;
  }
  EXPECT_GT(filter_negative, probes * 9 / 10);
}

TEST(Sst, IteratorFullScan) {
  SstFixture fx;
  fx.Build(3000);
  auto iter = fx.reader->NewIterator();
  iter->SeekToFirst();
  auto it = fx.model.begin();
  while (iter->Valid()) {
    ASSERT_NE(it, fx.model.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), it->first);
    EXPECT_EQ(iter->value().ToString(), it->second);
    iter->Next();
    ++it;
  }
  EXPECT_EQ(it, fx.model.end());
}

TEST(Sst, IteratorSeek) {
  SstFixture fx;
  fx.Build(1000);
  auto iter = fx.reader->NewIterator();
  for (const auto& [k, v] : fx.model) {
    LookupKey lkey(k, kMaxSequenceNumber);
    iter->Seek(lkey.internal_key());
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), k);
  }
  // Seek past the end.
  LookupKey past("zzzzzzzz", kMaxSequenceNumber);
  iter->Seek(past.internal_key());
  EXPECT_FALSE(iter->Valid());
}

TEST(Sst, BlockCacheServesRepeatedReads) {
  SstFixture fx;
  fx.Build(2000);
  const std::string key = fx.model.begin()->first;
  std::string value;
  Status s;
  SstReader::GetStats first, second;
  fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &first);
  fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &second);
  EXPECT_TRUE(first.block_read);
  EXPECT_TRUE(second.cache_hit);
}

TEST(Sst, SmallBlocksRoundTrip) {
  SstFixture fx;
  fx.Build(500, 10.0, /*block_size=*/256);
  for (const auto& [k, v] : fx.model) {
    std::string value;
    Status s;
    ASSERT_TRUE(fx.reader->Get(LookupKey(k, kMaxSequenceNumber), &value, &s));
    EXPECT_EQ(value, v);
  }
}

TEST(Sst, PosixEnvRoundTrip) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "talus_sst_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/000007.sst";

  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  SstBuilder builder(opts, std::move(file));
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "posix%06d", i);
    model[key] = "val" + std::to_string(i);
  }
  SequenceNumber seq = 1;
  for (const auto& [k, v] : model) {
    builder.Add(InternalKey(k, seq++, kTypeValue).Encode(), v);
  }
  ASSERT_TRUE(builder.Finish().ok());

  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env, fname, 7, &cache, &reader).ok());
  for (const auto& [k, v] : model) {
    std::string value;
    Status s;
    ASSERT_TRUE(reader->Get(LookupKey(k, kMaxSequenceNumber), &value, &s));
    EXPECT_EQ(value, v);
  }
  env->RemoveFile(fname);
}

// Compatibility matrix: SSTs written with either filter variant must read
// back correctly through both the PointGet fast path and the legacy
// iterator path — one reader handles any mix of file vintages.
TEST(Sst, FilterVariantAndGetPathMatrix) {
  for (const FilterVariant variant :
       {FilterVariant::kLegacy, FilterVariant::kBlocked}) {
    SstFixture fx;
    fx.Build(2000, 10.0, 4096, variant);
    for (const bool fast_path : {false, true}) {
      SCOPED_TRACE("variant=" + std::to_string(static_cast<int>(variant)) +
                   " fast_path=" + std::to_string(fast_path));
      for (const auto& [k, v] : fx.model) {
        std::string value;
        Status s;
        LookupKey lkey(k, kMaxSequenceNumber);
        ASSERT_TRUE(fx.reader->Get(lkey, &value, &s, nullptr, fast_path))
            << k;
        EXPECT_TRUE(s.ok());
        EXPECT_EQ(value, v);
      }
      // Missing keys stay undecided and the filter still fires.
      int decided = 0, filter_negative = 0;
      for (int i = 0; i < 1000; i++) {
        char key[32];
        snprintf(key, sizeof(key), "zzzz%08d", i);
        std::string value;
        Status s;
        SstReader::GetStats stats;
        if (fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s,
                           &stats, fast_path)) {
          decided++;
        }
        if (stats.filter_negative) filter_negative++;
      }
      EXPECT_EQ(decided, 0);
      EXPECT_GT(filter_negative, 900);
    }
  }
}

// Both Get paths must report identical per-lookup stats: the amp counters
// built from them feed the cost model and must not shift with the path.
TEST(Sst, GetStatsIdenticalAcrossPaths) {
  SstFixture slow, fast;
  slow.Build(3000);
  fast.Build(3000);
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i);  // Mix of hits and misses.
    std::string v1, v2;
    Status s1, s2;
    SstReader::GetStats g1, g2;
    const bool d1 = slow.reader->Get(LookupKey(key, kMaxSequenceNumber), &v1,
                                     &s1, &g1, /*fast_path=*/false);
    const bool d2 = fast.reader->Get(LookupKey(key, kMaxSequenceNumber), &v2,
                                     &s2, &g2, /*fast_path=*/true);
    ASSERT_EQ(d1, d2) << key;
    EXPECT_EQ(g1.filter_negative, g2.filter_negative) << key;
    EXPECT_EQ(g1.block_read, g2.block_read) << key;
    EXPECT_EQ(g1.cache_hit, g2.cache_hit) << key;
    if (d1) {
      EXPECT_EQ(s1.ok(), s2.ok());
      EXPECT_EQ(v1, v2);
    }
  }
}

using Entries = std::vector<std::pair<std::string, std::string>>;

// Walks `iter` front to back.
Entries Drain(Iterator* iter) {
  Entries out;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  return out;
}

// The streaming iterator (compaction inputs) reads exactly what the cached
// one does, and never looks up, inserts or charges the block cache.
void ExpectStreamMatchesCached(SstReader* reader, LruCache* cache) {
  auto stream = reader->NewIterator(SstReader::BlockFetch::kStream);
  const Entries streamed = Drain(stream.get());
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(cache->hits() + cache->misses(), 0u);
  EXPECT_EQ(cache->usage(), 0u);
  EXPECT_GT(reader->num_data_blocks_read(), 1u);

  // Seeks land where the cached iterator's do.
  auto cached = reader->NewIterator();
  const Slice mid(streamed[streamed.size() / 2].first);
  stream->Seek(mid);
  cached->Seek(mid);
  ASSERT_TRUE(stream->Valid());
  ASSERT_TRUE(cached->Valid());
  EXPECT_EQ(stream->key().ToString(), cached->key().ToString());

  EXPECT_EQ(Drain(cached.get()), streamed);
  EXPECT_GT(cache->usage(), 0u);  // The cached scan did fill it.
}

TEST(Sst, StreamingIteratorBypassesBlockCache) {
  SstFixture fx;
  fx.Build(3000, 10.0, /*block_size=*/512);
  ExpectStreamMatchesCached(fx.reader.get(), &fx.cache);
}

// On a posix file the block bytes land in the iterator's reused buffer
// rather than in memory the file pins.
TEST(Sst, StreamingIteratorOnPosixEnv) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "talus_sst_stream_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/000009.sst";
  SstBuilderOptions opts;
  opts.block_size = 512;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  SstBuilder builder(opts, std::move(file));
  for (int i = 0; i < 2000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "stream%06d", i);
    // Values of varying length give blocks of varying size.
    builder.Add(InternalKey(key, i + 1, kTypeValue).Encode(),
                std::string(1 + i % 97, static_cast<char>('a' + i % 26)));
  }
  ASSERT_TRUE(builder.Finish().ok());

  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env, fname, 9, &cache, &reader).ok());
  ExpectStreamMatchesCached(reader.get(), &cache);
  reader.reset();
  env->RemoveFile(fname);
}

// An SST image and the data-block handles its index names, each with the
// image offset of the handle's encoded size.
struct SstImage {
  std::string bytes;
  struct Entry {
    BlockHandle handle;
    size_t size_pos = 0;
  };
  std::vector<Entry> blocks;
};

SstImage ReadImage(Env* env, const std::string& fname) {
  SstImage image;
  std::unique_ptr<SequentialFile> in;
  EXPECT_TRUE(env->NewSequentialFile(fname, &in).ok());
  std::string scratch(1 << 16, '\0');
  Slice chunk;
  while (in->Read(scratch.size(), &chunk, scratch.data()).ok() &&
         !chunk.empty()) {
    image.bytes.append(chunk.data(), chunk.size());
  }
  const std::string& b = image.bytes;
  Footer footer;
  EXPECT_TRUE(footer
                  .DecodeFrom(Slice(b.data() + b.size() - Footer::kEncodedLength,
                                    Footer::kEncodedLength))
                  .ok());
  Block index(b.data() + footer.index_handle.offset,
              static_cast<size_t>(footer.index_handle.size));
  auto it = index.NewIterator(/*internal_key_order=*/true);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    Slice value = it->value();
    SstImage::Entry e;
    uint64_t offset = 0;
    Slice size_part = value;
    EXPECT_TRUE(GetVarint64(&size_part, &offset));
    e.size_pos = static_cast<size_t>(size_part.data() - b.data());
    EXPECT_TRUE(e.handle.DecodeFrom(&value));
    image.blocks.push_back(e);
  }
  return image;
}

void WriteImage(Env* env, const std::string& fname, const std::string& bytes) {
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(bytes).ok());
  ASSERT_TRUE(out->Close().ok());
}

// A damaged data block must fail the scan through status() on both fetch
// paths, not end it early as if the file were shorter: a compaction that
// took a silent early end for the end of its input would drop live data.
TEST(Sst, IteratorsSurfaceDamagedDataBlocks) {
  auto env = NewMemEnv();
  SstBuilderOptions opts;
  opts.block_size = 1024;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/good.sst", &file).ok());
  SstBuilder builder(opts, std::move(file));
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i);
    builder.Add(InternalKey(key, i + 1, kTypeValue).Encode(),
                "value-" + std::to_string(i));
  }
  ASSERT_TRUE(builder.Finish().ok());
  const SstImage image = ReadImage(env.get(), "/good.sst");
  ASSERT_GT(image.blocks.size(), 4u);

  // Truncated: the last block's handle claims more bytes than the file
  // holds (the same two-byte varint, so the index stays well formed).
  std::string truncated = image.bytes;
  const SstImage::Entry& last = image.blocks.back();
  ASSERT_GT(last.handle.offset + 0x3fff, truncated.size());
  ASSERT_EQ(static_cast<unsigned char>(truncated[last.size_pos]) & 0x80,
            0x80);
  truncated[last.size_pos] = '\xff';
  truncated[last.size_pos + 1] = '\x7f';
  WriteImage(env.get(), "/truncated.sst", truncated);

  // Garbled: a middle block's restart count points past its own bytes.
  std::string garbled = image.bytes;
  const BlockHandle& mid = image.blocks[image.blocks.size() / 2].handle;
  for (size_t i = 0; i < 4; i++) {
    garbled[static_cast<size_t>(mid.offset + mid.size) - 4 + i] = '\xff';
  }
  WriteImage(env.get(), "/garbled.sst", garbled);

  for (const char* fname : {"/truncated.sst", "/garbled.sst"}) {
    for (const auto fetch :
         {SstReader::BlockFetch::kCached, SstReader::BlockFetch::kStream}) {
      SCOPED_TRACE(std::string(fname) + " stream=" +
                   std::to_string(fetch == SstReader::BlockFetch::kStream));
      LruCache cache(1 << 20);
      std::unique_ptr<SstReader> reader;
      ASSERT_TRUE(SstReader::Open(env.get(), fname, 1, &cache, &reader).ok());
      auto iter = reader->NewIterator(fetch);
      const Entries entries = Drain(iter.get());
      EXPECT_GT(entries.size(), 0u);  // Blocks before the damage still read.
      EXPECT_LT(entries.size(), 3000u);
      EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
    }
  }
}

TEST(Sst, TombstonesDecideLookups) {
  auto env = NewMemEnv();
  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/t.sst", &file).ok());
  SstBuilder builder(opts, std::move(file));
  builder.Add(InternalKey("dead", 5, kTypeDeletion).Encode(), "");
  builder.Add(InternalKey("live", 6, kTypeValue).Encode(), "v");
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env.get(), "/t.sst", 1, nullptr, &reader).ok());
  std::string value;
  Status s;
  ASSERT_TRUE(reader->Get(LookupKey("dead", 100), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(reader->Get(LookupKey("live", 100), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v");
}

}  // namespace
}  // namespace talus
