// Corruption handling: damaged SSTs, manifests, and CURRENT files must
// surface Status::Corruption (or IOError), never crash or silently return
// wrong data.
#include <gtest/gtest.h>

#include <memory>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "table/sst_builder.h"
#include "table/sst_reader.h"
#include "workload/generator.h"

namespace talus {
namespace {

// Rewrites `fname` with `mutate` applied to its contents.
void MutateFile(Env* env, const std::string& fname,
                const std::function<void(std::string*)>& mutate) {
  std::unique_ptr<SequentialFile> in;
  ASSERT_TRUE(env->NewSequentialFile(fname, &in).ok());
  std::string contents;
  std::string scratch(1 << 20, '\0');
  Slice chunk;
  while (in->Read(scratch.size(), &chunk, scratch.data()).ok() &&
         !chunk.empty()) {
    contents.append(chunk.data(), chunk.size());
  }
  mutate(&contents);
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(contents).ok());
  ASSERT_TRUE(out->Close().ok());
}

std::string BuildSst(Env* env, const std::string& fname, int entries) {
  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile(fname, &file).ok());
  SstBuilder builder(opts, std::move(file));
  for (int i = 0; i < entries; i++) {
    builder.Add(InternalKey(workload::FormatKey(i, 16), i + 1, kTypeValue)
                    .Encode(),
                "value" + std::to_string(i));
  }
  EXPECT_TRUE(builder.Finish().ok());
  return fname;
}

TEST(SstCorruption, TruncatedFooterRejected) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c1.sst", 500);
  MutateFile(env.get(), "/c1.sst",
             [](std::string* c) { c->resize(c->size() - 10); });
  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c1.sst", 1, &cache, &reader);
  EXPECT_FALSE(s.ok());
}

TEST(SstCorruption, BadMagicRejected) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c2.sst", 100);
  MutateFile(env.get(), "/c2.sst",
             [](std::string* c) { (*c)[c->size() - 1] ^= 0xFF; });
  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c2.sst", 1, &cache, &reader);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(SstCorruption, TinyFileRejected) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env->NewWritableFile("/c3.sst", &f).ok());
  f->Append("not an sstable");
  f->Close();
  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c3.sst", 1, &cache, &reader);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(SstCorruption, GarbledIndexSurfacesOnOpenOrRead) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c4.sst", 2000);
  // Flip bytes in the middle of the file (data/index region).
  MutateFile(env.get(), "/c4.sst", [](std::string* c) {
    for (size_t i = c->size() / 2; i < c->size() / 2 + 64 && i < c->size();
         i++) {
      (*c)[i] ^= 0xA5;
    }
  });
  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c4.sst", 1, &cache, &reader);
  if (s.ok()) {
    // Damage landed in a data block: lookups must either miss cleanly or
    // report corruption — and must not crash. (The iterator's status
    // surfaces the error when the bad block is touched.)
    auto iter = reader->NewIterator();
    iter->SeekToFirst();
    int steps = 0;
    while (iter->Valid() && steps < 5000) {
      iter->Next();
      steps++;
    }
    SUCCEED();
  } else {
    EXPECT_FALSE(s.ok());
  }
}

// Regression: a corrupt index entry used to read as "not found" (the seek
// died on CorruptionError but Get only checked Valid()). Get must surface
// Corruption for a key whose search touches the bad entry, and so must the
// iterator oracle seeking the same key.
TEST(SstCorruption, CorruptIndexEntrySurfacesOnGet) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c5.sst", 1000);
  MutateFile(env.get(), "/c5.sst", [](std::string* c) {
    Footer footer;
    ASSERT_TRUE(footer
                    .DecodeFrom(Slice(c->data() + c->size() -
                                          Footer::kEncodedLength,
                                      Footer::kEncodedLength))
                    .ok());
    // Garble the first index entry's header (truncated/invalid varints).
    // The block trailer stays intact, so Open still succeeds.
    for (size_t i = 0; i < 8; i++) {
      (*c)[static_cast<size_t>(footer.index_handle.offset) + i] = '\xff';
    }
  });
  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env.get(), "/c5.sst", 1, &cache, &reader).ok());
  // The smallest key binary-searches to restart 0 and scans into the
  // garbled entry.
  const std::string key = workload::FormatKey(0, 16);
  const LookupKey lkey(key, kMaxSequenceNumber);
  std::string value;
  Status s;
  ASSERT_TRUE(reader->Get(lkey, &value, &s));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  auto iter = reader->NewIterator();
  iter->Seek(lkey.internal_key());
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

TEST(DbCorruption, ManifestDamageFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 100; i++) {
      db->Put(workload::FormatKey(i, 16), "v");
    }
    db->FlushMemTable();
  }
  // Find and damage the live manifest.
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  std::string manifest;
  for (const auto& c : children) {
    if (c.rfind("MANIFEST-", 0) == 0) manifest = "/db/" + c;
  }
  ASSERT_FALSE(manifest.empty());
  MutateFile(env.get(), manifest, [](std::string* c) {
    (*c)[c->size() / 2] ^= 0xFF;
  });
  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(DbCorruption, CurrentPointingNowhereFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db2";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    db->Put("k", "v");
  }
  std::unique_ptr<WritableFile> cur;
  ASSERT_TRUE(env->NewWritableFile("/db2/CURRENT", &cur).ok());
  cur->Append("MANIFEST-999999");
  cur->Close();
  std::unique_ptr<DB> db;
  EXPECT_FALSE(DB::Open(opts, &db).ok());
}

TEST(DbCorruption, GarbageCurrentFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db3";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    db->Put("k", "v");
  }
  std::unique_ptr<WritableFile> cur;
  ASSERT_TRUE(env->NewWritableFile("/db3/CURRENT", &cur).ok());
  cur->Append("definitely not a manifest name");
  cur->Close();
  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(DbCorruption, WalDamageKeepsFlushedDataReachable) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db4";
  opts.write_buffer_size = 4 << 10;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  uint64_t wal_number = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 200; i++) {
      db->Put(workload::FormatKey(i, 16), std::string(100, 'w'));
    }
    // Identify the live WAL.
    std::vector<std::string> children;
    env->GetChildren("/db4", &children);
    for (const auto& c : children) {
      uint64_t number;
      std::string suffix;
      if (ParseFileName(c, &number, &suffix) && suffix == "wal") {
        wal_number = std::max(wal_number, number);
      }
    }
  }
  ASSERT_GT(wal_number, 0u);
  // Corrupt the WAL tail: replay stops there; flushed data must survive.
  MutateFile(env.get(), WalFileName("/db4", wal_number),
             [](std::string* c) {
               if (!c->empty()) (*c)[c->size() - 1] ^= 0xFF;
             });
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(workload::FormatKey(0, 16), &value).ok());
}

}  // namespace
}  // namespace talus
