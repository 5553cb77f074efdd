#include "wal/log_reader.h"
#include "wal/log_writer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "env/env.h"

namespace talus {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void Write(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/wal", &file).ok());
    wal::LogWriter writer(std::move(file));
    for (const auto& r : records) {
      ASSERT_TRUE(writer.AddRecord(r).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }

  std::vector<std::string> ReadAll(bool* corrupt = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile("/wal", &file).ok());
    wal::LogReader reader(std::move(file));
    std::vector<std::string> records;
    std::string record;
    while (reader.ReadRecord(&record)) {
      records.push_back(record);
    }
    if (corrupt != nullptr) *corrupt = reader.corruption_detected();
    return records;
  }

  void Truncate(size_t keep_bytes) {
    // Rewrite the file with only the first keep_bytes bytes.
    std::unique_ptr<SequentialFile> in;
    ASSERT_TRUE(env_->NewSequentialFile("/wal", &in).ok());
    std::string scratch(keep_bytes, '\0');
    Slice data;
    ASSERT_TRUE(in->Read(keep_bytes, &data, scratch.data()).ok());
    std::string contents = data.ToString();
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(env_->NewWritableFile("/wal", &out).ok());
    ASSERT_TRUE(out->Append(contents).ok());
    ASSERT_TRUE(out->Close().ok());
  }

  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(WalTest, RoundTrip) {
  std::vector<std::string> records = {"first", "", "third",
                                      std::string(100000, 'x')};
  Write(records);
  EXPECT_EQ(ReadAll(), records);
}

TEST_F(WalTest, EmptyLog) {
  Write({});
  bool corrupt = false;
  EXPECT_TRUE(ReadAll(&corrupt).empty());
  EXPECT_FALSE(corrupt);
}

TEST_F(WalTest, TornTailStopsCleanly) {
  Write({"aaaa", "bbbb", "cccc"});
  uint64_t full_size;
  ASSERT_TRUE(env_->GetFileSize("/wal", &full_size).ok());
  // Chop into the last record's payload.
  Truncate(full_size - 2);
  bool corrupt = false;
  auto records = ReadAll(&corrupt);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "aaaa");
  EXPECT_EQ(records[1], "bbbb");
  EXPECT_TRUE(corrupt);
}

TEST_F(WalTest, TornHeaderIsCleanEof) {
  Write({"aaaa", "bbbb"});
  uint64_t full_size;
  ASSERT_TRUE(env_->GetFileSize("/wal", &full_size).ok());
  // Leave 3 bytes of the second record's header.
  Truncate(full_size - ("bbbb" + std::string()).size() - 5);
  bool corrupt = false;
  auto records = ReadAll(&corrupt);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "aaaa");
}

TEST_F(WalTest, CorruptPayloadDetected) {
  Write({"aaaa", "bbbb"});
  // Flip a byte in the first record's payload.
  std::unique_ptr<SequentialFile> in;
  ASSERT_TRUE(env_->NewSequentialFile("/wal", &in).ok());
  std::string scratch(1 << 16, '\0');
  Slice data;
  ASSERT_TRUE(in->Read(1 << 16, &data, scratch.data()).ok());
  std::string contents = data.ToString();
  contents[wal::kHeaderSize] ^= 0xFF;
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env_->NewWritableFile("/wal", &out).ok());
  ASSERT_TRUE(out->Append(contents).ok());
  ASSERT_TRUE(out->Close().ok());

  bool corrupt = false;
  auto records = ReadAll(&corrupt);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(corrupt);
}

TEST_F(WalTest, ManyRecords) {
  std::vector<std::string> records;
  for (int i = 0; i < 5000; i++) {
    records.push_back("record-" + std::to_string(i));
  }
  Write(records);
  EXPECT_EQ(ReadAll(), records);
}

// A record is handed to the filesystem before AddRecord returns, so with
// kNone (no sync) a process crash loses nothing that was acknowledged. Run on
// the posix env, whose writable files buffer appends below the Env API.
TEST(WalPosixTest, RecordsVisibleWithoutSync) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "talus_wal_posix_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/000001.wal";

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  wal::LogWriter writer(std::move(file));
  const std::vector<std::string> records = {
      "a", std::string(1000, 'b'), std::string(200 << 10, 'c'), "",
      std::string(64 << 10, 'd'), "tail"};
  for (size_t i = 0; i < records.size(); i++) {
    ASSERT_TRUE(writer.AddRecord(records[i]).ok());
    ASSERT_GT(writer.unsynced_bytes(), 0u);

    std::unique_ptr<SequentialFile> in;
    ASSERT_TRUE(env->NewSequentialFile(fname, &in).ok());
    wal::LogReader reader(std::move(in));
    std::vector<std::string> read;
    std::string record;
    while (reader.ReadRecord(&record)) read.push_back(record);
    EXPECT_FALSE(reader.corruption_detected()) << "after record " << i;
    const std::vector<std::string> so_far(records.begin(),
                                          records.begin() + i + 1);
    EXPECT_TRUE(read == so_far) << "after record " << i;
  }
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_TRUE(env->RemoveFile(fname).ok());
}

}  // namespace
}  // namespace talus
