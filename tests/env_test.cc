#include "env/env.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace talus {
namespace {

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      owned_ = NewMemEnv();
      env_ = owned_.get();
      base_ = "/envtest";
    } else {
      env_ = Env::Default();
      base_ = ::testing::TempDir() + "talus_env_test";
    }
    ASSERT_TRUE(env_->CreateDirIfMissing(base_).ok());
  }

  void TearDown() override {
    std::vector<std::string> children;
    if (env_->GetChildren(base_, &children).ok()) {
      for (const auto& c : children) env_->RemoveFile(base_ + "/" + c);
    }
  }

  // Reads `fname` to EOF through a SequentialFile.
  std::string ReadFile(const std::string& fname) {
    std::unique_ptr<SequentialFile> sf;
    EXPECT_TRUE(env_->NewSequentialFile(fname, &sf).ok());
    if (sf == nullptr) return "";
    std::string contents;
    std::string scratch(10000, '\0');
    while (true) {
      Slice chunk;
      EXPECT_TRUE(sf->Read(scratch.size(), &chunk, scratch.data()).ok());
      if (chunk.empty()) return contents;
      contents.append(chunk.data(), chunk.size());
    }
  }

  uint64_t FileSize(const std::string& fname) {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize(fname, &size).ok());
    return size;
  }

  // `n` bytes that differ from one append to the next.
  static std::string Payload(size_t n, size_t seed) {
    std::string out(n, '\0');
    for (size_t i = 0; i < n; i++) {
      out[i] = static_cast<char>((i * 131 + seed * 7919) >> 3);
    }
    return out;
  }

  std::unique_ptr<Env> owned_;
  Env* env_ = nullptr;
  std::string base_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  const std::string fname = base_ + "/data";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  ASSERT_TRUE(wf->Append("hello ").ok());
  ASSERT_TRUE(wf->Append("world").ok());
  ASSERT_TRUE(wf->Sync().ok());
  ASSERT_TRUE(wf->Close().ok());

  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  EXPECT_EQ(size, 11u);

  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &rf).ok());
  char scratch[32];
  Slice result;
  ASSERT_TRUE(rf->Read(6, 5, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "world");
  ASSERT_TRUE(rf->Read(0, 5, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "hello");
  EXPECT_EQ(rf->Size(), 11u);
}

TEST_P(EnvTest, SequentialReadAndSkip) {
  const std::string fname = base_ + "/seq";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  ASSERT_TRUE(wf->Append("0123456789").ok());
  ASSERT_TRUE(wf->Close().ok());

  std::unique_ptr<SequentialFile> sf;
  ASSERT_TRUE(env_->NewSequentialFile(fname, &sf).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(sf->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "012");
  ASSERT_TRUE(sf->Skip(4).ok());
  ASSERT_TRUE(sf->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "789");
  // EOF.
  ASSERT_TRUE(sf->Read(3, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

TEST_P(EnvTest, FileLifecycle) {
  const std::string fname = base_ + "/lifecycle";
  EXPECT_FALSE(env_->FileExists(fname));
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  wf->Append("x");
  wf->Close();
  EXPECT_TRUE(env_->FileExists(fname));

  const std::string renamed = base_ + "/renamed";
  ASSERT_TRUE(env_->RenameFile(fname, renamed).ok());
  EXPECT_FALSE(env_->FileExists(fname));
  EXPECT_TRUE(env_->FileExists(renamed));

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(base_, &children).ok());
  bool found = false;
  for (const auto& c : children) {
    if (c == "renamed") found = true;
  }
  EXPECT_TRUE(found);

  ASSERT_TRUE(env_->RemoveFile(renamed).ok());
  EXPECT_FALSE(env_->FileExists(renamed));
  EXPECT_FALSE(env_->RemoveFile(renamed).ok());
}

TEST_P(EnvTest, MissingFileErrors) {
  std::unique_ptr<RandomAccessFile> rf;
  EXPECT_FALSE(env_->NewRandomAccessFile(base_ + "/nope", &rf).ok());
  std::unique_ptr<SequentialFile> sf;
  EXPECT_FALSE(env_->NewSequentialFile(base_ + "/nope", &sf).ok());
  uint64_t size;
  EXPECT_FALSE(env_->GetFileSize(base_ + "/nope", &size).ok());
}

TEST_P(EnvTest, AppendsAcrossBufferBoundary) {
  // Sizes around the posix writer's 64 KiB buffer, small and large
  // interleaved so appends land at many buffer offsets.
  constexpr size_t kBuf = 64 << 10;
  const std::vector<size_t> sizes = {
      1, kBuf - 1, 1, kBuf, 3, kBuf + 1, kBuf, 1, 200 << 10, 7,
      kBuf - 1, kBuf - 1, 2, kBuf + 1, 1};
  const std::string fname = base_ + "/boundary";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  IoStats* io = env_->io_stats();
  const uint64_t requests_before = io->write_requests();
  const uint64_t bytes_before = io->bytes_written();
  std::string expected;
  for (size_t i = 0; i < sizes.size(); i++) {
    const std::string chunk = Payload(sizes[i], i);
    ASSERT_TRUE(wf->Append(chunk).ok());
    expected += chunk;
  }
  ASSERT_TRUE(wf->Close().ok());
  // IoStats counts logical appends, whatever the writer does below them.
  EXPECT_EQ(io->write_requests() - requests_before, sizes.size());
  EXPECT_EQ(io->bytes_written() - bytes_before, expected.size());

  EXPECT_EQ(FileSize(fname), expected.size());
  EXPECT_TRUE(ReadFile(fname) == expected);
}

TEST_P(EnvTest, FlushMakesBytesVisible) {
  const std::string fname = base_ + "/flushed";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  std::string expected;
  for (size_t n : {size_t{1}, size_t{4096}, size_t{100}}) {
    const std::string chunk = Payload(n, expected.size());
    ASSERT_TRUE(wf->Append(chunk).ok());
    expected += chunk;
    // No Sync or Close: Flush alone must hand every byte to the filesystem.
    ASSERT_TRUE(wf->Flush().ok());
    EXPECT_EQ(FileSize(fname), expected.size());
    EXPECT_TRUE(ReadFile(fname) == expected);
  }
  ASSERT_TRUE(wf->Close().ok());
}

TEST_P(EnvTest, DestructorDrainsBuffer) {
  const std::string fname = base_ + "/dropped";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  const std::string expected = Payload(5000, 1);
  ASSERT_TRUE(wf->Append(expected).ok());
  wf.reset();  // Destroyed without Flush, Sync or Close.

  EXPECT_EQ(FileSize(fname), expected.size());
  EXPECT_TRUE(ReadFile(fname) == expected);
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MemEnv" : "PosixEnv";
                         });

TEST(MemEnvStats, IoAccounting) {
  auto env = NewMemEnv();
  IoStats* io = env->io_stats();
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env->NewWritableFile("/f", &wf).ok());
  const std::string payload(8192, 'x');
  wf->Append(payload);
  EXPECT_EQ(io->bytes_written(), 8192u);
  EXPECT_EQ(io->storage_bytes(), 8192u);
  EXPECT_EQ(io->peak_storage_bytes(), 8192u);
  const IoCostModel model = io->cost_model();
  // Writes are bandwidth-charged: exactly 2 pages, no request cost.
  EXPECT_DOUBLE_EQ(io->clock(), 2 * model.write_page_cost);

  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env->NewRandomAccessFile("/f", &rf).ok());
  char scratch[4096];
  Slice result;
  rf->Read(0, 4096, &result, scratch);
  EXPECT_EQ(io->bytes_read(), 4096u);
  // Reads pay latency + bandwidth for one page.
  EXPECT_DOUBLE_EQ(io->clock(), 2 * model.write_page_cost +
                                    model.read_request_cost +
                                    model.read_page_cost);

  ASSERT_TRUE(env->RemoveFile("/f").ok());
  EXPECT_EQ(io->storage_bytes(), 0u);
  EXPECT_EQ(io->peak_storage_bytes(), 8192u);  // Peak persists.
}

TEST(IoStatsTest, SequentialScopeDiscountsOnlyItsOwnThread) {
  IoStats stats;
  std::mutex mu;
  std::condition_variable cv;
  bool scoped = false;
  bool done = false;
  double merge_read = 0;
  // A merge thread holds a scope and reads one page at streaming cost.
  std::thread merge([&] {
    IoStats::SequentialScope scope(&stats);
    const double before = stats.clock();
    stats.RecordRead(4096);
    merge_read = stats.clock() - before;
    std::unique_lock<std::mutex> l(mu);
    scoped = true;
    cv.notify_all();
    cv.wait(l, [&] { return done; });
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return scoped; });
  }
  // A foreground read meanwhile pays random-read latency plus a page.
  const double before = stats.clock();
  stats.RecordRead(4096);
  EXPECT_DOUBLE_EQ(stats.clock() - before, 1.5);
  {
    std::lock_guard<std::mutex> l(mu);
    done = true;
  }
  cv.notify_all();
  merge.join();
  EXPECT_DOUBLE_EQ(merge_read, 0.05);
}

TEST(MemEnvStats, IsolatedBetweenInstances) {
  auto env1 = NewMemEnv();
  auto env2 = NewMemEnv();
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env1->NewWritableFile("/f", &wf).ok());
  wf->Append("data");
  EXPECT_FALSE(env2->FileExists("/f"));
  EXPECT_EQ(env2->io_stats()->bytes_written(), 0u);
}

}  // namespace
}  // namespace talus
