// POSIX Env: the engine against real files. The served engine
// (examples/talus_server.cpp) and its end-to-end benchmark run on it, and
// tests use it to check that the storage format round-trips through an
// actual filesystem. The paper-figure benches use MemEnv for determinism.
//
// Writable files coalesce appends in a 64 KiB buffer, so an SST costs one
// write() per 64 KiB rather than one per block. IoStats is still charged
// once per logical Append (DESIGN.md §4).
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "env/env.h"

namespace talus {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::IOError(context, std::strerror(err));
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd, IoStats* stats)
      : fname_(std::move(fname)), fd_(fd), stats_(stats) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      FlushBuffer();
      ::close(fd_);
    }
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t n = data.size();
    Status s;
    if (n >= kBufferSize) {
      s = FlushBuffer();
      if (s.ok()) s = WriteFully(p, n);
    } else {
      const size_t fit = std::min(n, kBufferSize - pos_);
      std::memcpy(buf_ + pos_, p, fit);
      pos_ += fit;
      if (pos_ == kBufferSize) {
        s = FlushBuffer();
        if (s.ok()) {
          std::memcpy(buf_, p + fit, n - fit);
          pos_ = n - fit;
        }
      }
    }
    if (!s.ok()) return s;
    stats_->RecordWrite(data.size());
    stats_->RecordStorageGrowth(data.size());
    return Status::OK();
  }
  Status Flush() override { return FlushBuffer(); }
  Status Sync() override {
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (::fsync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }
  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) s = PosixError(fname_, errno);
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 64 << 10;

  // Writes out the buffered bytes. The buffer is empty afterwards even on
  // failure, as in LevelDB: a failed write leaves the file in an unknown
  // state either way.
  Status FlushBuffer() {
    Status s = WriteFully(buf_, pos_);
    pos_ = 0;
    return s;
  }

  Status WriteFully(const char* p, size_t left) {
    while (left > 0) {
      ssize_t done = ::write(fd_, p, left);
      if (done < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += done;
      left -= done;
    }
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  IoStats* stats_;
  size_t pos_ = 0;  // Bytes of buf_ not yet written to fd_.
  char buf_[kBufferSize];
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t size,
                        IoStats* stats)
      : fname_(std::move(fname)), fd_(fd), size_(size), stats_(stats) {}
  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    *result = Slice(scratch, static_cast<size_t>(r));
    stats_->RecordRead(static_cast<uint64_t>(r));
    return Status::OK();
  }
  uint64_t Size() const override { return size_; }

 private:
  std::string fname_;
  int fd_;
  uint64_t size_;
  IoStats* stats_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd, IoStats* stats)
      : fname_(std::move(fname)), fd_(fd), stats_(stats) {}
  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      stats_->RecordRead(static_cast<uint64_t>(r));
      return Status::OK();
    }
  }
  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
  IoStats* stats_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd, &stats_);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size), &stats_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd, &stats_);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return PosixError(dir, errno);
    struct dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") result->push_back(name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    struct stat st;
    uint64_t size = (::stat(fname.c_str(), &st) == 0)
                        ? static_cast<uint64_t>(st.st_size)
                        : 0;
    if (::unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    stats_.RecordStorageShrink(size);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) return PosixError(fname, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  IoStats* io_stats() override { return &stats_; }

  uint64_t TotalFileBytes(const std::string& dir) override {
    std::vector<std::string> children;
    if (!GetChildren(dir, &children).ok()) return 0;
    uint64_t total = 0;
    for (const auto& c : children) {
      uint64_t sz = 0;
      if (GetFileSize(dir + "/" + c, &sz).ok()) total += sz;
    }
    return total;
  }

 private:
  IoStats stats_;
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

}  // namespace talus
