#include "obs/stats_snapshotter.h"

#include <utility>

namespace talus {
namespace obs {

Status StatsSnapshotter::Open(exec::ThreadPool* pool, Options options,
                              SampleFn fn,
                              std::unique_ptr<StatsSnapshotter>* out) {
  std::FILE* file = nullptr;
  if (!options.jsonl_path.empty()) {
    file = std::fopen(options.jsonl_path.c_str(), "w");
    if (file == nullptr) {
      return Status::IOError("cannot open stats snapshot file",
                             options.jsonl_path);
    }
  }
  out->reset(
      new StatsSnapshotter(pool, std::move(options), std::move(fn), file));
  return Status::OK();
}

StatsSnapshotter::StatsSnapshotter(exec::ThreadPool* pool, Options options,
                                   SampleFn fn, std::FILE* file)
    : pool_(pool),
      options_(std::move(options)),
      fn_(std::move(fn)),
      file_(file) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

StatsSnapshotter::~StatsSnapshotter() {
  Stop();
  if (file_ != nullptr) std::fclose(file_);
}

void StatsSnapshotter::SampleAsync() {
  // Skip the tick if the previous sample is still running: a stalled
  // sampler must not pile jobs onto the shared pool.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (sample_in_flight_ || stopped_) return;
    sample_in_flight_ = true;
  }
  if (pool_ == nullptr || !pool_->Submit([this] { DoSample(); })) DoSample();
}

void StatsSnapshotter::Stop() {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Closing sample, inline on the caller's thread once a pool-submitted
  // sample (which reads the owner's state) has finished — the owner calls
  // Stop while its state is intact.
  SampleNow();
}

void StatsSnapshotter::DoSample() {
  std::string line = fn_();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < options_.ring_capacity) {
      ring_.push_back(std::move(line));
    } else {
      ring_[ring_next_ % options_.ring_capacity] = line;
    }
    ring_next_++;
    total_samples_++;
    if (file_ != nullptr) {
      const std::string& stored =
          ring_.size() < options_.ring_capacity
              ? ring_.back()
              : ring_[(ring_next_ - 1) % options_.ring_capacity];
      std::fwrite(stored.data(), 1, stored.size(), file_);
      std::fputc('\n', file_);
      std::fflush(file_);
    }
  }
  std::lock_guard<std::mutex> inflight_lock(inflight_mu_);
  sample_in_flight_ = false;
  inflight_cv_.notify_all();
}

void StatsSnapshotter::SampleNow() {
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return !sample_in_flight_; });
    sample_in_flight_ = true;
  }
  DoSample();
}

std::vector<std::string> StatsSnapshotter::RingContents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.ring_capacity) {
    out = ring_;
  } else {
    for (size_t i = 0; i < ring_.size(); i++) {
      out.push_back(ring_[(ring_next_ + i) % options_.ring_capacity]);
    }
  }
  return out;
}

std::string StatsSnapshotter::RingText() const {
  std::string out;
  for (const std::string& line : RingContents()) out += line + "\n";
  return out;
}

uint64_t StatsSnapshotter::TotalSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

}  // namespace obs
}  // namespace talus
