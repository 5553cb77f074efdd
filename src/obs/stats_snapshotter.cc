#include "obs/stats_snapshotter.h"

#include <chrono>
#include <utility>

namespace talus {
namespace obs {

StatsSnapshotter::StatsSnapshotter(exec::ThreadPool* pool, Options options,
                                   SampleFn fn)
    : pool_(pool), options_(std::move(options)), fn_(std::move(fn)) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  if (!options_.jsonl_path.empty()) {
    file_ = std::fopen(options_.jsonl_path.c_str(), "w");
  }
}

StatsSnapshotter::~StatsSnapshotter() {
  Stop();
  if (file_ != nullptr) std::fclose(file_);
}

void StatsSnapshotter::Start() {
  std::lock_guard<std::mutex> lock(timer_mu_);
  if (started_ || stopping_) return;
  started_ = true;
  timer_ = std::thread([this] { TimerLoop(); });
}

void StatsSnapshotter::Stop() {
  bool take_final = false;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    take_final = started_ && !final_sample_taken_;
    final_sample_taken_ = true;
    stopping_ = true;
    timer_cv_.notify_all();
  }
  if (timer_.joinable()) timer_.join();
  // A pool-submitted sample may still be running; it must finish before
  // the owner destroys the state it reads.
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return !sample_in_flight_; });
  }
  // Closing sample: a run shorter than the interval still leaves one, and
  // the series always ends with the final state. Runs inline on the
  // caller's thread — the owner calls Stop while its state is intact.
  if (take_final) SampleNow();
}

void StatsSnapshotter::TimerLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.interval_ms == 0
                                    ? 1000
                                    : options_.interval_ms);
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!stopping_) {
    if (timer_cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      break;
    }
    // Skip the tick if the previous sample is still running: a stalled
    // sampler must not pile jobs onto the shared pool.
    {
      std::lock_guard<std::mutex> inflight_lock(inflight_mu_);
      if (sample_in_flight_) continue;
      sample_in_flight_ = true;
    }
    lock.unlock();
    bool submitted =
        pool_ != nullptr && pool_->Submit([this] { DoSample(); });
    if (!submitted) DoSample();
    lock.lock();
  }
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
