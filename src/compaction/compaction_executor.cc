#include "compaction/compaction_executor.h"

#include <cassert>
#include <condition_variable>

#include "table/merging_iterator.h"
#include "table/run_iterator.h"

namespace talus {
namespace compaction {

namespace {

// Forward-only clip of a child iterator to the user-key range [begin, end).
// Boundaries are whole user keys, so every version of a key stays on one
// side of a cut and the sorted-output shadow/tombstone logic remains local
// to a subcompaction.
class ClippingIterator final : public Iterator {
 public:
  ClippingIterator(std::unique_ptr<Iterator> base, bool has_begin,
                   std::string begin, bool has_end, std::string end)
      : base_(std::move(base)),
        has_begin_(has_begin),
        has_end_(has_end),
        end_(std::move(end)) {
    if (has_begin_) {
      // Seek target covering every version of `begin`.
      AppendInternalKey(&begin_target_, Slice(begin), kMaxSequenceNumber,
                        kValueTypeForSeek);
    }
  }

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    if (has_begin_) {
      base_->Seek(Slice(begin_target_));
    } else {
      base_->SeekToFirst();
    }
    Clamp();
  }

  void Seek(const Slice& target) override {
    if (has_begin_ &&
        ExtractUserKey(target).compare(ExtractUserKey(Slice(begin_target_))) <
            0) {
      base_->Seek(Slice(begin_target_));
    } else {
      base_->Seek(target);
    }
    Clamp();
  }

  void Next() override {
    assert(valid_);
    base_->Next();
    Clamp();
  }

  // The merge stage is strictly forward.
  void SeekToLast() override { valid_ = false; }
  void Prev() override { assert(false); }

  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  void Clamp() {
    valid_ = base_->Valid() &&
             (!has_end_ || ExtractUserKey(base_->key()).compare(Slice(end_)) <
                               0);
  }

  std::unique_ptr<Iterator> base_;
  bool has_begin_ = false, has_end_ = false;
  std::string begin_target_, end_;
  bool valid_ = false;
};

// True when file may hold user keys in [begin, end).
bool FileOverlapsRange(const FileMeta& f, bool has_begin, const Slice& begin,
                       bool has_end, const Slice& end) {
  if (has_begin && f.largest.user_key().compare(begin) < 0) return false;
  if (has_end && f.smallest.user_key().compare(end) >= 0) return false;
  return true;
}

}  // namespace

CompactionExecutor::CompactionExecutor(OutputShape shape,
                                       read::TableCache* table_cache)
    : shape_(std::move(shape)), table_cache_(table_cache) {}

Status CompactionExecutor::Run(const CompactionPlan& plan,
                               const ExtraInputFactory& extra,
                               Result* result) {
  *result = Result();
  if (plan.empty()) return Status::OK();

  // Materialize the key ranges: N boundaries → N+1 subcompactions. State
  // lives behind a shared_ptr so a helper task drained after a pool
  // shutdown finds closed state instead of a dead stack frame.
  struct FanoutState {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> next{0};
    size_t active = 0;
    bool closed = false;
    std::vector<Subcompaction> subs;
  };
  auto state = std::make_shared<FanoutState>();
  state->subs.resize(plan.boundaries.size() + 1);
  for (size_t i = 0; i < state->subs.size(); i++) {
    Subcompaction& sub = state->subs[i];
    if (i > 0) {
      sub.has_begin = true;
      sub.begin = plan.boundaries[i - 1];
    }
    if (i < plan.boundaries.size()) {
      sub.has_end = true;
      sub.end = plan.boundaries[i];
    }
  }
  const size_t n = state->subs.size();
  result->fanout = n;
  subs_scheduled_.fetch_add(n, std::memory_order_relaxed);

  auto drain = [this, state, &plan, &extra] {
    for (size_t i = state->next.fetch_add(1); i < state->subs.size();
         i = state->next.fetch_add(1)) {
      RunSubcompaction(plan, extra, &state->subs[i]);
    }
  };

  if (n > 1 && pool_ != nullptr) {
    // Fan out: helpers drain the same range queue as the coordinator, so
    // the coordinator alone guarantees completion — a helper that never
    // gets a worker (tiny pool) finds the queue empty and exits. Helpers
    // pass a gate before touching the plan: once the coordinator closes the
    // state, a late-dispatched task returns immediately rather than
    // touching a plan that no longer exists.
    const size_t helpers = std::min(n - 1, pool_->num_threads());
    for (size_t h = 0; h < helpers; h++) {
      pool_->Submit([state, drain] {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (state->closed) return;
          state->active++;
        }
        drain();
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->active--;
        }
        state->cv.notify_all();
      });
    }
    drain();
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] { return state->active == 0; });
    state->closed = true;
  } else {
    drain();
    state->closed = true;
  }

  // Concatenate in range order: ranges are key-disjoint and ascending, so
  // the concatenation is globally sorted. Outputs are returned even when a
  // range failed, so the caller can delete the orphans.
  Status status;
  for (auto& sub : state->subs) {
    for (auto& f : sub.outputs) {
      result->bytes_written += f->file_size;
      result->outputs.push_back(std::move(f));
    }
    result->bytes_read += sub.bytes_read;
    if (status.ok() && !sub.status.ok()) status = sub.status;
  }
  if (extra) {
    flush_merges_.fetch_add(1, std::memory_order_relaxed);
  } else {
    compactions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(fanout_mu_);
    fanout_hist_.Add(static_cast<double>(n));
  }
  return status;
}

void CompactionExecutor::RunSubcompaction(const CompactionPlan& plan,
                                          const ExtraInputFactory& extra,
                                          Subcompaction* sub) {
  subs_active_.fetch_add(1, std::memory_order_relaxed);

  const Slice begin(sub->begin), end(sub->end);
  auto open = [this](uint64_t n) { return table_cache_->GetReader(n); };
  auto clip = [&](std::unique_ptr<Iterator> base) {
    if (!sub->has_begin && !sub->has_end) return base;
    return std::unique_ptr<Iterator>(new ClippingIterator(
        std::move(base), sub->has_begin, sub->begin, sub->has_end, sub->end));
  };

  // Children newest-first mirrors the pre-pipeline merge order: the extra
  // input (flush memtable), then the request's inputs, then the target
  // overlaps. SST inputs stream past the block cache: the merge reads each
  // block once, and caching it would only evict blocks Gets are using.
  std::vector<std::unique_ptr<Iterator>> children;
  if (extra) children.push_back(clip(extra()));
  auto add_run = [&](const std::vector<FileMetaPtr>& files) {
    std::vector<FileMetaPtr> in_range;
    for (const auto& f : files) {
      if (FileOverlapsRange(*f, sub->has_begin, begin, sub->has_end, end)) {
        in_range.push_back(f);
      }
    }
    if (!in_range.empty()) {
      children.push_back(clip(std::make_unique<RunIterator>(
          std::move(in_range), open, SstReader::BlockFetch::kStream)));
    }
  };
  for (const auto& ri : plan.inputs) add_run(ri.files);
  add_run(plan.target_overlaps);

  if (!children.empty()) {
    auto merged =
        NewMergingIterator(InternalKeyComparator(), std::move(children));
    merged->SeekToFirst();
    OutputSpec spec;
    spec.output_level = plan.output_level;
    spec.drop_tombstones = plan.drop_tombstones;
    spec.bits_per_key = plan.bits_per_key;
    spec.smallest_snapshot = plan.smallest_snapshot;
    sub->status = WriteSortedOutput(shape_, merged.get(), spec,
                                    &sub->bytes_read, &sub->outputs);
  }

  subs_active_.fetch_sub(1, std::memory_order_relaxed);
  subs_completed_.fetch_add(1, std::memory_order_relaxed);
}

metrics::SubcompactionStats CompactionExecutor::GetStats() const {
  metrics::SubcompactionStats stats;
  stats.scheduled = subs_scheduled_.load(std::memory_order_relaxed);
  stats.completed = subs_completed_.load(std::memory_order_relaxed);
  stats.active = subs_active_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.flush_merges = flush_merges_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(fanout_mu_);
    if (fanout_hist_.Count() > 0) {
      stats.fanout_avg = fanout_hist_.Average();
      stats.fanout_p50 = fanout_hist_.Median();
      stats.fanout_max = fanout_hist_.Max();
    }
  }
  return stats;
}

}  // namespace compaction
}  // namespace talus
