// e2e_probe: the traced run of the served end-to-end benchmark (README.md).
// It runs one workload's op stream in-process against a ShardedDB opened
// with example_talus_server's options, so each call's time and allocations
// can be split by layer without touching src/:
//
//   * every Put/Get is a span (ns resolution);
//   * DbOptions::env is a TimingEnv over Env::Default() that times and
//     counts every file open, Append, Sync and Read; an Env call made on a
//     thread inside a span becomes a child span, so the shard's self time
//     is the span minus its Env children;
//   * a replaced operator new counts allocations per thread, so each span
//     carries the allocations made on its thread;
//   * DbOptions::trace_file_path sends the engine's flush, compaction and
//     stall events to --trace; the sampled spans (1 in kSpanSample) are
//     appended to the same file after the store closes.
//
// The window alternates traced and untraced slices of the same op stream;
// probe.overhead_pct compares their client-thread CPU time per op. --kops
// paces the client threads to a target rate (the served run's throughput),
// so the engine sees the load it saw behind the server.
//
//   e2e_probe --workload=W --seed=S --db=DIR --trace=FILE
//             --warmup=SEC --seconds=SEC [--kops=RATE]
//
// Prints one JSON line of per-layer metrics.
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/write_batch.h"
#include "report.h"
#include "shard/sharded_db.h"
#include "workload.h"

namespace talus {
namespace e2e {

// Allocation counting: every thread counts its own allocations; a span
// reads its thread's counter at both ends. Off outside traced slices.
std::atomic<bool> g_count_allocs{false};
thread_local uint64_t t_allocs = 0;

}  // namespace e2e
}  // namespace talus

void* operator new(std::size_t n) {
  if (talus::e2e::g_count_allocs.load(std::memory_order_relaxed)) {
    talus::e2e::t_allocs++;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace talus {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kSpanSample = 64;
constexpr int kSlices = 4;  // Traced and untraced, alternating.

enum EnvCall { kOpen, kAppend, kSync, kRead, kNumEnvCalls };
const char* const kEnvCallNames[kNumEnvCalls] = {"open", "append", "sync",
                                                 "read"};

struct ChildSpan {
  EnvCall call;
  uint64_t start_ns;
  uint64_t dur_ns;
};

struct Span {
  Op op;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t env_ns;
  uint64_t allocs;
  uint32_t env_calls[kNumEnvCalls];
  size_t first_child;
  size_t num_children;
};

/// One client thread's trace. Env calls find it through t_trace while the
/// thread is inside a span.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<ChildSpan> children;
  std::vector<uint64_t> read_ns;  // Env reads made inside spans.
  Span* open = nullptr;
};
thread_local ThreadTrace* t_trace = nullptr;

const Clock::time_point g_origin = Clock::now();

uint64_t SinceOrigin(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_origin)
          .count());
}

/// Env calls by every thread, foreground and background.
struct EnvTotals {
  std::atomic<uint64_t> calls[kNumEnvCalls] = {};
  std::atomic<uint64_t> bytes[kNumEnvCalls] = {};
};

template <typename Fn>
Status TimeEnvCall(EnvTotals* totals, EnvCall call, uint64_t bytes, Fn fn) {
  const Clock::time_point start = Clock::now();
  const Status s = fn();
  const Clock::time_point end = Clock::now();
  totals->calls[call].fetch_add(1, std::memory_order_relaxed);
  totals->bytes[call].fetch_add(bytes, std::memory_order_relaxed);
  ThreadTrace* trace = t_trace;
  if (trace != nullptr && trace->open != nullptr) {
    const uint64_t ns = SinceOrigin(end) - SinceOrigin(start);
    Span* span = trace->open;
    span->env_ns += ns;
    span->env_calls[call]++;
    span->num_children++;
    trace->children.push_back({call, SinceOrigin(start), ns});
    if (call == kRead) trace->read_ns.push_back(ns);
  }
  return s;
}

class TimedWritableFile final : public WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> base, EnvTotals* totals)
      : base_(std::move(base)), totals_(totals) {}
  Status Append(const Slice& data) override {
    return TimeEnvCall(totals_, kAppend, data.size(),
                       [&] { return base_->Append(data); });
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    return TimeEnvCall(totals_, kSync, 0, [&] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  EnvTotals* const totals_;
};

class TimedRandomAccessFile final : public RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        EnvTotals* totals)
      : base_(std::move(base)), totals_(totals) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return TimeEnvCall(totals_, kRead, n, [&] {
      return base_->Read(offset, n, result, scratch);
    });
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  EnvTotals* const totals_;
};

/// Env that times and counts every call the engine makes into `base`.
class TimingEnv final : public Env {
 public:
  explicit TimingEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    const Status s = TimeEnvCall(&totals_, kOpen, 0, [&] {
      return base_->NewWritableFile(fname, &file);
    });
    if (s.ok()) {
      *result = std::make_unique<TimedWritableFile>(std::move(file), &totals_);
    }
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    const Status s = TimeEnvCall(&totals_, kOpen, 0, [&] {
      return base_->NewRandomAccessFile(fname, &file);
    });
    if (s.ok()) {
      *result =
          std::make_unique<TimedRandomAccessFile>(std::move(file), &totals_);
    }
    return s;
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return TimeEnvCall(&totals_, kOpen, 0, [&] {
      return base_->NewSequentialFile(fname, result);
    });
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  IoStats* io_stats() override { return base_->io_stats(); }
  uint64_t TotalFileBytes(const std::string& dir) override {
    return base_->TotalFileBytes(dir);
  }

  /// Calls and bytes since open, by kind.
  void Totals(uint64_t calls[kNumEnvCalls], uint64_t bytes[kNumEnvCalls]) {
    for (int i = 0; i < kNumEnvCalls; i++) {
      calls[i] = totals_.calls[i].load(std::memory_order_relaxed);
      bytes[i] = totals_.bytes[i].load(std::memory_order_relaxed);
    }
  }

 private:
  Env* const base_;
  EnvTotals totals_;
};

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// One client thread: its op stream, its trace, and what it did.
struct Client {
  Client(const WorkloadSpec& spec, uint64_t seed, int conn)
      : index(conn), stream(spec, seed, conn) {}

  const int index;
  OpStream stream;
  VersionTable::AckLog acks;
  ThreadTrace trace;
  uint64_t ops[2] = {0, 0};     // Untraced, traced slices.
  uint64_t cpu_ns[2] = {0, 0};  // Thread CPU time in those slices.
  uint64_t put_bytes_traced = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t gets_checked = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    if (failed++ == 0) first_error = why;
  }
};

class Probe {
 public:
  Probe(const WorkloadSpec& spec, shard::ShardedDB* db)
      : spec_(spec), db_(db), versions_(spec.num_keys) {}

  /// Writes version 0 of the keys `c` owns, kPreloadDepth per batch — the
  /// batches the server's coalescing builds from a pipelined preload.
  void Preload(Client* c) {
    WriteBatch batch;
    for (uint64_t i = static_cast<uint64_t>(c->index); i < spec_.num_keys;
         i += kConnections) {
      batch.Put(Key(i), workload::MakeValue(i, 0, kValueSize));
      if (batch.Count() == kPreloadDepth ||
          i + kConnections >= spec_.num_keys) {
        const Status s = db_->Write(batch);
        c->attempted++;
        if (!s.ok()) c->Fail("preload: " + s.ToString());
        batch.Clear();
      }
    }
  }

  /// Issues c's op stream until `end`; no more than `per_thread_ops_per_s`
  /// when it is positive. Spans are recorded when `traced`.
  void RunSlice(Client* c, Clock::time_point end, double per_thread_ops_per_s,
                bool traced, bool measured) {
    t_trace = traced ? &c->trace : nullptr;
    const Clock::time_point start = Clock::now();
    const uint64_t cpu_start = ThreadCpuNs();
    uint64_t issued = 0;
    for (Clock::time_point now = start; now < end; now = Clock::now()) {
      if (per_thread_ops_per_s > 0) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(issued) /
                            per_thread_ops_per_s));
        if (due > now) {
          std::this_thread::sleep_until(std::min(due, end));
          continue;
        }
      }
      c->acks.Settle(&versions_);
      Execute(c, c->stream.Next(), traced);
      issued++;
    }
    t_trace = nullptr;
    if (measured) {
      c->ops[traced] += issued;
      c->cpu_ns[traced] += ThreadCpuNs() - cpu_start;
    }
  }

 private:
  void Execute(Client* c, const OpStream::Request& req, bool traced) {
    std::string key = Key(req.index);
    std::string value;
    uint32_t version = 0;
    uint32_t floor = 0;
    if (req.op == Op::kPut) {
      version = versions_.NextVersion(req.index);
      value = workload::MakeValue(req.index, version, kValueSize);
    } else if (req.index < spec_.num_keys) {
      floor = versions_.Floor(req.index);
    }

    ThreadTrace* trace = traced ? &c->trace : nullptr;
    if (trace != nullptr) {
      trace->spans.push_back(Span{req.op, 0, 0, 0, 0, {0, 0, 0, 0},
                                  trace->children.size(), 0});
      trace->open = &trace->spans.back();
    }
    const uint64_t allocs_before = t_allocs;
    const Clock::time_point start = Clock::now();
    const Status s = req.op == Op::kPut ? db_->Put(key, value)
                                        : db_->Get(key, &value);
    const Clock::time_point end = Clock::now();
    if (trace != nullptr) {
      Span* span = trace->open;
      span->start_ns = SinceOrigin(start);
      span->dur_ns = SinceOrigin(end) - span->start_ns;
      span->allocs = t_allocs - allocs_before;
      trace->open = nullptr;
      if (req.op == Op::kPut) c->put_bytes_traced += key.size() + kValueSize;
    }

    std::string why;
    bool ok = false;
    if (req.op == Op::kPut) {
      ok = s.ok();
      if (ok) c->acks.Ack(req.index, version);
      else why = "put: " + s.ToString();
    } else {
      ok = CheckGet(spec_, req.index, s, value, floor,
                    req.index < spec_.num_keys ? versions_.Ceiling(req.index)
                                               : 0,
                    ++c->gets_checked % kFullValueCheckEvery == 0, &why);
    }
    c->attempted++;
    if (!ok) c->Fail(why);
  }

  const WorkloadSpec& spec_;
  shard::ShardedDB* const db_;
  VersionTable versions_;
};

template <typename Fn>
void OnEveryClient(std::vector<std::unique_ptr<Client>>* clients, Fn fn) {
  std::vector<std::thread> threads;
  for (auto& c : *clients) threads.emplace_back([&fn, &c] { fn(c.get()); });
  for (auto& t : threads) t.join();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// "merge=<leveling|tiering> T=<ratio>" of shard 0's growth policy, from
/// the design line of talus.model (run.py reads the served one the same
/// way).
std::string PolicyDesign(shard::ShardedDB* db) {
  std::string model;
  db->GetProperty("talus.model", &model);
  const size_t begin = model.find("design: ");
  if (begin == std::string::npos) return "";
  const size_t start = begin + 8;
  const size_t end = model.find(" levels=", start);
  return model.substr(start, end == std::string::npos ? end : end - start);
}

/// Appends every kSpanSample-th span of every thread, with its Env
/// children, to the trace file as JSON lines.
bool WriteSampledSpans(const std::string& path, const std::string& workload,
                       const std::vector<std::unique_ptr<Client>>& clients) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const auto& c : clients) {
    const ThreadTrace& t = c->trace;
    for (size_t i = 0; i < t.spans.size(); i += kSpanSample) {
      const Span& s = t.spans[i];
      std::string children;
      for (size_t k = 0; k < s.num_children; k++) {
        const ChildSpan& ch = t.children[s.first_child + k];
        children += std::string(k == 0 ? "" : ",") + "{\"env\":\"" +
                    kEnvCallNames[ch.call] +
                    "\",\"start_ns\":" + std::to_string(ch.start_ns) +
                    ",\"dur_ns\":" + std::to_string(ch.dur_ns) + "}";
      }
      std::fprintf(f,
                   "{\"span\":\"shard.%s\",\"workload\":\"%s\",\"thread\":%d,"
                   "\"start_ns\":%llu,\"dur_ns\":%llu,\"self_ns\":%llu,"
                   "\"allocs\":%llu,\"children\":[%s]}\n",
                   OpName(s.op), workload.c_str(), c->index,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns),
                   static_cast<unsigned long long>(s.dur_ns - s.env_ns),
                   static_cast<unsigned long long>(s.allocs),
                   children.c_str());
    }
  }
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const std::string name = FlagValue(argc, argv, "workload", "");
  const WorkloadSpec* spec = FindWorkload(name);
  const std::string db_path = FlagValue(argc, argv, "db", "");
  const std::string trace_path = FlagValue(argc, argv, "trace", "");
  if (spec == nullptr || db_path.empty() || trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_probe --workload=W --seed=S --db=DIR "
                 "--trace=FILE --warmup=SEC --seconds=SEC [--kops=RATE]\n");
    return 2;
  }
  const uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const double warmup = std::atof(FlagValue(argc, argv, "warmup", "0").c_str());
  const double seconds =
      std::atof(FlagValue(argc, argv, "seconds", "1").c_str());
  const double per_thread_ops_per_s =
      std::atof(FlagValue(argc, argv, "kops", "0").c_str()) * 1000 /
      kConnections;

  // The engine example_talus_server opens: DbOptions defaults plus the
  // policy, execution mode and shard count it sets.
  TimingEnv env(Env::Default());
  DbOptions opts;
  opts.env = &env;
  opts.path = db_path;
  opts.policy = GrowthPolicyConfig::Vertiorizon(6);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.shard_count = 4;
  opts.trace_file_path = trace_path;
  env.CreateDirIfMissing(db_path);
  std::unique_ptr<shard::ShardedDB> db;
  Status s = shard::ShardedDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", db_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  Probe probe(*spec, db.get());
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kConnections; i++) {
    clients.push_back(std::make_unique<Client>(*spec, seed, i));
  }
  OnEveryClient(&clients, [&](Client* c) { probe.Preload(c); });
  const auto after = [](double sec) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(sec));
  };
  const Clock::time_point warm_start = Clock::now();
  for (auto& c : clients) c->stream.Start(warm_start);
  const Clock::time_point warm_end = after(warmup);
  OnEveryClient(&clients, [&](Client* c) {
    probe.RunSlice(c, warm_end, per_thread_ops_per_s, false, false);
  });

  uint64_t calls[kNumEnvCalls], bytes[kNumEnvCalls];
  uint64_t traced_calls[kNumEnvCalls] = {}, traced_bytes[kNumEnvCalls] = {};
  double traced_s = 0;
  for (int slice = 0; slice < kSlices; slice++) {
    const bool traced = slice % 2 == 0;
    g_count_allocs.store(traced, std::memory_order_relaxed);
    env.Totals(calls, bytes);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = after(seconds / kSlices);
    OnEveryClient(&clients, [&](Client* c) {
      probe.RunSlice(c, end, per_thread_ops_per_s, traced, true);
    });
    if (!traced) continue;
    traced_s += std::chrono::duration<double>(Clock::now() - start).count();
    uint64_t calls_after[kNumEnvCalls], bytes_after[kNumEnvCalls];
    env.Totals(calls_after, bytes_after);
    for (int i = 0; i < kNumEnvCalls; i++) {
      traced_calls[i] += calls_after[i] - calls[i];
      traced_bytes[i] += bytes_after[i] - bytes[i];
    }
  }

  const std::string design = PolicyDesign(db.get());
  const size_t shards = db->shard_count();
  db.reset();

  // Aggregate every span.
  std::vector<uint64_t> primary_ns, primary_self_ns, read_ns;
  uint64_t primary_allocs = 0, gets = 0, get_reads = 0, puts = 0,
           put_appends = 0, put_bytes = 0, ops[2] = {0, 0}, cpu[2] = {0, 0},
           attempted = 0, failed = 0;
  std::string first_error;
  for (const auto& c : clients) {
    for (const Span& sp : c->trace.spans) {
      if (sp.op == spec->primary) {
        primary_ns.push_back(sp.dur_ns);
        primary_self_ns.push_back(sp.dur_ns - sp.env_ns);
        primary_allocs += sp.allocs;
      }
      if (sp.op == Op::kGet) {
        gets++;
        get_reads += sp.env_calls[kRead];
      } else if (sp.op == Op::kPut) {
        puts++;
        put_appends += sp.env_calls[kAppend];
      }
    }
    read_ns.insert(read_ns.end(), c->trace.read_ns.begin(),
                   c->trace.read_ns.end());
    put_bytes += c->put_bytes_traced;
    for (int t = 0; t < 2; t++) {
      ops[t] += c->ops[t];
      cpu[t] += c->cpu_ns[t];
    }
    attempted += c->attempted;
    failed += c->failed;
    if (first_error.empty()) first_error = c->first_error;
  }
  if (!WriteSampledSpans(trace_path, spec->name, clients)) {
    std::fprintf(stderr, "cannot append spans to %s\n", trace_path.c_str());
    return 1;
  }
  std::sort(primary_ns.begin(), primary_ns.end());
  std::sort(primary_self_ns.begin(), primary_self_ns.end());
  std::sort(read_ns.begin(), read_ns.end());
  const double cpu_per_op[2] = {Ratio(cpu[0], ops[0]), Ratio(cpu[1], ops[1])};

  const std::pair<const char*, double> metrics[] = {
      {"shard.p50_us", Percentile(primary_ns, 50) / 1e3},
      {"shard.p99_us", Percentile(primary_ns, 99) / 1e3},
      {"shard.self_p50_us", Percentile(primary_self_ns, 50) / 1e3},
      {"shard.allocs_per_op", Ratio(primary_allocs, primary_ns.size())},
      {"env.reads_per_get", Ratio(get_reads, gets)},
      {"env.read_p50_us", Percentile(read_ns, 50) / 1e3},
      {"env.appends_per_put", Ratio(put_appends, puts)},
      {"env.bytes_written_per_user_byte",
       Ratio(traced_bytes[kAppend], put_bytes)},
      {"env.syncs_per_s", Ratio(traced_calls[kSync], traced_s)},
      {"probe.overhead_pct", 100 * (Ratio(cpu_per_op[1], cpu_per_op[0]) - 1)},
  };
  std::string out;
  for (const auto& m : metrics) {
    out += std::string(out.empty() ? "" : ",") + "\"" + m.first +
           "\":" + JsonNumber(m.second);
  }
  std::printf(
      "{\"workload\":\"%s\",\"spans\":%zu,\"kops\":%s,\"design\":%s,"
      "\"shards\":%zu,\"attempted\":%llu,\"failed\":%llu,\"error\":%s,"
      "\"metrics\":{%s}}\n",
      spec->name, primary_ns.size(),
      JsonNumber(Ratio(ops[1], traced_s) / 1e3).c_str(),
      JsonString(design).c_str(), shards,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      JsonString(first_error).c_str(), out.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace talus

int main(int argc, char** argv) { return talus::e2e::Main(argc, argv); }
