// The workloads of the served end-to-end benchmark (README.md in this
// directory), shared by e2e_loadgen (over the wire) and e2e_probe
// (in-process): key and value format, the per-connection op stream, and the
// checks every reply must pass.
#ifndef TALUS_BENCH_E2E_WORKLOAD_H_
#define TALUS_BENCH_E2E_WORKLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "workload/generator.h"

namespace talus {
namespace e2e {

enum class Op { kGet, kPut };
constexpr int kNumOps = 2;

inline const char* OpName(Op op) { return op == Op::kGet ? "get" : "put"; }

constexpr int kConnections = 4;
constexpr size_t kValueSize = 1000;  // + a 16 B key: ~1 KiB entries.
constexpr int kPreloadDepth = 64;
/// Every this many GETs, a value is compared byte for byte, not only by
/// its header.
constexpr uint64_t kFullValueCheckEvery = 32;

struct WorkloadSpec {
  const char* name;
  /// Preloaded key indices are [0, num_keys); a multiple of kConnections so
  /// every connection owns the same number of keys.
  uint64_t num_keys;
  workload::Distribution distribution;
  /// PUTs per second over all connections (OpStream); the other ops are
  /// GETs, as many as the closed loop completes.
  double puts_per_s;
  /// Share of GETs that ask for never-written keys.
  double absent_get_fraction;
  /// Requests each connection keeps in flight.
  int inflight;
  /// The op whose client latency the served.p50_us / p99_us report.
  Op primary;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  using workload::Distribution;
  static const std::vector<WorkloadSpec> specs = {
      {"write_heavy", 100000, Distribution::kUniform, 16000, 0.0, 16,
       Op::kPut},
      {"read_hot", 20000, Distribution::kZipfian, 3000, 0.0, 1, Op::kGet},
      {"read_cold", 200000, Distribution::kUniform, 2500, 0.25, 1, Op::kGet},
  };
  return specs;
}

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Key i is 16 bytes: big-endian SplitMix64(i), then big-endian i. The hash
/// prefix spreads keys over ShardRouter::DefaultBoundaries' uniform split
/// of the 8-byte prefix space; "user..." keys would all land on one shard.
inline uint64_t KeyHash(uint64_t i) { return Random::SplitMix(&i); }

inline std::string Key(uint64_t i) {
  std::string key(16, '\0');
  EncodeFixed64BE(&key[0], KeyHash(i));
  EncodeFixed64BE(&key[8], i);
  return key;
}

/// Parses the "v<index>.<version>|" header workload::MakeValue writes.
inline bool ParseValueHeader(const Slice& value, uint64_t* index,
                             uint64_t* version) {
  const std::string head(value.data(), value.size() < 48 ? value.size() : 48);
  if (head.empty() || head[0] != 'v') return false;
  char* end = nullptr;
  *index = std::strtoull(head.c_str() + 1, &end, 10);
  if (*end != '.') return false;
  *version = std::strtoull(end + 1, &end, 10);
  return *end == '|';
}

/// Per-key versions. Connection c is the only writer of the keys with
/// i % kConnections == c, so a key's versions are sent and acknowledged in
/// increasing order.
///
/// A read may miss a write acknowledged moments before the read was sent:
/// ShardedDB::Write returns once its sequence range is published, but
/// readers pin the global watermark, which passes the range only after
/// every lower range — another writer's, on any shard — is published too.
/// So the floor of a read is the newest version acknowledged at least
/// kVisibilityLag before it was sent; once writes stop, every
/// acknowledged version must be visible.
class VersionTable {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::milliseconds kVisibilityLag{100};

  explicit VersionTable(uint64_t num_keys)
      : sent_(new std::atomic<uint32_t>[num_keys]()),
        settled_(new std::atomic<uint32_t>[num_keys]()) {}

  /// The owner's next version of key i (the preload wrote version 0).
  uint32_t NextVersion(uint64_t i) {
    const uint32_t v = sent_[i].load(std::memory_order_relaxed) + 1;
    sent_[i].store(v, std::memory_order_release);
    return v;
  }
  /// The lowest version a read of key i sent now may return.
  uint32_t Floor(uint64_t i) const {
    return settled_[i].load(std::memory_order_acquire);
  }
  /// The highest version of key i sent so far.
  uint32_t Ceiling(uint64_t i) const {
    return sent_[i].load(std::memory_order_acquire);
  }

  /// One owner's acknowledged PUTs, oldest first, until they settle.
  class AckLog {
   public:
    void Ack(uint64_t i, uint32_t version) {
      log_.push_back({Clock::now(), i, version});
    }
    /// Raises the floors to every version acknowledged kVisibilityLag ago,
    /// or to every acknowledged version when `all`.
    void Settle(VersionTable* table, bool all = false) {
      const Clock::time_point horizon = Clock::now() - kVisibilityLag;
      while (!log_.empty() && (all || log_.front().time <= horizon)) {
        table->settled_[log_.front().index].store(
            log_.front().version, std::memory_order_release);
        log_.pop_front();
      }
    }

   private:
    struct Entry {
      Clock::time_point time;
      uint64_t index;
      uint32_t version;
    };
    std::deque<Entry> log_;
  };

 private:
  std::unique_ptr<std::atomic<uint32_t>[]> sent_;
  std::unique_ptr<std::atomic<uint32_t>[]> settled_;
};

/// One connection's request stream. PUTs are paced: the request issued at
/// time t is a PUT while fewer than puts_per_s / kConnections × (t − start)
/// have been issued, and a GET otherwise. So every run writes the same
/// amount whatever the host's speed, and the tree reaches the same shape.
/// The keys come from one random stream per op, so the same (workload,
/// seed, connection) always gives the same PUT keys and the same GET keys.
class OpStream {
 public:
  using Clock = std::chrono::steady_clock;

  struct Request {
    Op op;
    uint64_t index;
  };

  OpStream(const WorkloadSpec& spec, uint64_t seed, int conn)
      : spec_(spec),
        conn_(static_cast<uint64_t>(conn)),
        put_rnd_(seed * 0x9E3779B97F4A7C15ull + 2 * conn_ + 1),
        get_rnd_(seed * 0x9E3779B97F4A7C15ull + 2 * conn_ + 2),
        puts_per_s_(spec.puts_per_s / kConnections) {
    workload::KeySpaceSpec keys;
    keys.num_keys = spec.num_keys;
    keys.distribution = spec.distribution;
    picker_ = workload::NewKeyPicker(keys);
  }

  /// Starts the PUT schedule.
  void Start(Clock::time_point start) {
    start_ = start;
    puts_ = 0;
  }

  Request Next() {
    const double due =
        std::chrono::duration<double>(Clock::now() - start_).count() *
        puts_per_s_;
    if (static_cast<double>(puts_) < due) {
      puts_++;
      // Keep the picked key's neighbourhood but write only owned keys.
      const uint64_t pick = picker_->Next(&put_rnd_);
      return {Op::kPut, pick - pick % kConnections + conn_};
    }
    if (get_rnd_.NextDouble() < spec_.absent_get_fraction) {
      return {Op::kGet, spec_.num_keys + get_rnd_.Uniform(spec_.num_keys)};
    }
    return {Op::kGet, picker_->Next(&get_rnd_)};
  }

  /// A uniformly chosen key this connection owns.
  uint64_t OwnedKey() {
    return get_rnd_.Uniform(spec_.num_keys / kConnections) * kConnections +
           conn_;
  }

 private:
  const WorkloadSpec& spec_;
  const uint64_t conn_;
  Random put_rnd_;
  Random get_rnd_;
  const double puts_per_s_;
  std::unique_ptr<workload::KeyPicker> picker_;
  Clock::time_point start_ = Clock::now();
  uint64_t puts_ = 0;
};

/// Checks one value of key `index`: its header names the key, its version
/// lies in [floor, ceiling], and (when `full`) every byte matches.
inline bool CheckValue(uint64_t index, const Slice& value, uint32_t floor,
                       uint32_t ceiling, bool full, std::string* why) {
  uint64_t vi = 0, version = 0;
  if (!ParseValueHeader(value, &vi, &version)) {
    *why = "malformed value header";
  } else if (vi != index) {
    *why = "value of key " + std::to_string(vi) + " returned for key " +
           std::to_string(index);
  } else if (version < floor) {
    *why = "stale version " + std::to_string(version) + " < " +
           std::to_string(floor) + " of key " + std::to_string(index);
  } else if (version > ceiling) {
    *why = "version " + std::to_string(version) + " of key " +
           std::to_string(index) + " was never written";
  } else if (value.size() != kValueSize) {
    *why = "value of " + std::to_string(value.size()) + " bytes";
  } else if (full &&
             value != Slice(workload::MakeValue(index, version, kValueSize))) {
    *why = "value bytes differ for key " + std::to_string(index);
  } else {
    return true;
  }
  return false;
}

/// Checks a GET reply: a preloaded key returns its value, any other key
/// NotFound.
inline bool CheckGet(const WorkloadSpec& spec, uint64_t index,
                     const Status& s, const Slice& value, uint32_t floor,
                     uint32_t ceiling, bool full, std::string* why) {
  if (index >= spec.num_keys) {
    if (s.IsNotFound()) return true;
    *why = "absent key " + std::to_string(index) + ": " +
           (s.ok() ? std::string("found") : s.ToString());
    return false;
  }
  if (!s.ok()) {
    *why = "get " + std::to_string(index) + ": " + s.ToString();
    return false;
  }
  return CheckValue(index, value, floor, ceiling, full, why);
}

}  // namespace e2e
}  // namespace talus

#endif  // TALUS_BENCH_E2E_WORKLOAD_H_
