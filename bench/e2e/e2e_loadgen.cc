// e2e_loadgen: drives one workload of the served end-to-end benchmark
// (README.md) against a running example_talus_server over the wire
// protocol — kConnections connections, one thread each — and checks every
// reply (workload.h).
//
//   e2e_loadgen --port=N --workload=W --seed=S --mode=preload
//     Writes version 0 of every key with kPreloadDepth requests in flight
//     per connection and prints one JSON line.
//   e2e_loadgen --port=N --workload=W --seed=S --mode=run
//               --warmup=SEC --seconds=SEC [--shift-expected-version]
//     Runs the closed loop untimed for --warmup seconds, prints "ready" and
//     waits for a line on stdin; runs the timed window, prints "done" and
//     waits for a line on stdin again (the caller reads the server's
//     counters at both points); then reads back a sample of the keys each
//     connection wrote and prints one JSON line of results, with the
//     window's latencies by op.
//     --shift-expected-version raises every expected version by one, so a
//     correct server fails the checks (the benchmark's self-test).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "server/client.h"
#include "workload.h"

namespace talus {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMaxErrors = 5;
constexpr size_t kVerifyRecent = 256;  // Last keys written, per connection.
constexpr size_t kVerifyRandom = 256;  // Uniform owned keys, per connection.

struct Pending {
  Op op;
  uint64_t index;
  uint64_t id;
  uint32_t version;                // PUT: the version sent.
  uint32_t floor;                  // GET: lowest version it may return.
  Clock::time_point sent;
};

struct Connection {
  Connection(const WorkloadSpec& spec, uint64_t seed, int conn)
      : index(conn), stream(spec, seed, conn) {}

  const int index;
  server::Client client;
  OpStream stream;
  // Timed-window latencies by Op.
  std::array<std::vector<uint64_t>, kNumOps> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t gets_checked = 0;
  std::vector<std::string> errors;
  VersionTable::AckLog acks;
  std::deque<uint64_t> recent_writes;
  bool broken = false;

  void Fail(const std::string& why) {
    failed++;
    if (errors.size() < kMaxErrors) errors.push_back(why);
  }
};

class LoadGen {
 public:
  LoadGen(const WorkloadSpec& spec, uint32_t shift)
      : spec_(spec), shift_(shift), versions_(spec.num_keys) {}

  /// Closed loop on one connection until `deadline`, then drains its
  /// in-flight requests. Latencies are kept only when `timed`.
  void RunPhase(Connection* c, Clock::time_point deadline, bool timed) {
    std::deque<Pending> pending;
    while (!c->broken) {
      while (pending.size() < static_cast<size_t>(spec_.inflight) &&
             Clock::now() < deadline) {
        c->acks.Settle(&versions_);
        pending.push_back(Issue(c));
        if (!c->client.Flush().ok()) c->broken = true;
      }
      if (pending.empty() || c->broken) break;
      Complete(c, pending.front(), timed);
      pending.pop_front();
    }
    if (c->broken) c->Fail("connection lost");
  }

  /// Writes version 0 of every key the connection owns.
  void Preload(Connection* c) {
    std::deque<std::pair<uint64_t, uint64_t>> pending;  // (id, key index)
    uint64_t next = static_cast<uint64_t>(c->index);
    while (!c->broken && (next < spec_.num_keys || !pending.empty())) {
      while (pending.size() < kPreloadDepth && next < spec_.num_keys) {
        pending.emplace_back(
            c->client.SendPut(Key(next),
                              workload::MakeValue(next, 0, kValueSize)),
            next);
        next += kConnections;
      }
      if (!c->client.Flush().ok()) c->broken = true;
      // Collect half a window before refilling it; everything at the end.
      const size_t keep = next < spec_.num_keys ? kPreloadDepth / 2 : 0;
      while (!c->broken && pending.size() > keep) {
        const Status s = c->client.Wait(pending.front().first, nullptr);
        c->attempted++;
        if (!s.ok()) {
          c->Fail("preload put " + std::to_string(pending.front().second) +
                  ": " + s.ToString());
          if (s.IsIOError()) c->broken = true;
        }
        pending.pop_front();
      }
    }
    if (c->broken) c->Fail("connection lost");
  }

  /// Reads back the keys the connection wrote last plus a uniform sample of
  /// the keys it owns: with no write in flight, each must hold exactly the
  /// last acknowledged version.
  void Verify(Connection* c) {
    c->acks.Settle(&versions_, true);
    std::vector<uint64_t> keys(c->recent_writes.begin(),
                               c->recent_writes.end());
    for (size_t i = 0; i < kVerifyRandom; i++) {
      keys.push_back(c->stream.OwnedKey());
    }
    for (const uint64_t index : keys) {
      if (c->broken) break;
      std::string value;
      const Status s = c->client.Get(Key(index), &value);
      const uint32_t expect = versions_.Floor(index) + shift_;
      std::string why;
      c->attempted++;
      if (!CheckGet(spec_, index, s, value, expect, expect, true, &why)) {
        c->Fail("verify: " + why);
        if (s.IsIOError()) c->broken = true;
      }
    }
  }

 private:
  Pending Issue(Connection* c) {
    const OpStream::Request req = c->stream.Next();
    Pending p;
    p.op = req.op;
    p.index = req.index;
    p.version = 0;
    p.floor = 0;
    switch (req.op) {
      case Op::kPut:
        p.version = versions_.NextVersion(req.index);
        p.id = c->client.SendPut(
            Key(req.index),
            workload::MakeValue(req.index, p.version, kValueSize));
        break;
      case Op::kGet:
        if (req.index < spec_.num_keys) {
          p.floor = versions_.Floor(req.index) + shift_;
        }
        p.id = c->client.SendGet(Key(req.index));
        break;
    }
    p.sent = Clock::now();
    return p;
  }

  void Complete(Connection* c, const Pending& p, bool timed) {
    server::Client::Result r;
    const Status s = c->client.Wait(p.id, &r);
    const Clock::time_point done = Clock::now();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(done - p.sent)
            .count());
    std::string why;
    bool ok = false;
    switch (p.op) {
      case Op::kPut:
        ok = s.ok();
        if (ok) {
          c->acks.Ack(p.index, p.version);
          c->recent_writes.push_back(p.index);
          if (c->recent_writes.size() > kVerifyRecent) {
            c->recent_writes.pop_front();
          }
        } else {
          why = "put " + std::to_string(p.index) + ": " + s.ToString();
        }
        break;
      case Op::kGet:
        ok = CheckGet(spec_, p.index, s, r.value, p.floor,
                      p.index < spec_.num_keys ? versions_.Ceiling(p.index)
                                               : 0,
                      ++c->gets_checked % kFullValueCheckEvery == 0, &why);
        break;
    }
    c->attempted++;
    if (!ok) {
      c->Fail(why);
      if (s.IsIOError()) c->broken = true;
    }
    if (timed) c->latency_ns[static_cast<int>(p.op)].push_back(ns);
  }

  const WorkloadSpec& spec_;
  const uint32_t shift_;
  VersionTable versions_;
};

/// Runs fn on every connection, one thread each.
template <typename Fn>
void OnEveryConnection(std::vector<std::unique_ptr<Connection>>* conns,
                       Fn fn) {
  std::vector<std::thread> threads;
  for (auto& c : *conns) threads.emplace_back([&fn, &c] { fn(c.get()); });
  for (auto& t : threads) t.join();
}

/// {"n":..,"p50_us":..,"p99_us":..,"p999_us":..} of nanosecond samples;
/// sorts `ns` in place.
std::string LatencyJson(std::vector<uint64_t>* ns) {
  std::sort(ns->begin(), ns->end());
  return "{\"n\":" + std::to_string(ns->size()) +
         ",\"p50_us\":" + JsonNumber(Percentile(*ns, 50) / 1e3) +
         ",\"p99_us\":" + JsonNumber(Percentile(*ns, 99) / 1e3) +
         ",\"p999_us\":" + JsonNumber(Percentile(*ns, 99.9) / 1e3) + "}";
}

/// Blocks until the caller writes a line; false when stdin closed.
bool AwaitLine(const char* announce) {
  std::printf("%s\n", announce);
  std::fflush(stdout);
  char line[64];
  return std::fgets(line, sizeof(line), stdin) != nullptr;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int Main(int argc, char** argv) {
  const std::string name = FlagValue(argc, argv, "workload", "");
  const WorkloadSpec* spec = FindWorkload(name);
  const std::string mode = FlagValue(argc, argv, "mode", "run");
  const int port = std::atoi(FlagValue(argc, argv, "port", "0").c_str());
  if (spec == nullptr || port <= 0 || (mode != "run" && mode != "preload")) {
    std::fprintf(stderr,
                 "usage: e2e_loadgen --port=N --workload=W --seed=S "
                 "--mode=preload|run [--warmup=SEC --seconds=SEC "
                 "--shift-expected-version]\n");
    return 2;
  }
  const uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const uint32_t shift =
      FlagPresent(argc, argv, "shift-expected-version") ? 1 : 0;

  LoadGen gen(*spec, shift);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; i++) {
    conns.push_back(std::make_unique<Connection>(*spec, seed, i));
    const Status s =
        conns.back()->client.Connect("127.0.0.1", static_cast<uint16_t>(port));
    if (!s.ok()) {
      std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const Clock::time_point start = Clock::now();
  double window_s = 0;
  if (mode == "preload") {
    OnEveryConnection(&conns, [&](Connection* c) { gen.Preload(c); });
    window_s = Seconds(Clock::now() - start);
  } else {
    const double warmup =
        std::atof(FlagValue(argc, argv, "warmup", "0").c_str());
    const double seconds =
        std::atof(FlagValue(argc, argv, "seconds", "1").c_str());
    const auto after = [](double s) {
      return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s));
    };
    const Clock::time_point warm_start = Clock::now();
    for (auto& c : conns) c->stream.Start(warm_start);
    const Clock::time_point warm_end = after(warmup);
    OnEveryConnection(&conns, [&](Connection* c) {
      gen.RunPhase(c, warm_end, false);
    });
    if (!AwaitLine("ready")) return 1;
    const Clock::time_point window_start = Clock::now();
    const Clock::time_point window_end = after(seconds);
    OnEveryConnection(&conns, [&](Connection* c) {
      gen.RunPhase(c, window_end, true);
    });
    window_s = Seconds(Clock::now() - window_start);
    if (!AwaitLine("done")) return 1;
    OnEveryConnection(&conns, [&](Connection* c) { gen.Verify(c); });
  }

  uint64_t attempted = 0, failed = 0, ops = 0;
  std::array<std::vector<uint64_t>, kNumOps> by_op;
  std::string errors;
  for (auto& c : conns) {
    attempted += c->attempted;
    failed += c->failed;
    for (int op = 0; op < kNumOps; op++) {
      const std::vector<uint64_t>& ns = c->latency_ns[op];
      by_op[op].insert(by_op[op].end(), ns.begin(), ns.end());
      ops += ns.size();
    }
    for (const std::string& e : c->errors) {
      errors += (errors.empty() ? "" : ",") + JsonString(e);
    }
  }
  std::string lat;
  for (const Op op : {Op::kGet, Op::kPut}) {
    std::vector<uint64_t>& ns = by_op[static_cast<int>(op)];
    if (ns.empty()) continue;
    lat += std::string(lat.empty() ? "" : ",") + "\"" + OpName(op) +
           "\":" + LatencyJson(&ns);
  }
  std::printf(
      "{\"mode\":\"%s\",\"workload\":\"%s\",\"primary\":\"%s\","
      "\"live_bytes\":%llu,\"puts_per_s\":%s,\"window_s\":%s,"
      "\"ops\":%llu,\"attempted\":%llu,\"failed\":%llu,\"latency\":{%s},"
      "\"errors\":[%s]}\n",
      mode.c_str(), spec->name, OpName(spec->primary),
      static_cast<unsigned long long>(spec->num_keys * (16 + kValueSize)),
      JsonNumber(spec->puts_per_s).c_str(), JsonNumber(window_s).c_str(),
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), lat.c_str(), errors.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace talus

int main(int argc, char** argv) { return talus::e2e::Main(argc, argv); }
