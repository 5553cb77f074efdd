// EventRing: timestamped structured engine events for postmortem stall
// reconstruction (DESIGN.md §6). Flushes, compactions, stalls, GC and policy
// changes are rare (tens per second at most), so the ring is a simple
// mutex-protected circular buffer — contention is irrelevant at this rate and
// a mutex keeps the global event order exact, which is what makes a JSONL
// trace replayable: stall_enter -> flush_begin -> flush_end -> stall_exit.
//
// One ring can be shared by many DBs (ShardedDB passes its ring to every
// shard via DbOptions::event_ring) so cross-shard causality lands in a single
// ordered stream. When a trace file is open, each event is also appended as
// one JSON object per line.
#ifndef TALUS_OBS_EVENT_RING_H_
#define TALUS_OBS_EVENT_RING_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace talus {
namespace obs {

enum class EventType : uint8_t {
  kFlushBegin = 0,      // a: imm memtable bytes
  kFlushEnd,            // a: output run bytes, b: duration micros
  kCompactionPlan,      // a: level, b: input runs
  kCompactionMerge,     // a: level, b: merged bytes
  kCompactionInstall,   // a: level, b: duration micros
  kStallEnter,          // a: cause (see StallCauseName), b: 1 stop / 0 slowdown
  kStallExit,           // a: cause, b: stalled micros
  kGcDelete,            // a: tables deleted
  kMemtableSwitch,      // a: sealed memtable bytes
  kAmpSample,           // a: window write-amp (milli), b: window blocks/lookup (milli)
  kModelDrift,          // a: drift score (milli), b: mix shift (milli)
  kPolicyChange,        // a: 1 tiering / 0 leveling, b: size ratio (milli)
};

const char* EventTypeName(EventType type);

// Cause codes carried in stall events' `a` payload.
constexpr uint64_t kCauseNone = 0;
constexpr uint64_t kCauseMemtable = 1;
constexpr uint64_t kCauseL0 = 2;
const char* StallCauseName(uint64_t cause);

struct Event {
  uint64_t micros;  // NowMicros() at emit time.
  uint64_t seq;     // Monotonic per-ring sequence (never wraps).
  EventType type;
  uint16_t shard;   // Emitting shard (0 for a standalone DB).
  uint64_t a;       // Per-type payloads; see EventType comments.
  uint64_t b;
};

class EventRing {
 public:
  /// The capacity of every ring an engine or a sharded store owns.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit EventRing(size_t capacity);
  ~EventRing();
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Appends (and writes one JSONL line when a trace file is open).
  void Emit(EventType type, uint16_t shard, uint64_t a, uint64_t b);

  /// Starts appending JSONL to `path` ("" closes). False if fopen failed.
  bool OpenTraceFile(const std::string& path);
  void CloseTraceFile();

  /// Events still in the ring, oldest first.
  std::vector<Event> Snapshot() const;
  /// Total events ever emitted (>= Snapshot().size() once wrapped).
  uint64_t TotalEmitted() const;

  /// The "talus.events" text: one line per ring entry, oldest first:
  /// `t_us=<micros> seq=<n> shard=<s> event=<name> a=<a> b=<b>`.
  std::string ToString() const;

  /// One event as a single-line JSON object (no trailing newline); the
  /// exact format written to the trace file. Stall events carry a
  /// human-readable `cause` key instead of a bare code.
  static std::string ToJson(const Event& e);

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;  // Fixed capacity, indexed by seq % capacity.
  size_t capacity_;
  uint64_t next_seq_ = 0;
  std::FILE* trace_ = nullptr;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_EVENT_RING_H_
