#include "obs/event_ring.h"

#include "util/wall_clock.h"

namespace talus {
namespace obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kFlushBegin: return "flush_begin";
    case EventType::kFlushEnd: return "flush_end";
    case EventType::kCompactionPlan: return "compaction_plan";
    case EventType::kCompactionMerge: return "compaction_merge";
    case EventType::kCompactionInstall: return "compaction_install";
    case EventType::kStallEnter: return "stall_enter";
    case EventType::kStallExit: return "stall_exit";
    case EventType::kGcDelete: return "gc_delete";
    case EventType::kMemtableSwitch: return "memtable_switch";
    case EventType::kAmpSample: return "amp_sample";
    case EventType::kModelDrift: return "model_drift";
    case EventType::kPolicyChange: return "policy_change";
  }
  return "unknown";
}

const char* StallCauseName(uint64_t cause) {
  switch (cause) {
    case kCauseMemtable: return "memtable";
    case kCauseL0: return "l0";
    default: return "none";
  }
}

EventRing::EventRing(size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity), capacity_(capacity == 0 ? 1 : capacity) {}

EventRing::~EventRing() { CloseTraceFile(); }

void EventRing::Emit(EventType type, uint16_t shard, uint64_t a, uint64_t b) {
  Event e;
  e.micros = NowMicros();
  e.type = type;
  e.shard = shard;
  e.a = a;
  e.b = b;
  std::lock_guard<std::mutex> l(mu_);
  e.seq = next_seq_++;
  ring_[e.seq % capacity_] = e;
  if (trace_ != nullptr) {
    const std::string line = ToJson(e);
    std::fwrite(line.data(), 1, line.size(), trace_);
    std::fputc('\n', trace_);
    // Traces exist for postmortems of runs that may die mid-stall; flush per
    // event so the tail survives a crash. Event rates are low enough.
    std::fflush(trace_);
  }
}

bool EventRing::OpenTraceFile(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  if (trace_ != nullptr) {
    std::fclose(trace_);
    trace_ = nullptr;
  }
  if (path.empty()) return true;
  trace_ = std::fopen(path.c_str(), "w");
  return trace_ != nullptr;
}

void EventRing::CloseTraceFile() {
  std::lock_guard<std::mutex> l(mu_);
  if (trace_ != nullptr) {
    std::fclose(trace_);
    trace_ = nullptr;
  }
}

std::vector<Event> EventRing::Snapshot() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<Event> out;
  const uint64_t count =
      next_seq_ < capacity_ ? next_seq_ : static_cast<uint64_t>(capacity_);
  out.reserve(count);
  for (uint64_t i = next_seq_ - count; i < next_seq_; i++) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

uint64_t EventRing::TotalEmitted() const {
  std::lock_guard<std::mutex> l(mu_);
  return next_seq_;
}

std::string EventRing::ToString() const {
  std::string out;
  char line[192];
  for (const Event& e : Snapshot()) {
    std::snprintf(line, sizeof(line),
                  "t_us=%llu seq=%llu shard=%u event=%s a=%llu b=%llu\n",
                  static_cast<unsigned long long>(e.micros),
                  static_cast<unsigned long long>(e.seq), e.shard,
                  EventTypeName(e.type), static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += line;
  }
  return out;
}

std::string EventRing::ToJson(const Event& e) {
  char buf[224];
  if (e.type == EventType::kStallEnter || e.type == EventType::kStallExit) {
    std::snprintf(buf, sizeof(buf),
                  "{\"t_us\": %llu, \"seq\": %llu, \"shard\": %u, "
                  "\"event\": \"%s\", \"cause\": \"%s\", \"b\": %llu}",
                  static_cast<unsigned long long>(e.micros),
                  static_cast<unsigned long long>(e.seq), e.shard,
                  EventTypeName(e.type), StallCauseName(e.a),
                  static_cast<unsigned long long>(e.b));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"t_us\": %llu, \"seq\": %llu, \"shard\": %u, "
                  "\"event\": \"%s\", \"a\": %llu, \"b\": %llu}",
                  static_cast<unsigned long long>(e.micros),
                  static_cast<unsigned long long>(e.seq), e.shard,
                  EventTypeName(e.type), static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
  }
  return buf;
}

}  // namespace obs
}  // namespace talus
