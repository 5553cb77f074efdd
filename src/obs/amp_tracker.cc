#include "obs/amp_tracker.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <thread>

namespace talus {
namespace obs {

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }

// The per-level counters. The live_* space fields are not among them:
// "live bytes now" is already a window quantity.
constexpr uint64_t AmpSnapshot::Level::*kLevelCounters[] = {
    &AmpSnapshot::Level::flush_bytes_written,
    &AmpSnapshot::Level::flush_bytes_read,
    &AmpSnapshot::Level::compaction_bytes_written,
    &AmpSnapshot::Level::compaction_bytes_read,
    &AmpSnapshot::Level::compactions,
    &AmpSnapshot::Level::files_probed,
    &AmpSnapshot::Level::filter_negatives,
    &AmpSnapshot::Level::bloom_false_positives,
    &AmpSnapshot::Level::block_reads,
    &AmpSnapshot::Level::cache_hits,
    &AmpSnapshot::Level::hits,
};

}  // namespace

WorkloadMix AmpSnapshot::Mix() const {
  WorkloadMix mix;
  mix.updates = static_cast<double>(puts + deletes);
  mix.point_lookups = static_cast<double>(lookups);
  mix.range_lookups = static_cast<double>(scans);
  mix.Normalize();
  return mix;
}

uint64_t AmpSnapshot::Total(uint64_t Level::*field) const {
  uint64_t total = 0;
  for (int i = 0; i < num_levels; i++) total += levels[i].*field;
  return total;
}

uint64_t AmpSnapshot::TotalBytesFlushed() const {
  return Total(&Level::flush_bytes_written);
}

uint64_t AmpSnapshot::TotalBytesCompacted() const {
  return Total(&Level::compaction_bytes_written);
}

double AmpSnapshot::WriteAmp() const {
  if (user_payload_bytes == 0) return 0.0;
  return static_cast<double>(TotalBytesFlushed() + TotalBytesCompacted()) /
         static_cast<double>(user_payload_bytes);
}

double AmpSnapshot::ReadAmp() const {
  if (lookups == 0) return 0.0;
  return static_cast<double>(Total(&Level::files_probed)) /
         static_cast<double>(lookups);
}

double AmpSnapshot::BlocksPerLookup() const {
  if (lookups == 0) return 0.0;
  return static_cast<double>(Total(&Level::block_reads)) /
         static_cast<double>(lookups);
}

double AmpSnapshot::SpaceAmp() const {
  const uint64_t payload = Total(&Level::live_payload_bytes);
  if (payload == 0) return 1.0;
  return static_cast<double>(Total(&Level::live_sst_bytes)) /
         static_cast<double>(payload);
}

void AmpSnapshot::Add(const AmpSnapshot& other) {
  for (int i = 0; i < kAmpMaxLevels; i++) {
    Level& l = levels[i];
    const Level& o = other.levels[i];
    for (uint64_t Level::*field : kLevelCounters) l.*field += o.*field;
    l.live_sst_bytes += o.live_sst_bytes;
    l.live_payload_bytes += o.live_payload_bytes;
  }
  if (other.num_levels > num_levels) num_levels = other.num_levels;
  puts += other.puts;
  deletes += other.deletes;
  lookups += other.lookups;
  scans += other.scans;
  memtable_hits += other.memtable_hits;
  misses += other.misses;
  user_payload_bytes += other.user_payload_bytes;
}

void AmpSnapshot::Subtract(const AmpSnapshot& base) {
  for (int i = 0; i < kAmpMaxLevels; i++) {
    for (uint64_t Level::*field : kLevelCounters) {
      levels[i].*field = SatSub(levels[i].*field, base.levels[i].*field);
    }
  }
  puts = SatSub(puts, base.puts);
  deletes = SatSub(deletes, base.deletes);
  lookups = SatSub(lookups, base.lookups);
  scans = SatSub(scans, base.scans);
  memtable_hits = SatSub(memtable_hits, base.memtable_hits);
  misses = SatSub(misses, base.misses);
  user_payload_bytes = SatSub(user_payload_bytes, base.user_payload_bytes);
}

std::string AmpSnapshot::ToString() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "write_amp=%.3f read_amp=%.3f space_amp=%.3f "
                "blocks_per_lookup=%.3f lookups=%" PRIu64
                " memtable_hits=%" PRIu64 " misses=%" PRIu64
                " user_payload=%" PRIu64 "\n",
                WriteAmp(), ReadAmp(), SpaceAmp(), BlocksPerLookup(), lookups,
                memtable_hits, misses, user_payload_bytes);
  out += buf;
  out +=
      "level flush_w comp_w comp_r probes fneg bloom_fp blocks hits "
      "live_sst live_payload\n";
  for (int i = 0; i < num_levels; i++) {
    const Level& l = levels[i];
    std::snprintf(buf, sizeof(buf),
                  "L%d %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 "\n",
                  i, l.flush_bytes_written, l.compaction_bytes_written,
                  l.compaction_bytes_read, l.files_probed, l.filter_negatives,
                  l.bloom_false_positives, l.block_reads, l.hits,
                  l.live_sst_bytes, l.live_payload_bytes);
    out += buf;
  }
  return out;
}

std::string AmpSnapshot::CompactionsToString() const {
  int rows = 0;
  for (int i = 0; i < num_levels; i++) {
    if (levels[i].compactions > 0) rows = i + 1;
  }
  std::string out = "level compactions bytes_read bytes_written\n";
  char buf[128];
  for (int i = 0; i < rows; i++) {
    const Level& l = levels[i];
    std::snprintf(buf, sizeof(buf),
                  "L%d %" PRIu64 " %" PRIu64 " %" PRIu64 "\n", i,
                  l.compactions, l.compaction_bytes_read,
                  l.compaction_bytes_written);
    out += buf;
  }
  return out;
}

int AmpTracker::StripeForThisThread() {
  // Same scheme as LatencyRecorder: hash the thread id once per thread.
  static thread_local int stripe =
      static_cast<int>(std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                       kStripes);
  return stripe;
}

void AmpTracker::NoteSlot(int slot) {
  int seen = max_slot_.load(std::memory_order_relaxed);
  while (slot > seen && !max_slot_.compare_exchange_weak(
                            seen, slot, std::memory_order_relaxed)) {
  }
}

void AmpTracker::RecordFlush(int level, uint64_t bytes_read,
                             uint64_t bytes_written) {
  int slot = AmpSlot(level);
  flush_bytes_read_[slot].fetch_add(bytes_read, std::memory_order_relaxed);
  flush_bytes_[slot].fetch_add(bytes_written, std::memory_order_relaxed);
  NoteSlot(slot);
}

void AmpTracker::RecordCompaction(int level, uint64_t bytes_read,
                                  uint64_t bytes_written) {
  int slot = AmpSlot(level);
  compaction_bytes_read_[slot].fetch_add(bytes_read,
                                         std::memory_order_relaxed);
  compaction_bytes_written_[slot].fetch_add(bytes_written,
                                            std::memory_order_relaxed);
  compactions_[slot].fetch_add(1, std::memory_order_relaxed);
  NoteSlot(slot);
}

void AmpTracker::RecordWrite(uint64_t puts, uint64_t deletes,
                             uint64_t payload_bytes) {
  puts_.fetch_add(puts, std::memory_order_relaxed);
  deletes_.fetch_add(deletes, std::memory_order_relaxed);
  user_payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
}

void AmpTracker::RecordLookup(const LookupProbe& probe) {
  ReadCell& c = cells_[StripeForThisThread()];
  for (int i = 0; i <= probe.deepest_slot && i < kAmpMaxLevels; i++) {
    if (probe.files_probed[i] != 0) {
      c.files_probed[i].fetch_add(probe.files_probed[i],
                                  std::memory_order_relaxed);
    }
    if (probe.filter_negatives[i] != 0) {
      c.filter_negatives[i].fetch_add(probe.filter_negatives[i],
                                      std::memory_order_relaxed);
    }
    if (probe.bloom_false_positives[i] != 0) {
      c.bloom_false_positives[i].fetch_add(probe.bloom_false_positives[i],
                                           std::memory_order_relaxed);
    }
    if (probe.block_reads[i] != 0) {
      c.block_reads[i].fetch_add(probe.block_reads[i],
                                 std::memory_order_relaxed);
    }
    if (probe.cache_hits[i] != 0) {
      c.cache_hits[i].fetch_add(probe.cache_hits[i],
                                std::memory_order_relaxed);
    }
  }
  c.lookups.fetch_add(1, std::memory_order_relaxed);
  if (probe.hit_level == LookupProbe::kHitMemtable) {
    c.memtable_hits.fetch_add(1, std::memory_order_relaxed);
  } else if (probe.hit_level == LookupProbe::kMiss) {
    c.misses.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.hits[AmpSlot(probe.hit_level)].fetch_add(1, std::memory_order_relaxed);
  }
  if (probe.deepest_slot >= 0) NoteSlot(probe.deepest_slot);
}

void AmpTracker::RecordScan() {
  cells_[StripeForThisThread()].scans.fetch_add(1, std::memory_order_relaxed);
}

AmpSnapshot AmpTracker::Snapshot() const {
  AmpSnapshot snap;
  int max_slot = max_slot_.load(std::memory_order_relaxed);
  snap.num_levels = max_slot + 1;
  for (int i = 0; i < kAmpMaxLevels; i++) {
    AmpSnapshot::Level& l = snap.levels[i];
    l.flush_bytes_written = flush_bytes_[i].load(std::memory_order_relaxed);
    l.flush_bytes_read = flush_bytes_read_[i].load(std::memory_order_relaxed);
    l.compaction_bytes_written =
        compaction_bytes_written_[i].load(std::memory_order_relaxed);
    l.compaction_bytes_read =
        compaction_bytes_read_[i].load(std::memory_order_relaxed);
    l.compactions = compactions_[i].load(std::memory_order_relaxed);
  }
  for (int s = 0; s < kStripes; s++) {
    const ReadCell& c = cells_[s];
    for (int i = 0; i < kAmpMaxLevels; i++) {
      AmpSnapshot::Level& l = snap.levels[i];
      l.files_probed += c.files_probed[i].load(std::memory_order_relaxed);
      l.filter_negatives +=
          c.filter_negatives[i].load(std::memory_order_relaxed);
      l.bloom_false_positives +=
          c.bloom_false_positives[i].load(std::memory_order_relaxed);
      l.block_reads += c.block_reads[i].load(std::memory_order_relaxed);
      l.cache_hits += c.cache_hits[i].load(std::memory_order_relaxed);
      l.hits += c.hits[i].load(std::memory_order_relaxed);
    }
    snap.lookups += c.lookups.load(std::memory_order_relaxed);
    snap.scans += c.scans.load(std::memory_order_relaxed);
    snap.memtable_hits += c.memtable_hits.load(std::memory_order_relaxed);
    snap.misses += c.misses.load(std::memory_order_relaxed);
  }
  snap.puts = puts_.load(std::memory_order_relaxed);
  snap.deletes = deletes_.load(std::memory_order_relaxed);
  snap.user_payload_bytes =
      user_payload_bytes_.load(std::memory_order_relaxed);
  return snap;
}

AmpSnapshot AmpTracker::WindowSnapshot() const {
  AmpSnapshot snap = Snapshot();
  std::lock_guard<std::mutex> lock(window_mu_);
  snap.Subtract(window_base_);
  return snap;
}

void AmpTracker::AdvanceWindow() {
  AmpSnapshot now = Snapshot();
  std::lock_guard<std::mutex> lock(window_mu_);
  window_base_ = now;
}

}  // namespace obs
}  // namespace talus
