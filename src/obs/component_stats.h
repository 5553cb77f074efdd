// Point-in-time counter snapshots of the engine's components and of the
// network server. Each component fills its own struct (GroupCommitTracker,
// server::Server); the metric catalog (obs/metric_catalog.h) reads them out
// of a MetricSnapshot.
#ifndef TALUS_OBS_COMPONENT_STATS_H_
#define TALUS_OBS_COMPONENT_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/histogram.h"

namespace talus {
namespace obs {

/// An atomic counter, changed with relaxed ordering, that copies by value:
/// a struct of them copies field-wise with the implicit copy operations,
/// which is how the owner takes a snapshot.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.load());
    return *this;
  }
  uint64_t load() const { return v_.load(); }
  void fetch_add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void fetch_sub(uint64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// The write pipeline's batching behavior (DESIGN.md §2.9), as
/// GroupCommitTracker saw it.
struct GroupCommitStats {
  /// Commit groups published (each is one WAL record + one publish).
  uint64_t group_commits = 0;
  /// Writer batches committed across all groups (excludes per-writer
  /// failures such as malformed batches).
  uint64_t batches_committed = 0;
  /// WAL fsyncs issued by the write path (wal_sync_mode accounting; one
  /// sync covers every batch in its group).
  uint64_t wal_syncs = 0;
  /// Total microseconds writers spent queued before their group formed.
  uint64_t write_queue_wait_micros = 0;
  /// Batches-per-group distribution, and its mean / p50 / max.
  Histogram group_sizes;
  double group_size_avg = 0;
  double group_size_p50 = 0;
  double group_size_max = 0;
};

/// Accumulator behind GroupCommitStats. Not internally synchronized: the DB
/// calls OnGroupCommitted and Snapshot under its mutex.
class GroupCommitTracker {
 public:
  void OnGroupCommitted(size_t group_size, uint64_t committed_batches,
                        uint64_t queue_wait_micros, bool wal_synced);
  GroupCommitStats Snapshot() const;

 private:
  GroupCommitStats stats_;
};

/// Counters for the talus_server_* families, cumulative since
/// server::Server::Start(). The server bumps them from its event loop and
/// workers; Server::stats() copies them.
struct ServerStats {
  RelaxedCounter connections_accepted;
  RelaxedCounter connections_rejected;  // Over max_connections.
  RelaxedCounter connections_active;
  RelaxedCounter requests_total;        // Binary protocol requests answered.
  RelaxedCounter request_errors;        // Non-kOk responses.
  RelaxedCounter bad_frames;            // Fatal framing errors.
  RelaxedCounter coalesced_batches;     // WriteBatch commits from coalescing.
  RelaxedCounter coalesced_ops;         // PUT/DELETEs inside those commits.
  RelaxedCounter http_requests;         // /metrics scrapes and friends.
  RelaxedCounter bytes_in;
  RelaxedCounter bytes_out;
};

}  // namespace obs
}  // namespace talus

#endif  // TALUS_OBS_COMPONENT_STATS_H_
