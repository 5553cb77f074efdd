// WriteQueue: the lock-ordered writer queue at the heart of the group-commit
// pipeline (DESIGN.md §2.9, RocksDB's JoinBatchGroup idiom). Writers enqueue
// and block; the front writer becomes the group leader, absorbs queued
// followers up to a byte budget, commits the whole group (WAL + memtable)
// off the DB mutex, and wakes each follower with its individual Status.
// Only a leader inserts into the memtable, and leadership passes through
// mu_ (ExitGroup → JoinAndAwaitLeadership), so consecutive leaders'
// inserts are ordered: the skiplist and arena see one writer at a time.
//
// Lock ordering: the queue's internal mutex is taken either with no other
// lock held (JoinAndAwaitLeadership, ExitGroup) or inside DB::mutex_
// (BuildGroup), and queue code never calls back into the DB — so the order
// DB::mutex_ → WriteQueue::mu_ is acyclic (DESIGN.md §2.3).
#ifndef TALUS_WRITE_WRITE_QUEUE_H_
#define TALUS_WRITE_WRITE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "write/writer.h"

namespace talus {
namespace write {

class WriteQueue {
 public:
  WriteQueue() = default;
  WriteQueue(const WriteQueue&) = delete;
  WriteQueue& operator=(const WriteQueue&) = delete;

  /// Enqueues *w and blocks until it is the group leader (returns true) or
  /// a leader has committed it (returns false; w->status holds the result).
  bool JoinAndAwaitLeadership(Writer* w);

  /// Leader-only: collects the leader plus queued followers into *group, in
  /// queue order, stopping once the accumulated batch bytes would exceed
  /// `max_group_bytes` (the leader's own batch is always included). The
  /// writers stay queued — ExitGroup removes them.
  void BuildGroup(Writer* leader, uint64_t max_group_bytes, WriteGroup* group);

  /// Leader-only: pops the group off the queue, wakes each follower with
  /// its final status (set by the leader beforehand), and promotes the next
  /// queued writer — if any — to leader.
  void ExitGroup(WriteGroup* group);

 private:
  std::mutex mu_;
  // One broadcast condvar covers leadership handoff and follower
  // completion; write groups are small enough that the thundering herd is
  // cheaper than per-writer parking.
  std::condition_variable cv_;
  std::deque<Writer*> queue_;
};

}  // namespace write
}  // namespace talus

#endif  // TALUS_WRITE_WRITE_QUEUE_H_
