// Network service layer (DESIGN.md §8): serves a shard::ShardedDB over the
// length-prefixed binary protocol in server/wire.h, plus plaintext HTTP
// `GET /metrics` (Prometheus exposition) on the same port.
//
// Threading model — one acceptor/event-loop thread plus a worker pool:
//
//   * The event-loop thread owns ALL socket I/O and every Connection's
//     lifecycle: it epoll-waits on the listen fd, an eventfd wakeup, and
//     every connection; reads bytes into per-connection input buffers;
//     decodes complete frames; and writes queued response bytes back out.
//   * Decoded requests are handed to the worker pool in per-connection
//     batches. A connection has at most one batch in flight (`busy`), so
//     requests on one connection execute — and answer — strictly in order,
//     while different connections proceed in parallel across workers.
//   * Workers never touch sockets: they execute against the ShardedDB,
//     append encoded responses to the connection's output buffer under its
//     lock, clear `busy`, and wake the event loop to flush.
//
// Pipelining is group-commit fuel: within one dispatched batch, maximal
// runs of consecutive PUT/DELETE requests are coalesced into a single
// WriteBatch and committed through one ShardedDB::Write call — N pipelined
// puts from one client cost one commit-group entry (and batches from
// different connections still group in the engine's write queue). Each
// coalesced request is answered individually with the commit's status.
//
// Backpressure / admission control: at most max_pipeline_depth requests
// are dispatched per batch, and once a connection's input buffer exceeds
// max_frame_bytes + 64 KiB of undecoded bytes the loop stops reading from
// its socket until the backlog drains — TCP flow control then pushes back
// on the client.
//
// Graceful shutdown (Stop): stop accepting, stop reading new bytes, keep
// executing every request already received (in-flight batches and buffered
// frames), flush every response, then close connections, optionally flush
// the engine's memtables, and join. A drain deadline
// (drain_timeout_ms) force-closes sockets that will not finish in time.
#ifndef TALUS_SERVER_SERVER_H_
#define TALUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/component_stats.h"
#include "server/wire.h"
#include "shard/sharded_db.h"
#include "util/status.h"

namespace talus {
namespace server {

struct ServerOptions {
  /// IPv4 address to bind, numeric form ("127.0.0.1", "0.0.0.0").
  std::string listen_addr = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Worker threads executing decoded requests against the DB. The server
  /// owns this pool; it is separate from DbOptions::num_background_threads
  /// (flush/compaction) so request execution and engine maintenance cannot
  /// starve each other.
  int worker_threads = 4;
  /// Max requests decoded into one dispatched batch per connection — the
  /// per-connection pipelining (and PUT/DELETE coalescing) window. Deeper
  /// pipelines amortize commit groups further but lengthen per-request
  /// tail latency at the back of the window.
  size_t max_pipeline_depth = 64;
  /// Frames with len above this are a fatal framing error (connection
  /// closed). Floor wire::kMinMaxFrameBytes is always allowed.
  size_t max_frame_bytes = 8 << 20;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Stop(): how long to wait for in-flight requests and response flushes
  /// before force-closing sockets.
  uint64_t drain_timeout_ms = 5000;
  /// Stop(): flush the engine's memtables after the drain, so a clean
  /// shutdown leaves nothing to WAL replay.
  bool flush_on_shutdown = true;
};

/// Counters for the talus_server_* Prometheus families (OPERATIONS.md).
using ServerStats = obs::ServerStats;

class Server {
 public:
  /// `db` must outlive the server. Serving starts at Start().
  Server(shard::ShardedDB* db, const ServerOptions& options);
  /// Implies Stop().
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop + workers. On failure
  /// nothing is left running.
  Status Start();
  /// Graceful shutdown; see the class comment. Idempotent, thread-safe.
  void Stop();

  /// Bound TCP port (resolves port 0); valid after a successful Start().
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  ServerStats stats() const;
  /// The /metrics body: every catalog family, the engine fleet's and the
  /// talus_server_* ones, in one exposition.
  std::string MetricsText() const;

 private:
  struct Connection;
  struct Request;

  void EventLoop();
  void AcceptReady();
  /// Reads available bytes (unless paused or draining); returns false when
  /// the connection should be torn down (EOF with nothing left to do is
  /// handled by ServiceConnection instead).
  void ReadInput(Connection* c);
  /// Decode + dispatch + flush + epoll-interest upkeep for one connection.
  /// Returns false when the connection was closed and erased.
  bool ServiceConnection(Connection* c);
  /// Decodes up to max_pipeline_depth requests; returns false on a fatal
  /// framing error (error frame queued, connection marked for close).
  bool DecodeRequests(Connection* c, std::vector<Request>* out);
  void DispatchBatch(Connection* c, std::vector<Request> batch);
  /// Executes one batch on a worker thread: coalesces write runs, encodes
  /// responses, appends them to the output buffer, wakes the loop.
  void ExecuteBatch(Connection* c, std::vector<Request>& batch);
  void ExecuteOne(const Request& req, std::string* responses);
  /// Serves one parsed HTTP request line ("/metrics", "/healthz").
  void ExecuteHttp(const Request& req, std::string* responses);
  /// Writes pending output; returns false on a dead socket.
  bool FlushOutput(Connection* c);
  void UpdateInterest(Connection* c);
  void CloseConnection(Connection* c);
  void Wake();

  shard::ShardedDB* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::unique_ptr<exec::ThreadPool> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  // Event-loop-thread state: connections by fd. Only the loop touches it.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;

  // Connections whose worker batch completed and need servicing; workers
  // push, the loop swaps out. Guarded by ready_mu_.
  std::mutex ready_mu_;
  std::vector<int> ready_fds_;

  ServerStats stats_;
};

}  // namespace server
}  // namespace talus

#endif  // TALUS_SERVER_SERVER_H_
