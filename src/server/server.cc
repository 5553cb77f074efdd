#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "lsm/write_batch.h"
#include "obs/metric_catalog.h"
#include "util/wall_clock.h"

namespace talus {
namespace server {

namespace {

// Upper bound on one SCAN response's entry count; bounds response frames
// independently of what limit the client asks for (docs/PROTOCOL.md).
constexpr uint32_t kMaxScanLimit = 65536;
// An HTTP request whose headers exceed this is dropped.
constexpr size_t kMaxHttpHeaderBytes = 16 << 10;
constexpr size_t kReadChunk = 64 << 10;

void AppendErrorFrame(std::string* out, wire::StatusCode code,
                      uint64_t request_id, const Slice& message) {
  std::string payload;
  wire::PutLp(&payload, message);
  wire::AppendFrame(out, static_cast<uint8_t>(code), request_id, payload);
}

void AppendStatusFrame(std::string* out, const Status& s, uint64_t request_id,
                       const Slice& ok_payload) {
  if (s.ok()) {
    wire::AppendFrame(out, static_cast<uint8_t>(wire::StatusCode::kOk),
                      request_id, ok_payload);
  } else {
    AppendErrorFrame(out, wire::CodeForStatus(s), request_id, s.ToString());
  }
}

}  // namespace

struct Server::Request {
  wire::Frame frame;
  bool http = false;
  std::string http_path;
};

struct Server::Connection {
  int fd = -1;

  // ---- Event-loop-thread state (never touched by workers) ----
  enum class Kind { kUnknown, kBinary, kHttp };
  Kind kind = Kind::kUnknown;
  std::string inbuf;
  size_t inpos = 0;        // Bytes of inbuf already decoded.
  bool read_closed = false;
  bool io_error = false;
  bool decode_blocked = false;  // Last decode pass ended on a partial frame.
  // Fatal framing error seen at inbuf[inpos]; the error frame and close
  // wait until already-dispatched requests have answered, preserving
  // response order.
  bool fatal_pending = false;
  wire::StatusCode fatal_code = wire::StatusCode::kBadRequest;
  uint32_t events = 0;  // Current epoll interest mask.

  // Set by workers (HTTP responses, shutdown refusals) and the loop.
  std::atomic<bool> close_after_flush{false};

  // ---- Shared state, guarded by mu ----
  std::mutex mu;
  bool busy = false;    // A dispatched batch is executing on a worker.
  std::string outbuf;   // Encoded responses awaiting socket write.
};

Server::Server(shard::ShardedDB* db, const ServerOptions& options)
    : db_(db), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket", strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.listen_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen_addr", options_.listen_addr);
  }

  Status s;
  socklen_t addr_len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    s = Status::IOError("bind " + options_.listen_addr, strerror(errno));
  } else if (::listen(listen_fd_, 128) != 0) {
    s = Status::IOError("listen", strerror(errno));
  } else if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &addr_len) != 0) {
    s = Status::IOError("getsockname", strerror(errno));
  }
  if (s.ok()) {
    port_ = ntohs(addr.sin_port);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      s = Status::IOError("epoll/eventfd", strerror(errno));
    }
  }
  if (s.ok()) {
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      s = Status::IOError("epoll_ctl listen", strerror(errno));
    } else {
      ev.events = EPOLLIN;
      ev.data.fd = wake_fd_;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
        s = Status::IOError("epoll_ctl wake", strerror(errno));
      }
    }
  }
  if (!s.ok()) {
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return s;
  }

  workers_ = std::make_unique<exec::ThreadPool>(options_.worker_threads);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load()) return;
    stopping_.store(true, std::memory_order_release);
    Wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    // The loop exits only once every connection is gone, and a connection
    // is destroyed only after its in-flight batch cleared `busy` — so no
    // queued worker task references a connection here.
    workers_->Shutdown();
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    if (options_.flush_on_shutdown) db_->FlushMemTable();
    running_.store(false, std::memory_order_release);
  });
}

void Server::Wake() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;  // EAGAIN means a wakeup is already pending.
  }
}

ServerStats Server::stats() const { return stats_; }

std::string Server::MetricsText() const {
  std::vector<obs::MetricSnapshot> snaps = db_->SnapshotMetrics();
  snaps.emplace_back();
  snaps.back().sections = obs::kServer;
  snaps.back().server = stats();
  return obs::RenderPrometheus(snaps);
}

void Server::EventLoop() {
  std::vector<epoll_event> events(64);
  bool listener_open = true;
  bool deadline_forced = false;
  uint64_t drain_deadline_us = 0;

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && listener_open) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_open = false;
      drain_deadline_us = NowMicros() + options_.drain_timeout_ms * 1000;
      // Kick every connection once: idle ones close immediately, the rest
      // drain their buffered frames and in-flight batches.
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& kv : conns_) fds.push_back(kv.first);
      for (int fd : fds) {
        auto it = conns_.find(fd);
        if (it != conns_.end()) ServiceConnection(it->second.get());
      }
    }
    if (stopping && conns_.empty()) break;

    int timeout_ms = -1;
    if (stopping) {
      const uint64_t now = NowMicros();
      timeout_ms = now >= drain_deadline_us
                       ? 10
                       : static_cast<int>((drain_deadline_us - now) / 1000 + 1);
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* c = it->second.get();
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) ReadInput(c);
      ServiceConnection(c);
    }

    // Connections whose worker batch just completed.
    std::vector<int> ready;
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready.swap(ready_fds_);
    }
    for (int fd : ready) {
      auto it = conns_.find(fd);
      if (it != conns_.end()) ServiceConnection(it->second.get());
    }

    if (stopping && !deadline_forced && NowMicros() >= drain_deadline_us) {
      deadline_forced = true;
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& kv : conns_) fds.push_back(kv.first);
      for (int fd : fds) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Connection* c = it->second.get();
        c->io_error = true;  // Discard pending output; close when not busy.
        ::shutdown(c->fd, SHUT_RDWR);
        ServiceConnection(c);
      }
    }
  }
}

void Server::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error; epoll will re-arm.
    if (conns_.size() >= options_.max_connections) {
      stats_.connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->events = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
    stats_.connections_accepted.fetch_add(1);
    stats_.connections_active.fetch_add(1);
  }
}

void Server::ReadInput(Connection* c) {
  if (c->read_closed || c->io_error ||
      c->close_after_flush.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return;
  }
  const size_t effective_max =
      std::max(options_.max_frame_bytes, wire::kMinMaxFrameBytes);
  const size_t input_limit = effective_max + (64 << 10);
  char chunk[kReadChunk];
  while (c->inbuf.size() - c->inpos < input_limit) {
    const ssize_t n = ::read(c->fd, chunk, sizeof(chunk));
    if (n > 0) {
      c->inbuf.append(chunk, static_cast<size_t>(n));
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {
      c->read_closed = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) c->io_error = true;
    return;
  }
}

bool Server::DecodeRequests(Connection* c, std::vector<Request>* out) {
  if (c->fatal_pending) return false;  // Already poisoned; don't re-parse.
  c->decode_blocked = false;
  const size_t effective_max =
      std::max(options_.max_frame_bytes, wire::kMinMaxFrameBytes);

  if (c->kind == Connection::Kind::kUnknown) {
    if (c->inbuf.size() - c->inpos < 4) {
      if (c->read_closed) c->close_after_flush.store(true);  // Junk prefix.
      c->decode_blocked = true;
      return true;
    }
    c->kind = memcmp(c->inbuf.data() + c->inpos, "GET ", 4) == 0
                  ? Connection::Kind::kHttp
                  : Connection::Kind::kBinary;
  }

  if (c->kind == Connection::Kind::kHttp) {
    const size_t end = c->inbuf.find("\r\n\r\n", c->inpos);
    if (end == std::string::npos) {
      if (c->inbuf.size() - c->inpos > kMaxHttpHeaderBytes || c->read_closed) {
        c->close_after_flush.store(true);
      }
      c->decode_blocked = true;
      return true;
    }
    const size_t line_end = c->inbuf.find("\r\n", c->inpos);
    std::string line = c->inbuf.substr(c->inpos, line_end - c->inpos);
    c->inpos = end + 4;
    Request req;
    req.http = true;
    // "GET <path> HTTP/1.x" — extract the path token.
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    req.http_path = sp2 == std::string::npos
                        ? line.substr(sp1 + 1)
                        : line.substr(sp1 + 1, sp2 - sp1 - 1);
    out->push_back(std::move(req));
    return true;
  }

  while (out->size() < options_.max_pipeline_depth) {
    Request req;
    size_t consumed = 0;
    const wire::DecodeResult r =
        wire::DecodeFrame(c->inbuf.data() + c->inpos,
                          c->inbuf.size() - c->inpos, effective_max,
                          &req.frame, &consumed);
    if (r == wire::DecodeResult::kFrame) {
      c->inpos += consumed;
      out->push_back(std::move(req));
      continue;
    }
    if (r == wire::DecodeResult::kNeedMore) {
      c->decode_blocked = true;
      break;
    }
    // Fatal framing error: remember it; the error frame is emitted (and
    // the connection closed) only after already-decoded requests answer,
    // preserving response order.
    stats_.bad_frames.fetch_add(1);
    c->fatal_pending = true;
    c->fatal_code = r == wire::DecodeResult::kBadVersion
                        ? wire::StatusCode::kBadVersion
                        : wire::StatusCode::kBadRequest;
    break;
  }
  // Reclaim decoded prefix bytes.
  if (c->inpos == c->inbuf.size()) {
    c->inbuf.clear();
    c->inpos = 0;
  } else if (c->inpos > (1 << 20)) {
    c->inbuf.erase(0, c->inpos);
    c->inpos = 0;
  }
  return !c->fatal_pending;
}

bool Server::ServiceConnection(Connection* c) {
  bool busy;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    busy = c->busy;
  }
  // Close decisions below require that this pass (not a stale earlier one)
  // observed the decode state; a pass that found the connection busy never
  // closes it — the worker-completion wakeup guarantees another pass.
  const bool busy_at_entry = busy;

  if (!busy && !c->io_error &&
      !c->close_after_flush.load(std::memory_order_acquire)) {
    std::vector<Request> batch;
    DecodeRequests(c, &batch);
    if (!batch.empty()) {
      DispatchBatch(c, std::move(batch));
      busy = true;
    } else if (c->fatal_pending) {
      // Every earlier request has answered; fail the stream and close.
      std::string err;
      AppendErrorFrame(&err, c->fatal_code, 0, "malformed frame");
      {
        std::lock_guard<std::mutex> lock(c->mu);
        c->outbuf += err;
      }
      c->fatal_pending = false;
      c->close_after_flush.store(true);
    }
  }

  if (!FlushOutput(c)) c->io_error = true;

  bool out_empty;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    out_empty = c->outbuf.empty();
    busy = c->busy;
  }
  const bool close_requested =
      c->close_after_flush.load(std::memory_order_acquire);
  const bool no_more_input = c->read_closed || close_requested ||
                             c->io_error ||
                             stopping_.load(std::memory_order_acquire);
  const bool input_drained =
      c->inpos >= c->inbuf.size() || c->decode_blocked || close_requested;
  if (!busy_at_entry && !busy &&
      (c->io_error || (no_more_input && input_drained && out_empty &&
                       !c->fatal_pending))) {
    CloseConnection(c);
    return false;
  }
  UpdateInterest(c);
  return true;
}

void Server::DispatchBatch(Connection* c, std::vector<Request> batch) {
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->busy = true;
  }
  const int fd = c->fd;
  auto shared = std::make_shared<std::vector<Request>>(std::move(batch));
  const bool submitted = workers_->Submit([this, c, fd, shared] {
    ExecuteBatch(c, *shared);
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready_fds_.push_back(fd);
    }
    Wake();
  });
  if (!submitted) {
    // Pool already shut down (server stopping): refuse the batch.
    std::string responses;
    for (const Request& r : *shared) {
      if (!r.http) {
        AppendErrorFrame(&responses, wire::StatusCode::kShuttingDown,
                         r.frame.request_id, "server shutting down");
      }
    }
    std::lock_guard<std::mutex> lock(c->mu);
    c->outbuf += responses;
    c->busy = false;
  }
}

void Server::ExecuteBatch(Connection* c, std::vector<Request>& batch) {
  std::string responses;
  uint64_t answered = 0;

  size_t i = 0;
  while (i < batch.size()) {
    const Request& req = batch[i];
    if (req.http) {
      ExecuteHttp(req, &responses);
      c->close_after_flush.store(true, std::memory_order_release);
      i++;
      continue;
    }
    const uint8_t op = req.frame.op;
    if (op != static_cast<uint8_t>(wire::Opcode::kPut) &&
        op != static_cast<uint8_t>(wire::Opcode::kDelete)) {
      ExecuteOne(req, &responses);
      answered++;
      i++;
      continue;
    }

    // A run of consecutive PUT/DELETE requests: decode them all, answer
    // malformed ones individually, and commit the valid ones as ONE
    // WriteBatch — pipelined writes become a single commit-group entry.
    struct PendingWrite {
      uint64_t request_id;
      bool valid;
      wire::StatusCode error;  // When !valid.
    };
    std::vector<PendingWrite> run;
    WriteBatch wb;
    size_t j = i;
    while (j < batch.size() && !batch[j].http &&
           (batch[j].frame.op == static_cast<uint8_t>(wire::Opcode::kPut) ||
            batch[j].frame.op ==
                static_cast<uint8_t>(wire::Opcode::kDelete))) {
      const wire::Frame& f = batch[j].frame;
      const Slice payload(f.payload);
      size_t pos = 0;
      Slice key, value;
      bool valid = wire::GetLp(payload, &pos, &key);
      const bool is_put =
          f.op == static_cast<uint8_t>(wire::Opcode::kPut);
      if (valid && is_put) valid = wire::GetLp(payload, &pos, &value);
      if (valid && pos != payload.size()) valid = false;  // Trailing bytes.
      wire::StatusCode error = wire::StatusCode::kBadRequest;
      if (valid && key.empty()) {
        valid = false;
        error = wire::StatusCode::kInvalidArgument;
      }
      if (valid) {
        if (is_put) {
          wb.Put(key, value);
        } else {
          wb.Delete(key);
        }
      }
      run.push_back({f.request_id, valid, error});
      j++;
    }
    Status commit;
    if (wb.Count() > 0) {
      commit = db_->Write(wb);
      if (wb.Count() > 1) {
        stats_.coalesced_batches.fetch_add(1);
        stats_.coalesced_ops.fetch_add(wb.Count());
      }
    }
    for (const PendingWrite& p : run) {
      if (!p.valid) {
        AppendErrorFrame(&responses, p.error, p.request_id,
                         p.error == wire::StatusCode::kInvalidArgument
                             ? "empty key"
                             : "malformed write payload");
      } else {
        AppendStatusFrame(&responses, commit, p.request_id, Slice());
      }
      answered++;
    }
    i = j;
  }

  stats_.requests_total.fetch_add(answered);
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->outbuf += responses;
    c->busy = false;
  }
  // Caller (DispatchBatch's task) wakes the loop; `c` must not be touched
  // past this point — once busy is false the loop may destroy it.
}

void Server::ExecuteOne(const Request& req, std::string* responses) {
  const wire::Frame& f = req.frame;
  const Slice payload(f.payload);
  size_t pos = 0;
  Status s;
  std::string ok_payload;

  const auto bad_request = [&](const char* what) {
    stats_.request_errors.fetch_add(1);
    AppendErrorFrame(responses, wire::StatusCode::kBadRequest, f.request_id,
                     what);
  };

  switch (static_cast<wire::Opcode>(f.op)) {
    case wire::Opcode::kPing:
      break;  // s stays OK, empty payload.
    case wire::Opcode::kGet: {
      Slice key;
      if (!wire::GetLp(payload, &pos, &key) || pos != payload.size()) {
        return bad_request("malformed get payload");
      }
      std::string value;
      s = db_->Get(key, &value);
      if (s.ok()) wire::PutLp(&ok_payload, value);
      break;
    }
    case wire::Opcode::kScan: {
      Slice start;
      uint32_t limit;
      if (!wire::GetLp(payload, &pos, &start) ||
          !wire::GetU32(payload, &pos, &limit) || pos != payload.size()) {
        return bad_request("malformed scan payload");
      }
      std::vector<std::pair<std::string, std::string>> entries;
      s = db_->Scan(start, std::min(limit, kMaxScanLimit), &entries);
      if (s.ok()) {
        wire::PutU32(&ok_payload, static_cast<uint32_t>(entries.size()));
        for (const auto& kv : entries) {
          wire::PutLp(&ok_payload, kv.first);
          wire::PutLp(&ok_payload, kv.second);
        }
      }
      break;
    }
    case wire::Opcode::kProperty: {
      Slice name;
      if (!wire::GetLp(payload, &pos, &name) || pos != payload.size()) {
        return bad_request("malformed property payload");
      }
      std::string text;
      if (db_->GetProperty(name.ToString(), &text)) {
        wire::PutLp(&ok_payload, text);
      } else {
        s = Status::NotFound("unknown property", name);
      }
      break;
    }
    case wire::Opcode::kWrite: {
      uint32_t count;
      if (!wire::GetU32(payload, &pos, &count)) {
        return bad_request("malformed write payload");
      }
      WriteBatch wb;
      bool ok = true;
      for (uint32_t k = 0; k < count && ok; k++) {
        if (payload.size() <= pos) {
          ok = false;
          break;
        }
        const uint8_t type = static_cast<uint8_t>(payload[pos++]);
        Slice key, value;
        ok = wire::GetLp(payload, &pos, &key) && !key.empty();
        if (ok && type == wire::kWriteOpPut) {
          ok = wire::GetLp(payload, &pos, &value);
          if (ok) wb.Put(key, value);
        } else if (ok && type == wire::kWriteOpDelete) {
          wb.Delete(key);
        } else {
          ok = false;
        }
      }
      if (!ok || pos != payload.size()) {
        return bad_request("malformed write payload");
      }
      s = db_->Write(wb);
      break;
    }
    case wire::Opcode::kPut:
    case wire::Opcode::kDelete:
      // Handled by the coalescing path in ExecuteBatch.
      return bad_request("write op outside coalescing path");
    default:
      stats_.request_errors.fetch_add(1);
      AppendErrorFrame(responses, wire::StatusCode::kNotSupported,
                       f.request_id, "unknown opcode");
      return;
  }
  if (!s.ok()) stats_.request_errors.fetch_add(1);
  AppendStatusFrame(responses, s, f.request_id, ok_payload);
}

void Server::ExecuteHttp(const Request& req, std::string* responses) {
  stats_.http_requests.fetch_add(1);
  std::string body;
  const char* status_line = "HTTP/1.0 200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (req.http_path == "/metrics") {
    body = MetricsText();
  } else if (req.http_path == "/healthz") {
    body = "ok\n";
    content_type = "text/plain; charset=utf-8";
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found\n";
    content_type = "text/plain; charset=utf-8";
  }
  char header[256];
  std::snprintf(header, sizeof(header),
                "%s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status_line, content_type, body.size());
  responses->append(header);
  responses->append(body);
}

bool Server::FlushOutput(Connection* c) {
  if (c->io_error) return true;  // Already dead; nothing to flush.
  std::string pending;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    pending.swap(c->outbuf);
  }
  if (pending.empty()) return true;
  size_t written = 0;
  bool alive = true;
  while (written < pending.size()) {
    const ssize_t n =
        ::write(c->fd, pending.data() + written, pending.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
    break;
  }
  if (written < pending.size() && alive) {
    // Re-queue the tail BEFORE anything a worker may append (workers only
    // append while busy, and the loop is the only writer of the front).
    std::lock_guard<std::mutex> lock(c->mu);
    c->outbuf.insert(0, pending, written, pending.size() - written);
  }
  return alive;
}

void Server::UpdateInterest(Connection* c) {
  const size_t effective_max =
      std::max(options_.max_frame_bytes, wire::kMinMaxFrameBytes);
  const size_t input_limit = effective_max + (64 << 10);
  bool want_out;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    want_out = !c->outbuf.empty();
  }
  const bool want_in = !c->read_closed && !c->io_error &&
                       !c->close_after_flush.load(std::memory_order_acquire) &&
                       !stopping_.load(std::memory_order_acquire) &&
                       c->inbuf.size() - c->inpos < input_limit;
  const uint32_t mask =
      (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  if (mask == c->events) return;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = mask;
  ev.data.fd = c->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
    c->events = mask;
  }
}

void Server::CloseConnection(Connection* c) {
  const int fd = c->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  stats_.connections_active.fetch_sub(1);
  conns_.erase(fd);  // Destroys c.
}

}  // namespace server
}  // namespace talus
