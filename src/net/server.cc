#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/classifier.h"
#include "util/interner.h"

namespace cqa {
namespace net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

}  // namespace

Server::Server(Service* service, const Options& options)
    : service_(service),
      options_(options),
      exporter_(service, options.metrics) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (options_.host.empty() || options_.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
             1) {
    CloseFd(&listen_fd_);
    return Status::InvalidArgument("host is not an IPv4 address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    CloseFd(&listen_fd_);
    return Status::Unavailable("bind() failed: " +
                               std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) < 0) {
    CloseFd(&listen_fd_);
    return Status::Unavailable("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    bound_port_ = ntohs(addr.sin_port);
  }
  Status st = SetNonBlocking(listen_fd_);
  if (!st.ok()) {
    CloseFd(&listen_fd_);
    return st;
  }

  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    CloseFd(&listen_fd_);
    return Status::Internal("pipe() failed");
  }
  wake_read_ = pipefd[0];
  wake_write_ = pipefd[1];
  SetNonBlocking(wake_read_);
  SetNonBlocking(wake_write_);

  stop_ = false;
  started_ = true;
  poll_thread_ = std::thread(&Server::PollLoop, this);
  int executors = std::max(1, options_.num_executors);
  executors_.reserve(executors);
  for (int i = 0; i < executors; ++i) {
    executors_.emplace_back(&Server::ExecutorLoop, this);
  }
  if (options_.sample_metrics) exporter_.Start();
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  WakePoll();
  poll_thread_.join();
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  exporter_.Stop();
  CloseFd(&wake_read_);
  CloseFd(&wake_write_);
  started_ = false;
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
  work_.clear();
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Server::WakePoll() {
  char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  ssize_t ignored = ::write(wake_write_, &byte, 1);
  (void)ignored;
}

std::string Server::ErrorFrame(uint8_t verb, uint64_t request_id,
                               const Status& status) {
  std::string payload;
  Writer w(&payload);
  EncodeStatus(&w, status);
  std::string frame;
  AppendFrame(&frame, verb | kResponseBit, request_id, payload);
  return frame;
}

// ----------------------------------------------------------- poll loop

void Server::PollLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;  // parallel to pfds[base..]
  for (;;) {
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_read_, POLLIN, 0});
    bool accepting = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
      // A draining server keeps the listen socket open (so peers get
      // RST-free refusals from the backlog draining out) but stops
      // polling it — no new connections are accepted.
      accepting = !draining_;
      if (accepting) pfds.push_back({listen_fd_, POLLIN, 0});
      for (auto& [id, conn] : conns_) {
        short events = POLLIN;
        // `ready` frames surface as POLLOUT interest so one poll round
        // both collects and flushes them.
        if (!conn->out.empty() || !conn->ready.empty()) events |= POLLOUT;
        pfds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
    }
    const size_t conn_base = accepting ? 2 : 1;

    int n = ::poll(pfds.data(), pfds.size(), 100 /* ms */);
    if (n < 0 && errno != EINTR) break;

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }

    if (accepting && (pfds[1].revents & POLLIN)) {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        bool reject;
        {
          std::lock_guard<std::mutex> lock(mu_);
          reject = conns_.size() >= options_.max_connections;
          if (!reject) ++counters_.connections_accepted;
          else ++counters_.connections_rejected;
        }
        if (reject) {
          ::close(fd);
          continue;
        }
        SetNonBlocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->last_frame = std::chrono::steady_clock::now();
        conn->last_write_progress = conn->last_frame;
        std::lock_guard<std::mutex> lock(mu_);
        conn->id = next_conn_id_++;
        conns_.emplace(conn->id, conn);
        counters_.active_connections = conns_.size();
      }
    }

    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < polled.size(); ++i) {
      const pollfd& p = pfds[i + conn_base];
      const std::shared_ptr<Conn>& conn = polled[i];
      bool dead = false;

      if (p.revents & (POLLERR | POLLNVAL)) dead = true;

      if (!dead && (p.revents & (POLLIN | POLLHUP))) {
        char buf[64 * 1024];
        for (;;) {
          ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
          if (got > 0) {
            conn->in.append(buf, static_cast<size_t>(got));
            std::lock_guard<std::mutex> lock(mu_);
            counters_.bytes_read += static_cast<uint64_t>(got);
            continue;
          }
          if (got == 0) dead = true;  // peer closed
          if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            dead = true;
          }
          break;
        }
        if (!dead && !conn->close_after_flush && !DrainFrames(conn)) {
          // Framing error: flush the terminal notice, then close.
          conn->close_after_flush = true;
        }
      }

      CollectReady(conn);

      if (!conn->out.empty()) {
        ssize_t sent =
            ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
        if (sent > 0) {
          conn->out.erase(0, static_cast<size_t>(sent));
          conn->last_write_progress = now;
          std::lock_guard<std::mutex> lock(mu_);
          counters_.bytes_written += static_cast<uint64_t>(sent);
        } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          dead = true;
        }
      }
      if (conn->out.empty()) conn->last_write_progress = now;
      if (conn->close_after_flush && conn->out.empty()) dead = true;

      // Idle reaping: nothing in flight, nothing buffered, and no
      // COMPLETE frame parsed within the idle window — a slow-loris
      // trickle of bytes does not refresh the clock.
      if (!dead && !conn->close_after_flush && options_.idle_timeout_ms > 0 &&
          conn->out.empty() &&
          now - conn->last_frame >=
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        std::lock_guard<std::mutex> lock(mu_);
        if (conn->inflight == 0 && conn->ready.empty()) {
          ++counters_.idle_reaped;
          dead = true;
        }
      }
      // Write-stall eviction: the peer stopped reading its responses,
      // so buffered output has made no progress for the whole window.
      if (!dead && options_.write_stall_timeout_ms > 0 && !conn->out.empty() &&
          now - conn->last_write_progress >=
              std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.write_stall_evicted;
        dead = true;
      }

      if (dead) {
        ::close(conn->fd);
        conn->fd = -1;
        std::lock_guard<std::mutex> lock(mu_);
        conns_.erase(conn->id);
        counters_.active_connections = conns_.size();
        ++counters_.connections_closed;
      }
    }
  }

  // Shutdown: close everything the poll thread owns.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  CloseFd(&listen_fd_);
}

bool Server::DrainFrames(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    Frame frame;
    std::string error;
    uint8_t bad_version = 0;
    ParseResult res = TryParseFrame(&conn->in, &frame, &error, &bad_version);
    if (res == ParseResult::kNeedMore) return true;
    if (res == ParseResult::kFatal) {
      std::string msg = bad_version != 0
                            ? "unsupported protocol version " +
                                  std::to_string(int(bad_version))
                            : "framing error: " + error;
      // Terminal notice: verb byte 0x80 (response bit, verb 0), request
      // id 0 — PROTOCOL.md §2.4. Best effort; the close is the message.
      conn->out += ErrorFrame(0, 0, Status::InvalidArgument(msg));
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
      return false;
    }

    if (frame.verb & kResponseBit) {
      // A client must never send response frames; stream is nonsense.
      conn->out += ErrorFrame(0, 0,
                              Status::InvalidArgument(
                                  "response frame received by server"));
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
      return false;
    }

    conn->last_frame = std::chrono::steady_clock::now();

    // Deadline prefix (PROTOCOL.md §2.5): kDeadlineBit on a request's
    // verb byte means the payload starts with one varint — the time
    // budget in milliseconds, relative to receipt. Responses echo the
    // STRIPPED verb; the bit never appears on a response frame.
    uint8_t verb = frame.verb;
    Deadline deadline;
    if (verb & kDeadlineBit) {
      verb = static_cast<uint8_t>(verb & ~kDeadlineBit);
      Reader prefix(frame.payload);
      uint64_t budget_ms = prefix.Varint();
      if (prefix.failed()) {
        // Request-level error, not framing: the frame itself was well
        // formed, so the connection stays usable.
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.requests;
        ++counters_.responses;
        conn->out += ErrorFrame(
            verb, frame.request_id,
            Status::InvalidArgument("malformed deadline prefix"));
        continue;
      }
      frame.payload.erase(0, frame.payload.size() - prefix.remaining());
      if (budget_ms > 0) deadline = Deadline::AfterMillis(budget_ms);
    }
    deadline = Deadline::Sooner(deadline, VerbDefaultDeadline(verb));

    // Admission control (PROTOCOL.md §7): shed BEFORE queueing, from
    // the poll thread, so overload answers fast instead of queueing
    // slow. kHello/kMetrics are control traffic and bypass the budget
    // only in the sense that they are cheap — they still count.
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
    if (draining_) {
      ++counters_.drain_shed;
      ++counters_.responses;
      conn->out += ErrorFrame(
          verb, frame.request_id,
          Status::Unavailable("server draining; retry elsewhere"));
      continue;
    }
    if (work_.size() >= options_.max_queued_requests) {
      ++counters_.shed_queue;
      ++counters_.responses;
      conn->out += ErrorFrame(
          verb, frame.request_id,
          Status::Unavailable("server overloaded (queue depth); retry"));
      continue;
    }
    if (conn->inflight >= options_.max_inflight_per_connection) {
      ++counters_.shed_inflight;
      ++counters_.responses;
      conn->out += ErrorFrame(
          verb, frame.request_id,
          Status::Unavailable("connection in-flight budget exceeded; retry"));
      continue;
    }
    ++conn->inflight;
    work_.push_back(Work{conn->id, verb, frame.request_id,
                         std::move(frame.payload), deadline});
    work_cv_.notify_one();
  }
}

void Server::CollectReady(const std::shared_ptr<Conn>& conn) {
  std::deque<std::string> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready.swap(conn->ready);
  }
  for (std::string& frame : ready) conn->out += frame;
}

void Server::QueueResponse(uint64_t conn_id, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.responses;
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection died; drop the frame
    it->second->ready.push_back(std::move(frame));
    if (it->second->inflight > 0) --it->second->inflight;
  }
  WakePoll();
}

// ------------------------------------------------------- executor loop

void Server::ExecutorLoop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !work_.empty(); });
      if (stop_ && work_.empty()) return;
      work = std::move(work_.front());
      work_.pop_front();
      ++executing_;
    }
    // A drain's grace cutoff cancels stragglers through the same
    // cooperative checks a wire deadline uses.
    work.deadline.AttachCancel(&drain_cancel_);
    std::string frame;
    if (work.deadline.Expired()) {
      frame = ErrorFrame(
          work.verb, work.request_id,
          Status::DeadlineExceeded("deadline expired before dispatch"));
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.deadline_exceeded;
    } else {
      frame = DispatchFrame(work.verb, work.request_id, work.payload,
                            work.deadline);
    }
    QueueResponse(work.conn_id, std::move(frame));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
    }
    drain_cv_.notify_all();
  }
}

std::string Server::DispatchFrame(uint8_t verb, uint64_t request_id,
                                  const std::string& payload,
                                  const Deadline& deadline) {
  std::string response_payload =
      HandleVerb(static_cast<Verb>(verb), payload, deadline);
  // Response payloads start with the status-code byte (EncodeStatus),
  // so a cooperative cancellation deep in the Service is countable here
  // without re-decoding.
  if (!response_payload.empty() &&
      static_cast<uint8_t>(response_payload[0]) ==
          static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.deadline_exceeded;
  }
  std::string frame;
  AppendFrame(&frame, verb | kResponseBit, request_id, response_payload);
  return frame;
}

Deadline Server::VerbDefaultDeadline(uint8_t verb) const {
  auto it = options_.verb_timeout_ms.find(verb);
  uint64_t ms = it != options_.verb_timeout_ms.end()
                    ? it->second
                    : options_.default_request_timeout_ms;
  return ms == 0 ? Deadline() : Deadline::AfterMillis(ms);
}

// -------------------------------------------------------- graceful drain

void Server::Shutdown(uint64_t grace_ms) {
  std::vector<std::pair<uint64_t, std::string>> shed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || stop_) {
      lock.unlock();
      Stop();
      return;
    }
    draining_ = true;
    // Shed queued-but-unstarted work as well-formed kUnavailable
    // responses — retryable against another replica, never half-run.
    for (Work& work : work_) {
      ++counters_.drain_shed;
      shed.emplace_back(
          work.conn_id,
          ErrorFrame(work.verb, work.request_id,
                     Status::Unavailable("server draining; retry elsewhere")));
    }
    work_.clear();
  }
  WakePoll();  // poll loop drops the listen fd from its interest set
  for (auto& [conn_id, frame] : shed) QueueResponse(conn_id, std::move(frame));

  // Let in-flight requests finish up to the grace period...
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                       [this] { return executing_ == 0 && work_.empty(); });
  }
  // ...then cancel stragglers cooperatively and wait for them to
  // unwind (their deadlines all carry this flag).
  drain_cancel_.store(true, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return executing_ == 0; });
  }
  // Flush every durable tenant's WAL while the responses above are
  // still draining to their sockets, then tear down.
  (void)service_->FlushStores();
  Stop();
}

// ------------------------------------------------ prepared-id registry

Result<PreparedQueryHandle> Server::ResolvePrepared(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(prepared_mu_);
  auto it = prepared_.find(id);
  if (it == prepared_.end()) {
    return Status::NotFound("unknown prepared query id (evicted or never "
                            "prepared here); re-Prepare and retry");
  }
  return it->second;
}

void Server::RememberPrepared(const PreparedQueryHandle& handle) {
  std::lock_guard<std::mutex> lock(prepared_mu_);
  const std::string& id = handle->id();
  auto it = prepared_.find(id);
  if (it != prepared_.end()) {
    prepared_lru_.remove(id);
    prepared_lru_.push_front(id);
    return;
  }
  prepared_.emplace(id, handle);
  prepared_lru_.push_front(id);
  while (prepared_.size() > options_.max_prepared) {
    prepared_.erase(prepared_lru_.back());
    prepared_lru_.pop_back();
  }
}

// ------------------------------------------------------- verb handlers

namespace {

/// Every handler writes `status ++ [body iff ok]` (PROTOCOL.md §2.2).
std::string StatusOnly(const Status& status) {
  std::string payload;
  Writer w(&payload);
  EncodeStatus(&w, status);
  return payload;
}

/// Interns a request's free-variable names in one batch;
/// ResourceExhausted past the interner's cap.
Result<std::vector<SymbolId>> InternAll(
    const std::vector<std::string>& names) {
  std::vector<SymbolId> ids;
  CQA_RETURN_NOT_OK(InternNames(
      std::vector<std::string_view>(names.begin(), names.end()), &ids));
  return ids;
}

SolveReply MakeSolveReply(const Service::SolveResponse& response) {
  SolveReply reply;
  reply.certain = response.outcome.certain;
  reply.solver_kind = ToString(response.outcome.solver);
  reply.epoch = response.epoch;
  return reply;
}

}  // namespace

std::string Server::HandleVerb(Verb verb, const std::string& payload,
                               const Deadline& deadline) {
  Reader r(payload);
  switch (verb) {
    case Verb::kHello: {
      Result<HelloRequest> req = DecodeHelloRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      if (req->min_version > kProtocolVersion ||
          req->max_version < kProtocolVersion) {
        return StatusOnly(Status::InvalidArgument(
            "no common protocol version (server speaks " +
            std::to_string(int(kProtocolVersion)) + ")"));
      }
      HelloResponse resp;
      resp.version = kProtocolVersion;
      resp.server_name = options_.server_name;
      resp.max_payload = kMaxPayload;
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeHelloResponse(&w, resp);
      return out;
    }

    case Verb::kCreateDatabase: {
      Result<CreateDatabaseRequest> req = DecodeCreateDatabaseRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      return StatusOnly(
          service_->CreateDatabase(req->name, std::move(req->db)));
    }

    case Verb::kDropDatabase: {
      Result<NameRequest> req = DecodeNameRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      return StatusOnly(service_->DropDatabase(req->name));
    }

    case Verb::kListDatabases:
    case Verb::kListStores: {
      // Both carry an empty request payload.
      if (!r.done()) return StatusOnly(MalformedPayload("list request"));
      NameListResponse resp;
      resp.names = verb == Verb::kListDatabases ? service_->ListDatabases()
                                                : service_->ListStores();
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeNameListResponse(&w, resp);
      return out;
    }

    case Verb::kOpenStore: {
      Result<NameRequest> req = DecodeNameRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      Result<Service::OpenStoreResponse> opened =
          service_->OpenStore(req->name);
      if (!opened.ok()) return StatusOnly(opened.status());
      OpenStoreResponse resp;
      resp.epoch = opened->epoch;
      resp.replayed = opened->replayed;
      resp.torn_tail_recovered = opened->torn_tail_recovered;
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeOpenStoreResponse(&w, resp);
      return out;
    }

    case Verb::kPrepare: {
      Result<PrepareRequest> req = DecodePrepareRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      Service::PrepareOptions popts;
      if (!req->force_solver.empty()) {
        std::optional<SolverKind> kind =
            SolverKindFromString(req->force_solver);
        if (!kind) {
          return StatusOnly(Status::InvalidArgument("unknown solver: " +
                                                    req->force_solver));
        }
        popts.force_solver = *kind;
      }
      Result<std::vector<SymbolId>> free_vars = InternAll(req->free_vars);
      if (!free_vars.ok()) return StatusOnly(free_vars.status());
      Result<PreparedQueryHandle> handle =
          service_->Prepare(req->query, *free_vars, popts);
      if (!handle.ok()) return StatusOnly(handle.status());
      RememberPrepared(*handle);
      PrepareResponse resp;
      resp.prepared_id = (*handle)->id();
      resp.solver_kind = ToString((*handle)->solver_kind());
      resp.complexity = ComplexityClassName((*handle)->complexity());
      resp.parameterized = (*handle)->parameterized();
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodePrepareResponse(&w, resp);
      return out;
    }

    case Verb::kSolve: {
      Result<SolveCall> call = DecodeSolveCall(&r);
      if (!call.ok()) return StatusOnly(call.status());
      Service::SolveRequest sreq;
      sreq.database = call->database;
      if (!call->prepared_id.empty()) {
        Result<PreparedQueryHandle> handle =
            ResolvePrepared(call->prepared_id);
        if (!handle.ok()) return StatusOnly(handle.status());
        sreq.prepared = *handle;
      }
      sreq.query = std::move(call->query);
      sreq.deadline = deadline;
      Result<Service::SolveResponse> resp = service_->Solve(sreq);
      if (!resp.ok()) return StatusOnly(resp.status());
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeSolveReply(&w, MakeSolveReply(*resp));
      return out;
    }

    case Verb::kSolveBatch: {
      Result<SolveBatchRequest> req = DecodeSolveBatchRequest(&r);
      if (!req.ok()) return StatusOnly(req.status());
      std::vector<Service::SolveRequest> sreqs;
      sreqs.reserve(req->calls.size());
      // Handle resolution failures must stay positional, so a bad id
      // becomes a poisoned entry (unknown database forces the per-item
      // error from the Service) — resolved statuses override below.
      std::vector<Status> resolve_errors(req->calls.size());
      for (size_t i = 0; i < req->calls.size(); ++i) {
        SolveCall& call = req->calls[i];
        Service::SolveRequest sreq;
        sreq.database = call.database;
        if (!call.prepared_id.empty()) {
          Result<PreparedQueryHandle> handle =
              ResolvePrepared(call.prepared_id);
          if (handle.ok()) {
            sreq.prepared = *handle;
          } else {
            resolve_errors[i] = handle.status();
          }
        }
        sreq.query = std::move(call.query);
        sreq.deadline = deadline;
        sreqs.push_back(std::move(sreq));
      }
      std::vector<Result<Service::SolveResponse>> results =
          service_->SolveBatch(sreqs);
      SolveBatchResponse resp;
      resp.items.reserve(results.size());
      for (size_t i = 0; i < results.size(); ++i) {
        if (!resolve_errors[i].ok()) {
          resp.items.emplace_back(resolve_errors[i], SolveReply{});
        } else if (!results[i].ok()) {
          resp.items.emplace_back(results[i].status(), SolveReply{});
        } else {
          resp.items.emplace_back(Status::OK(), MakeSolveReply(*results[i]));
        }
      }
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeSolveBatchResponse(&w, resp);
      return out;
    }

    case Verb::kCertainAnswers: {
      Result<CertainAnswersCall> call = DecodeCertainAnswersCall(&r);
      if (!call.ok()) return StatusOnly(call.status());
      Service::CertainAnswersRequest creq;
      creq.database = call->database;
      if (!call->prepared_id.empty()) {
        Result<PreparedQueryHandle> handle =
            ResolvePrepared(call->prepared_id);
        if (!handle.ok()) return StatusOnly(handle.status());
        creq.prepared = *handle;
      }
      creq.query = std::move(call->query);
      Result<std::vector<SymbolId>> free_vars = InternAll(call->free_vars);
      if (!free_vars.ok()) return StatusOnly(free_vars.status());
      creq.free_vars = std::move(free_vars).value();
      creq.page_size = static_cast<size_t>(call->page_size);
      creq.page_token = std::move(call->page_token);
      creq.deadline = deadline;
      Result<Service::CertainAnswersResponse> resp =
          service_->CertainAnswers(creq);
      if (!resp.ok()) return StatusOnly(resp.status());
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeCertainAnswersResponse(&w, *resp);
      return out;
    }

    case Verb::kApplyDelta: {
      Result<ApplyDeltaCall> call = DecodeApplyDeltaCall(&r);
      if (!call.ok()) return StatusOnly(call.status());
      Service::DeltaRequest dreq;
      dreq.database = call->database;
      dreq.delta = std::move(call->delta);
      dreq.deadline = deadline;
      Result<Service::DeltaResponse> resp = service_->ApplyDelta(dreq);
      if (!resp.ok()) return StatusOnly(resp.status());
      ApplyDeltaReply reply;
      reply.epoch = resp->epoch;
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeApplyDeltaReply(&w, reply);
      return out;
    }

    case Verb::kStats: {
      Result<StatsCall> call = DecodeStatsCall(&r);
      if (!call.ok()) return StatusOnly(call.status());
      Service::StatsRequest sreq;
      sreq.database = call->database;
      Result<Service::StatsResponse> resp = service_->Stats(sreq);
      if (!resp.ok()) return StatusOnly(resp.status());
      StatsReply reply;
      reply.counters = FlattenStats(*resp);
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeStatsReply(&w, reply);
      return out;
    }

    case Verb::kMetrics: {
      if (!r.done()) return StatusOnly(MalformedPayload("metrics request"));
      Result<Service::StatsResponse> stats =
          service_->Stats(Service::StatsRequest{});
      MetricsReply reply;
      MetricGauges extra;
      {
        Counters c = counters();
        extra["server.connections_accepted"] = c.connections_accepted;
        extra["server.connections_active"] = c.active_connections;
        extra["server.connections_closed"] = c.connections_closed;
        extra["server.connections_rejected"] = c.connections_rejected;
        extra["server.protocol_errors"] = c.protocol_errors;
        extra["server.requests_total"] = c.requests;
        extra["server.responses_total"] = c.responses;
        extra["server.shed_inflight"] = c.shed_inflight;
        extra["server.shed_queue"] = c.shed_queue;
        extra["server.bytes_read"] = c.bytes_read;
        extra["server.bytes_written"] = c.bytes_written;
        extra["server.deadline_exceeded_total"] = c.deadline_exceeded;
        extra["server.idle_reaped_total"] = c.idle_reaped;
        extra["server.write_stall_evicted_total"] = c.write_stall_evicted;
        extra["server.drain_shed_total"] = c.drain_shed;
        extra["server.metrics_samples"] = exporter_.samples_taken();
      }
      reply.text = RenderPrometheus(
          stats.ok() ? FlattenStats(*stats) : std::map<std::string, uint64_t>{},
          extra);
      std::string out;
      Writer w(&out);
      EncodeStatus(&w, Status::OK());
      EncodeMetricsReply(&w, reply);
      return out;
    }
  }
  return StatusOnly(Status::InvalidArgument(
      "unknown verb " + std::to_string(int(static_cast<uint8_t>(verb)))));
}

}  // namespace net
}  // namespace cqa
