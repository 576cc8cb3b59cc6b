#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace streamrel::net {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMicros(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

/// Upper bound on one condvar wait while a BLOCK-policy push waits for
/// room: deliveries are woken promptly when TryFlush retires bytes, and
/// this bound guarantees the waiter re-runs its own TryFlush even if no
/// signal arrives (the loop thread may be blocked on the engine lock).
constexpr int64_t kBlockPollMicros = 200;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Server::Server(engine::Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      request_micros_(stream::Histogram::LatencyMicrosBounds()) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (loop_thread_.joinable()) {
    return Status::InvalidArgument("server already running");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host '" + options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // --port 0 binds an ephemeral port; read back which one we got so
  // parallel test runs never collide.
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    Status st = Errno("getsockname");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 64) < 0) {
    Status st = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (pipe(wake_fds_) < 0) {
    Status st = Errno("pipe");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  RETURN_IF_ERROR(SetNonBlocking(wake_fds_[0]));
  RETURN_IF_ERROR(SetNonBlocking(wake_fds_[1]));
  stop_requested_.store(false);
  drain_requested_.store(false);
  workers_stop_.store(false);
  running_.store(true, std::memory_order_release);
  db_->RegisterStatsProvider(
      "net", [this](std::vector<stream::MetricSample>* samples) {
        AppendNetStats(samples);
      });
  for (int i = 0; i < options_.worker_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->thread = std::thread(&Server::WorkerLoop, this, worker.get());
    workers_.push_back(std::move(worker));
  }
  loop_thread_ = std::thread(&Server::Loop, this);
  return Status::OK();
}

void Server::Stop() { ShutdownInternal(/*graceful=*/false); }

void Server::Drain() { ShutdownInternal(/*graceful=*/true); }

void Server::ShutdownInternal(bool graceful) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!loop_thread_.joinable()) return;
  if (graceful) {
    drain_requested_.store(true);
  } else {
    stop_requested_.store(true);
  }
  Wake();
  loop_thread_.join();
  // Workers drain their remaining queues and exit; responses for already
  // reaped connections are dropped by the dead/closed checks.
  workers_stop_.store(true);
  for (auto& worker : workers_) {
    worker->cv.notify_all();
    worker->thread.join();
  }
  workers_.clear();
  db_->UnregisterStatsProvider("net");
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
  running_.store(false, std::memory_order_release);
}

void Server::Wake() {
  if (wake_fds_[1] >= 0) {
    char byte = 'w';
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }
}

void Server::Loop() {
  bool draining = false;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> polled;
  while (!stop_requested_.load()) {
    if (drain_requested_.load() && !draining) {
      draining = true;
      drain_deadline = Clock::now() + std::chrono::microseconds(
                                          options_.drain_timeout_micros);
      // Stop accepting and stop producing: new connections are refused
      // and every subscription detaches, so queues only drain from here.
      if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [fd, conn] : conns_) {
        // Detach under the connection lock (a worker may be mid-SUBSCRIBE),
        // but call the engine without it: Unsubscribe takes the exclusive
        // engine lock, and delivery callbacks holding it shared also take
        // conn->mu.
        std::vector<Subscription> subs;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          subs = std::move(conn->subs);
          conn->subs.clear();
        }
        for (Subscription& sub : subs) {
          db_->Unsubscribe(sub.ticket);
          counters_.subscriptions_active.fetch_sub(1);
        }
        // Graceful goodbye: a final SHUTDOWN frame after the last
        // subscription delivery, so clients distinguish a drain (resume
        // elsewhere with their token) from a crash (reconnect-retry).
        EnqueueResponse(conn,
                        Frame{FrameType::kShutdown, 0,
                              EncodeShutdownBody("server draining")});
      }
    }
    if (draining) {
      // Requests still in worker queues may yet enqueue responses; wait
      // for them before judging the send queues final.
      bool pending = tasks_inflight_.load() > 0;
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->dead && !conn->out.empty()) pending = true;
      }
      if (!pending || Clock::now() >= drain_deadline) break;
    }

    pfds.clear();
    polled.clear();
    if (listen_fd_ >= 0 && !draining) {
      pfds.push_back({listen_fd_, POLLIN, 0});
    }
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = draining ? 0 : POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty()) events |= POLLOUT;
      }
      pfds.push_back({fd, events, 0});
      polled.push_back(conn);
    }
    poll(pfds.data(), pfds.size(), draining ? 5 : 50);

    size_t idx = 0;
    if (listen_fd_ >= 0 && !draining) {
      if (pfds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }
    if (pfds[idx].revents & POLLIN) {
      char sink[256];
      while (read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    ++idx;
    for (size_t c = 0; c < polled.size(); ++c, ++idx) {
      const ConnPtr& conn = polled[c];
      const short re = pfds[idx].revents;
      if (re & POLLOUT) TryFlush(conn);
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        KillConnection(conn);
        continue;
      }
      if (!draining && (re & POLLIN)) HandleReadable(conn);
    }

    for (auto it = conns_.begin(); it != conns_.end();) {
      bool dead;
      {
        std::lock_guard<std::mutex> lock(it->second->mu);
        dead = it->second->dead;
      }
      if (dead) {
        Reap(it->second);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Shutdown: close everything that is left.
  for (auto& [fd, conn] : conns_) Reap(conn);
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptNew() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error; poll again
    }
    counters_.connections_accepted.fetch_add(1);
    if (!FaultInjector::Instance().Hit("net.accept").ok()) {
      close(fd);
      counters_.connections_closed.fetch_add(1);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      counters_.connections_closed.fetch_add(1);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::HandleReadable(const ConnPtr& conn) {
  if (!FaultInjector::Instance().Hit("net.read").ok()) {
    KillConnection(conn);
    return;
  }
  char tmp[64 * 1024];
  for (;;) {
    ssize_t n = recv(conn->fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      conn->read_buf.append(tmp, static_cast<size_t>(n));
      counters_.bytes_in.fetch_add(n);
      if (static_cast<size_t>(n) < sizeof(tmp)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      KillConnection(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    KillConnection(conn);
    return;
  }
  for (;;) {
    Frame frame;
    std::string error;
    DecodeStatus ds =
        TryDecodeFrame(conn->read_buf, &conn->read_off, &frame, &error);
    if (ds == DecodeStatus::kNeedMore) break;
    if (ds == DecodeStatus::kCorrupt) {
      // Length-prefixed framing cannot resync after a bad header: tell
      // the client why (best effort) and drop the connection. The engine
      // is untouched.
      counters_.frames_bad.fetch_add(1);
      ReplyError(conn, 0, Status::IoError("corrupt frame: " + error));
      KillConnection(conn);
      return;
    }
    SubmitFrame(conn, std::move(frame));
    bool dead;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      dead = conn->dead;
    }
    if (dead) return;
  }
  if (conn->read_off > 0) {
    conn->read_buf.erase(0, conn->read_off);
    conn->read_off = 0;
  }
}

void Server::SubmitFrame(const ConnPtr& conn, Frame frame) {
  if (workers_.empty()) {
    DispatchFrame(conn, std::move(frame));
    return;
  }
  Worker* worker = workers_[conn->id % workers_.size()].get();
  tasks_inflight_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->queue.push_back(Task{conn, std::move(frame)});
  }
  worker->cv.notify_one();
}

void Server::WorkerLoop(Worker* worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&] {
        return workers_stop_.load() || !worker->queue.empty();
      });
      // On shutdown the queue is drained before exiting, so a request
      // accepted before Stop()/Drain() still executes (its response is
      // simply dropped if the connection is already gone).
      if (worker->queue.empty()) return;
      task = std::move(worker->queue.front());
      worker->queue.pop_front();
    }
    DispatchFrame(task.conn, std::move(task.frame));
    tasks_inflight_.fetch_sub(1);
  }
}

void Server::DispatchFrame(const ConnPtr& conn, Frame frame) {
  const Clock::time_point start = Clock::now();
  switch (frame.type) {
    case FrameType::kQuery: {
      counters_.frames_query.fetch_add(1);
      auto sql = DecodeQueryBody(frame.body);
      if (!sql.ok()) {
        ReplyError(conn, frame.request_id, sql.status());
        break;
      }
      DoQuery(conn, frame.request_id, *sql);
      break;
    }
    case FrameType::kIngestBatch:
      counters_.frames_ingest_batch.fetch_add(1);
      DoIngest(conn, frame.request_id, frame.body);
      break;
    case FrameType::kSubscribe: {
      counters_.frames_subscribe.fetch_add(1);
      auto name = DecodeNameBody(frame.body);
      if (!name.ok()) {
        ReplyError(conn, frame.request_id, name.status());
        break;
      }
      DoSubscribe(conn, frame.request_id, *name, std::nullopt);
      break;
    }
    case FrameType::kUnsubscribe: {
      counters_.frames_unsubscribe.fetch_add(1);
      auto name = DecodeNameBody(frame.body);
      if (!name.ok()) {
        ReplyError(conn, frame.request_id, name.status());
        break;
      }
      DoUnsubscribe(conn, frame.request_id, *name);
      break;
    }
    case FrameType::kSubscribeResume: {
      counters_.frames_subscribe.fetch_add(1);
      auto req = DecodeSubscribeResumeBody(frame.body);
      if (!req.ok()) {
        ReplyError(conn, frame.request_id, req.status());
        break;
      }
      DoSubscribe(conn, frame.request_id, req->name, req->resume_close);
      break;
    }
    case FrameType::kReplFetch: {
      counters_.frames_repl_fetch.fetch_add(1);
      auto req = DecodeReplFetchBody(frame.body);
      if (!req.ok()) {
        ReplyError(conn, frame.request_id, req.status());
        break;
      }
      DoReplFetch(conn, frame.request_id, *req);
      break;
    }
    case FrameType::kPing:
      counters_.frames_ping.fetch_add(1);
      EnqueueResponse(conn, Frame{FrameType::kAck, frame.request_id,
                                  EncodeAckBody("PONG")});
      break;
    default:
      counters_.frames_bad.fetch_add(1);
      ReplyError(conn, frame.request_id,
                 Status::InvalidArgument(std::string("unexpected frame type ") +
                                         FrameTypeName(frame.type) +
                                         " from client"));
      break;
  }
  request_micros_.Record(ElapsedMicros(start));
}

void Server::DoQuery(const ConnPtr& conn, uint64_t request_id,
                     const std::string& sql) {
  // Intercept SUBSCRIBE / UNSUBSCRIBE: they bind to this connection and
  // never reach Database::Execute.
  auto parsed = sql::ParseSql(sql);
  if (!parsed.ok()) {
    ReplyError(conn, request_id, parsed.status());
    return;
  }
  bool has_sub = false;
  for (const auto& stmt : *parsed) {
    if (stmt->kind() == sql::StatementKind::kSubscribe ||
        stmt->kind() == sql::StatementKind::kUnsubscribe) {
      has_sub = true;
    }
  }
  if (has_sub) {
    if (parsed->size() != 1) {
      ReplyError(conn, request_id,
                 Status::InvalidArgument("SUBSCRIBE/UNSUBSCRIBE must be the "
                                         "only statement in its request"));
      return;
    }
    const sql::Statement& stmt = *(*parsed)[0];
    if (stmt.kind() == sql::StatementKind::kSubscribe) {
      const auto& sub = static_cast<const sql::SubscribeStmt&>(stmt);
      DoSubscribe(conn, request_id, sub.name,
                  sub.has_resume ? std::optional<int64_t>(sub.resume_close)
                                 : std::nullopt);
    } else {
      DoUnsubscribe(conn, request_id,
                    static_cast<const sql::UnsubscribeStmt&>(stmt).name);
    }
    return;
  }
  auto result = db_->Execute(sql);
  if (!result.ok()) {
    ReplyError(conn, request_id, result.status());
    return;
  }
  RowSet rowset;
  rowset.message = result->message;
  rowset.schema = result->schema;
  rowset.rows = std::move(result->rows);
  EnqueueResponse(conn, Frame{FrameType::kRowSet, request_id,
                              EncodeRowSetBody(rowset)});
}

void Server::DoIngest(const ConnPtr& conn, uint64_t request_id,
                      const std::string& body) {
  // The body decodes straight into columnar form. A ragged body's
  // wrong-arity rows ride in the batch torn, and the runtime quarantines
  // them.
  IngestColumnarRequest req;
  Status st = DecodeIngestBodyColumnar(body, &req).status();
  const size_t n = req.batch.row_count();
  if (st.ok()) {
    st = db_->Ingest(req.stream, std::move(req.batch), req.system_time);
  }
  if (!st.ok()) {
    ReplyError(conn, request_id, st);
    return;
  }
  EnqueueResponse(conn, Frame{FrameType::kAck, request_id,
                              EncodeAckBody("INGEST " + std::to_string(n))});
}

void Server::DoSubscribe(const ConnPtr& conn, uint64_t request_id,
                         const std::string& name,
                         std::optional<int64_t> resume_close) {
  const std::string key = ToLower(name);
  bool duplicate = false;
  {
    // Same-connection requests are serialized on one worker, so the
    // dup-check/insert pair below cannot race itself; the lock protects
    // against the loop thread detaching subs concurrently (drain, reap).
    // EnqueueResponse takes conn->mu itself, so respond after unlocking.
    std::lock_guard<std::mutex> lock(conn->mu);
    for (const Subscription& sub : conn->subs) {
      if (ToLower(sub.name) == key) duplicate = true;
    }
  }
  if (duplicate) {
    ReplyError(conn, request_id,
               Status::AlreadyExists("already subscribed to '" + name + "'"));
    return;
  }
  // Every pushed frame of this subscription, live or replayed, encoded
  // straight from the delivered rows.
  auto push_frame = [request_id, name](int64_t close,
                                       const std::vector<Row>& rows) {
    std::string bytes;
    EncodeStreamRowsFrame(request_id, name, close, rows, &bytes);
    return bytes;
  };
  // The engine attaches the callback before this worker enqueues the ack
  // (and the backfill), so a window that closes in that gap would jump
  // the queue. The gate holds such early pushes and releases them, in
  // order, once the ack and the backfill are queued.
  struct Gate {
    std::mutex mu;
    bool open = false;
    /// Source stream whose overload policy governs the pushes; the ticket
    /// names it, so it is set when the gate opens.
    std::string policy_stream;
    std::vector<std::string> held;  // encoded frames, arrival order
  };
  auto gate = std::make_shared<Gate>();
  ConnPtr c = conn;
  stream::CqCallback callback = [this, c, push_frame, gate](
                                    int64_t close,
                                    const std::vector<Row>& rows) {
    if (c->closed.load(std::memory_order_acquire)) return Status::OK();
    std::string bytes = push_frame(close, rows);
    // Holding gate->mu while enqueueing keeps this frame behind any held
    // ones the subscribing worker is still flushing. Deliveries to one
    // subscription are already serialized by the source stream's ingest
    // lock, so the mutex is uncontended in steady state.
    std::lock_guard<std::mutex> lock(gate->mu);
    if (gate->open) {
      EnqueuePush(c, gate->policy_stream, std::move(bytes));
    } else {
      gate->held.push_back(std::move(bytes));
    }
    return Status::OK();
  };
  std::vector<engine::Database::ResumeBatch> backfill;
  auto ticket = resume_close.has_value()
                    ? db_->SubscribeResume(name, *resume_close,
                                           std::move(callback), &backfill)
                    : db_->Subscribe(name, std::move(callback));
  if (!ticket.ok()) {
    ReplyError(conn, request_id, ticket.status());
    return;
  }
  const std::string policy_stream = ticket->source_stream;
  Subscription sub{ticket.TakeValue(), name};
  bool reaped = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    reaped = conn->closed.load(std::memory_order_acquire);
    if (!reaped) conn->subs.push_back(std::move(sub));
  }
  if (reaped) {
    // The loop thread reaped the connection between Subscribe and the
    // insert; it already detached everything it saw, so detach this
    // ticket ourselves instead of leaking the callback.
    db_->Unsubscribe(sub.ticket);
    return;
  }
  counters_.subscriptions_active.fetch_add(1);
  EnqueueResponse(conn, Frame{FrameType::kAck, request_id,
                              EncodeAckBody("SUBSCRIBED " + name)});
  // Backfill rides the response path (never shed): the client is waiting
  // for exactly these windows, and shedding them would reintroduce the
  // gap the resume token exists to close.
  for (const engine::Database::ResumeBatch& window : backfill) {
    EnqueueResponse(conn, push_frame(window.close, window.rows));
  }
  // Open the gate and flush the pushes that closed in the meantime; new
  // deliveries wait on gate->mu until the flush finishes.
  std::lock_guard<std::mutex> lock(gate->mu);
  gate->open = true;
  gate->policy_stream = policy_stream;
  for (std::string& bytes : gate->held) {
    EnqueuePush(conn, policy_stream, std::move(bytes));
  }
  gate->held.clear();
}

void Server::DoReplFetch(const ConnPtr& conn, uint64_t request_id,
                         const ReplFetchRequest& req) {
  Status ship = FaultInjector::Instance().Hit("repl.ship");
  if (!ship.ok()) {
    // This fetch fails; the standby retries from the same offset. The
    // synced prefix it reads is immutable, so retries are idempotent.
    ReplyError(conn, request_id, ship);
    return;
  }
  if (FaultInjector::Instance().Hit("repl.ack").ok()) {
    // The fetch offset IS the ack: everything before it is applied and
    // durable on the standby. CAS-max — a delayed duplicate fetch must
    // not regress the gauge. A fired repl.ack models a lost ack: lag
    // reads high until the next fetch, but shipping continues.
    int64_t prev = counters_.repl_acked_bytes.load(std::memory_order_relaxed);
    const int64_t offset = static_cast<int64_t>(req.from_offset);
    while (offset > prev && !counters_.repl_acked_bytes.compare_exchange_weak(
                                prev, offset, std::memory_order_relaxed)) {
    }
    prev = counters_.repl_acked_records.load(std::memory_order_relaxed);
    const int64_t records = static_cast<int64_t>(req.applied_frames);
    while (records > prev &&
           !counters_.repl_acked_records.compare_exchange_weak(
               prev, records, std::memory_order_relaxed)) {
    }
  }
  // One slice per fetch (the WAL's frame cap) bounds a response frame well
  // under kMaxFramePayload while amortizing the round trip; a lagging
  // standby just fetches in a tight loop until it catches up.
  const storage::WriteAheadLog& wal = *db_->wal();
  ReplFramesBody body;
  body.start_offset = req.from_offset;
  body.bytes = wal.ReadSynced(static_cast<int64_t>(req.from_offset),
                              storage::kWalSliceBytes);
  body.primary_synced_bytes = static_cast<uint64_t>(wal.synced_bytes());
  counters_.repl_shipped_bytes.fetch_add(
      static_cast<int64_t>(body.bytes.size()), std::memory_order_relaxed);
  EnqueueResponse(conn, Frame{FrameType::kReplFrames, request_id,
                              EncodeReplFramesBody(body)});
}

void Server::DoUnsubscribe(const ConnPtr& conn, uint64_t request_id,
                           const std::string& name) {
  const std::string key = ToLower(name);
  bool found = false;
  engine::Database::SubscriptionTicket ticket;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    for (auto it = conn->subs.begin(); it != conn->subs.end(); ++it) {
      if (ToLower(it->name) == key) {
        ticket = std::move(it->ticket);
        conn->subs.erase(it);
        found = true;
        break;
      }
    }
  }
  if (found) {
    // Engine call outside conn->mu (Unsubscribe takes the exclusive
    // engine lock; delivery callbacks holding it shared take conn->mu).
    db_->Unsubscribe(ticket);
    counters_.subscriptions_active.fetch_sub(1);
    EnqueueResponse(conn, Frame{FrameType::kAck, request_id,
                                EncodeAckBody("UNSUBSCRIBED " + name)});
    return;
  }
  ReplyError(conn, request_id,
             Status::NotFound("not subscribed to '" + name + "'"));
}

void Server::EnqueueResponse(const ConnPtr& conn, const Frame& frame) {
  std::string bytes;
  EncodeFrame(frame, &bytes);
  EnqueueResponse(conn, std::move(bytes));
}

void Server::EnqueueResponse(const ConnPtr& conn, std::string bytes) {
  const size_t sz = bytes.size();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead || conn->closed.load()) return;
    OutFrame out;
    out.bytes = std::move(bytes);
    conn->out.push_back(std::move(out));
    conn->out_bytes += sz;
  }
  db_->runtime()->governor()->Add(MemoryGovernor::Account::kNetSendQueue,
                                  static_cast<int64_t>(sz));
  // The loop polls for POLLOUT only on queues it saw non-empty when it
  // built its poll set, so bytes the socket would not take now need a
  // wake, or they wait out the poll timeout.
  if (TryFlush(conn)) Wake();
}

void Server::ReplyError(const ConnPtr& conn, uint64_t request_id,
                        const Status& status) {
  EnqueueResponse(
      conn, Frame{FrameType::kError, request_id, EncodeErrorBody(status)});
}

void Server::EnqueuePush(const ConnPtr& conn,
                         const std::string& policy_stream,
                         std::string bytes) {
  counters_.pushes_total.fetch_add(1);
  MemoryGovernor* governor = db_->runtime()->governor();
  const size_t sz = bytes.size();
  const size_t limit = options_.max_send_queue_bytes;
  // A delivery callback holds the shared engine lock and the source
  // stream's ingest lock, so the policy read is consistent with the
  // delivery that produced this batch.
  const stream::OverloadPolicy policy =
      db_->runtime()->overload_policy(policy_stream);

  auto admit_locked = [&](std::string frame_bytes) {
    OutFrame out;
    out.bytes = std::move(frame_bytes);
    out.is_push = true;
    conn->out_bytes += sz;
    conn->out_push_bytes += sz;
    conn->out.push_back(std::move(out));
    governor->Add(MemoryGovernor::Account::kNetSendQueue,
                  static_cast<int64_t>(sz));
    counters_.pushes_admitted.fetch_add(1);
  };

  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->dead || conn->closed.load()) {
      counters_.pushes_disconnected.fetch_add(1);
      return;
    }
    if (conn->out_push_bytes + sz <= limit) {
      admit_locked(std::move(bytes));
      lock.unlock();
      Wake();
      return;
    }
    switch (policy) {
      case stream::OverloadPolicy::kShedNewest:
        counters_.pushes_shed.fetch_add(1);
        return;
      case stream::OverloadPolicy::kShedOldest: {
        // Evict queued push frames (oldest first) to make room. A frame
        // already partially on the wire cannot be evicted — pulling it
        // would desync the framing.
        for (auto it = conn->out.begin();
             it != conn->out.end() && conn->out_push_bytes + sz > limit;) {
          if (it->is_push && it->offset == 0) {
            const size_t evicted = it->bytes.size();
            governor->Release(MemoryGovernor::Account::kNetSendQueue,
                              static_cast<int64_t>(evicted));
            conn->out_bytes -= evicted;
            conn->out_push_bytes -= evicted;
            // Reclassify: this delivery was admitted, now it is shed.
            counters_.pushes_admitted.fetch_sub(1);
            counters_.pushes_shed.fetch_add(1);
            it = conn->out.erase(it);
          } else {
            ++it;
          }
        }
        if (conn->out_push_bytes + sz <= limit) {
          admit_locked(std::move(bytes));
          conn->drain_cv.notify_all();  // evictions freed push bytes
          lock.unlock();
          Wake();
        } else {
          // One frame larger than the whole bound: shed it. The evictions
          // above may still have freed queue space, so wake the loop (to
          // reconsider POLLOUT) and any BLOCK-policy delivery waiting on
          // this connection for another stream.
          counters_.pushes_shed.fetch_add(1);
          conn->drain_cv.notify_all();
          lock.unlock();
          Wake();
        }
        return;
      }
      case stream::OverloadPolicy::kBlock:
        break;  // wait loop below
    }
  }
  // BLOCK: bounded wait for the consumer to drain. We flush the socket
  // ourselves — the loop thread may itself be blocked on the engine lock
  // (an exclusive DDL acquisition queued behind the shared hold this
  // delivery rides on), so waiting on it could deadlock. The drain
  // condvar wakes us the moment TryFlush retires bytes (or the connection
  // dies); the bounded wait keeps the self-flush fallback alive even if
  // every signal is missed.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(options_.block_timeout_micros);
  for (;;) {
    TryFlush(conn);
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (conn->dead || conn->closed.load()) {
        counters_.pushes_disconnected.fetch_add(1);
        return;
      }
      if (conn->out_push_bytes + sz <= limit) {
        admit_locked(std::move(bytes));
        lock.unlock();
        Wake();
        return;
      }
      if (Clock::now() >= deadline) {
        // Slow consumer under a lossless policy: disconnecting it is the
        // only way to keep the engine moving.
        conn->dead = true;
        counters_.pushes_disconnected.fetch_add(1);
        counters_.slow_disconnects.fetch_add(1);
      } else {
        conn->drain_cv.wait_for(
            lock, std::chrono::microseconds(kBlockPollMicros), [&] {
              return conn->dead || conn->closed.load() ||
                     conn->out_push_bytes + sz <= limit;
            });
        continue;
      }
    }
    Wake();
    return;
  }
}

bool Server::TryFlush(const ConnPtr& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->fd < 0 || conn->dead) return false;
  if (conn->out.empty()) return false;
  if (!FaultInjector::Instance().Hit("net.write").ok()) {
    conn->dead = true;
    conn->broken = true;
    conn->drain_cv.notify_all();
    return false;
  }
  MemoryGovernor* governor = db_->runtime()->governor();
  bool progressed = false;
  while (!conn->out.empty()) {
    OutFrame& front = conn->out.front();
    ssize_t n = send(conn->fd, front.bytes.data() + front.offset,
                     front.bytes.size() - front.offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn->dead = true;
      conn->broken = true;
      conn->drain_cv.notify_all();
      return false;
    }
    counters_.bytes_out.fetch_add(n);
    front.offset += static_cast<size_t>(n);
    if (front.offset < front.bytes.size()) break;  // socket full mid-frame
    const size_t sz = front.bytes.size();
    governor->Release(MemoryGovernor::Account::kNetSendQueue,
                      static_cast<int64_t>(sz));
    conn->out_bytes -= sz;
    if (front.is_push) conn->out_push_bytes -= sz;
    conn->out.pop_front();
    progressed = true;
  }
  // Wake BLOCK-policy deliveries the moment queue bytes retire.
  if (progressed) conn->drain_cv.notify_all();
  return !conn->out.empty();
}

void Server::KillConnection(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
    conn->drain_cv.notify_all();
  }
  Wake();
}

void Server::Reap(const ConnPtr& conn) {
  // Mark the connection reaped and detach its subscriptions under the
  // lock (a worker may be mid-SUBSCRIBE; `closed` tells it to detach its
  // own late ticket), but call the engine without it: Unsubscribe takes
  // the exclusive engine lock, and delivery callbacks holding it shared
  // take conn->mu.
  std::vector<Subscription> subs;
  bool broken;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed.store(true, std::memory_order_release);
    subs = std::move(conn->subs);
    conn->subs.clear();
    broken = conn->broken;
    if (!broken) conn->dead = false;  // let the final flush run
  }
  for (Subscription& sub : subs) {
    db_->Unsubscribe(sub.ticket);
    counters_.subscriptions_active.fetch_sub(1);
  }
  // Try to get any queued error/ack out before the socket goes away.
  if (!broken) TryFlush(conn);
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->dead = true;
  MemoryGovernor* governor = db_->runtime()->governor();
  for (const OutFrame& frame : conn->out) {
    governor->Release(MemoryGovernor::Account::kNetSendQueue,
                      static_cast<int64_t>(frame.bytes.size()));
  }
  conn->out.clear();
  conn->out_bytes = 0;
  conn->out_push_bytes = 0;
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
  conn->drain_cv.notify_all();
  counters_.connections_closed.fetch_add(1);
}

NetStats Server::stats() const {
  NetStats s;
  s.connections_accepted = counters_.connections_accepted.load();
  s.connections_closed = counters_.connections_closed.load();
  s.connections_active = s.connections_accepted - s.connections_closed;
  s.bytes_in = counters_.bytes_in.load();
  s.bytes_out = counters_.bytes_out.load();
  s.frames_query = counters_.frames_query.load();
  s.frames_ingest_batch = counters_.frames_ingest_batch.load();
  s.frames_subscribe = counters_.frames_subscribe.load();
  s.frames_unsubscribe = counters_.frames_unsubscribe.load();
  s.frames_ping = counters_.frames_ping.load();
  s.frames_repl_fetch = counters_.frames_repl_fetch.load();
  s.frames_bad = counters_.frames_bad.load();
  s.repl_shipped_bytes = counters_.repl_shipped_bytes.load();
  s.repl_acked_bytes = counters_.repl_acked_bytes.load();
  s.repl_acked_records = counters_.repl_acked_records.load();
  // Replication lag: what this engine has made durable minus what the
  // standby last acknowledged as applied+durable. With no standby ever
  // attached the lag reads as the full synced log — which is the honest
  // answer to "how much would a standby be behind".
  s.repl_lag_bytes =
      std::max<int64_t>(0, db_->wal()->synced_bytes() - s.repl_acked_bytes);
  s.repl_lag_records = std::max<int64_t>(
      0, db_->wal()->synced_records() - s.repl_acked_records);
  s.pushes_total = counters_.pushes_total.load();
  s.pushes_admitted = counters_.pushes_admitted.load();
  s.pushes_shed = counters_.pushes_shed.load();
  s.pushes_disconnected = counters_.pushes_disconnected.load();
  s.slow_disconnects = counters_.slow_disconnects.load();
  s.subscriptions_active = counters_.subscriptions_active.load();
  s.send_queue_bytes = db_->runtime()->governor()->held(
      MemoryGovernor::Account::kNetSendQueue);
  return s;
}

void Server::AppendNetStats(
    std::vector<stream::MetricSample>* samples) const {
  const NetStats s = stats();
  auto add = [samples](const std::string& name, const std::string& metric,
                       int64_t value) {
    stream::MetricSample sample;
    sample.scope = "net";
    sample.name = name;
    sample.metric = metric;
    sample.value = value;
    samples->push_back(std::move(sample));
  };
  add("server", "connections_accepted", s.connections_accepted);
  add("server", "connections_active", s.connections_active);
  add("server", "connections_closed", s.connections_closed);
  add("server", "bytes_in", s.bytes_in);
  add("server", "bytes_out", s.bytes_out);
  add("frames", "query", s.frames_query);
  add("frames", "ingest_batch", s.frames_ingest_batch);
  add("frames", "subscribe", s.frames_subscribe);
  add("frames", "unsubscribe", s.frames_unsubscribe);
  add("frames", "ping", s.frames_ping);
  add("frames", "repl_fetch", s.frames_repl_fetch);
  add("frames", "bad", s.frames_bad);
  add("subscriptions", "active", s.subscriptions_active);
  add("subscriptions", "pushes_total", s.pushes_total);
  add("subscriptions", "pushes_admitted", s.pushes_admitted);
  add("subscriptions", "pushes_shed", s.pushes_shed);
  add("subscriptions", "pushes_disconnected", s.pushes_disconnected);
  add("subscriptions", "slow_disconnects", s.slow_disconnects);
  add("subscriptions", "send_queue_bytes", s.send_queue_bytes);
  request_micros_.AppendSamples("net", "requests", "request_micros", samples);
  // Primary-side shipping counters live under scope `repl` (not `net`),
  // joining the engine's standby-side gauges so `SHOW STATS FOR REPL`
  // reads the whole pair's health from either end.
  auto add_repl = [samples](const std::string& name,
                            const std::string& metric, int64_t value) {
    stream::MetricSample sample;
    sample.scope = "repl";
    sample.name = name;
    sample.metric = metric;
    sample.value = value;
    samples->push_back(std::move(sample));
  };
  add_repl("ship", "fetches", s.frames_repl_fetch);
  add_repl("ship", "shipped_bytes", s.repl_shipped_bytes);
  add_repl("ship", "acked_bytes", s.repl_acked_bytes);
  add_repl("ship", "acked_records", s.repl_acked_records);
  add_repl("ship", "lag_bytes", s.repl_lag_bytes);
  add_repl("ship", "lag_records", s.repl_lag_records);
}

}  // namespace streamrel::net
