#ifndef STREAMREL_NET_SERVER_H_
#define STREAMREL_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "net/protocol.h"
#include "stream/metrics.h"

namespace streamrel::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is reported by port() (and
  /// printed by streamrel-server), so parallel test runs never collide.
  uint16_t port = 0;
  /// Per-connection bound on queued *push* frames (SUBSCRIBE deliveries).
  /// Responses are exempt (the client is waiting for them) but still
  /// charged to the governor's kNetSendQueue account.
  size_t max_send_queue_bytes = 1u << 20;
  /// BLOCK slow-consumer policy: how long a delivery waits for the queue
  /// to drain before the consumer is declared dead and disconnected.
  int64_t block_timeout_micros = 50'000;
  /// Graceful drain: how long Drain() keeps flushing send queues before
  /// closing connections anyway.
  int64_t drain_timeout_micros = 2'000'000;
  /// If > 0, SO_SNDBUF for accepted sockets. Tests set this to the kernel
  /// minimum so a non-reading subscriber back-pressures after a few KB
  /// instead of after megabytes of kernel buffering.
  int so_sndbuf = 0;
  /// Request-dispatch workers: decoded frames (QUERY, INGEST_BATCH,
  /// SUBSCRIBE, ...) execute on this many threads, so requests from
  /// different connections — in particular INGEST_BATCH on disjoint
  /// streams — run concurrently under the engine's shared lock. A
  /// connection's frames always route to the same worker, preserving
  /// per-connection FIFO order. 0 executes frames inline on the event-loop
  /// thread (the pre-pool behavior).
  int worker_threads = 4;
};

/// Point-in-time network-front-end counters (the struct twin of
/// `SHOW STATS FOR NET`).
///
/// Slow-consumer accounting invariant, asserted by network_test:
///   pushes_total == pushes_admitted + pushes_shed + pushes_disconnected
/// where `admitted` counts deliveries currently accepted into a send
/// queue — a SHED_OLDEST eviction reclassifies an already-queued delivery
/// from admitted to shed, keeping the balance exact.
struct NetStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t connections_active = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t frames_query = 0;
  int64_t frames_ingest_batch = 0;
  int64_t frames_subscribe = 0;
  int64_t frames_unsubscribe = 0;
  int64_t frames_ping = 0;
  int64_t frames_repl_fetch = 0;
  int64_t frames_bad = 0;
  // Primary-side replication shipping (surfaced under scope `repl`).
  // Lag = this engine's synced WAL minus what the standby's last fetch
  // acknowledged as applied+durable.
  int64_t repl_shipped_bytes = 0;
  int64_t repl_acked_bytes = 0;
  int64_t repl_acked_records = 0;
  int64_t repl_lag_bytes = 0;
  int64_t repl_lag_records = 0;
  int64_t pushes_total = 0;
  int64_t pushes_admitted = 0;
  int64_t pushes_shed = 0;
  int64_t pushes_disconnected = 0;
  int64_t slow_disconnects = 0;
  int64_t subscriptions_active = 0;
  int64_t send_queue_bytes = 0;
};

/// The TCP front-end: a poll() event loop on one thread for socket I/O,
/// plus a small worker pool that executes decoded request frames through
/// Database. The engine's reader-writer lock hierarchy admits the workers
/// concurrently for data-plane requests (ingest on disjoint streams
/// parallelizes; DDL still serializes exclusively), and each connection's
/// frames run on one fixed worker, so a network session sees exactly the
/// in-process semantics. SUBSCRIBE attaches a Database::Subscribe callback
/// that fans window-close batches out to the connection's bounded send
/// queue; the source stream's overload policy decides whether a slow
/// consumer blocks the delivery, sheds batches, or is disconnected.
///
/// Fault points (FaultInjector): `net.accept`, `net.read`, `net.write` —
/// a fired fault kills the connection, never the engine.
class Server {
 public:
  explicit Server(engine::Database* db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event-loop thread. port() is valid
  /// (and the socket accepting) once this returns OK.
  Status Start();

  /// Immediate shutdown: close every connection, join the loop thread.
  void Stop();

  /// Graceful drain (SIGTERM path): stop accepting, flush send queues
  /// (bounded by drain_timeout_micros), close, join.
  void Drain();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  NetStats stats() const;

 private:
  struct OutFrame {
    std::string bytes;
    size_t offset = 0;    // bytes already written to the socket
    bool is_push = false;  // governed by the slow-consumer policy
  };

  struct Subscription {
    engine::Database::SubscriptionTicket ticket;
    std::string name;  // as subscribed (original casing)
  };

  struct Connection {
    uint64_t id = 0;
    /// Guards fd (for writes/close), the send queue, `dead`, and `subs`.
    std::mutex mu;
    int fd = -1;
    bool dead = false;    // marked for reaping by the loop thread
    bool broken = false;  // write path failed: skip the final flush
    std::deque<OutFrame> out;
    size_t out_bytes = 0;       // total queued bytes (governor-charged)
    size_t out_push_bytes = 0;  // queued push bytes (policy bound)
    /// Signaled whenever queued bytes are released (or the connection
    /// dies), so BLOCK-policy deliveries wake as soon as there is room
    /// instead of busy-polling.
    std::condition_variable drain_cv;
    /// Set once the loop thread has reaped the connection; delivery
    /// callbacks that still hold the shared_ptr become no-ops.
    std::atomic<bool> closed{false};
    // Loop-thread-only state (no lock needed).
    std::string read_buf;
    size_t read_off = 0;
    /// Guarded by mu: mutated by the owning worker (SUBSCRIBE /
    /// UNSUBSCRIBE frames) and detached by the loop thread (drain, reap).
    std::vector<Subscription> subs;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// One request-dispatch worker: a thread draining a FIFO of decoded
  /// frames. conn->id % workers_.size() picks the queue, so one
  /// connection's requests never reorder or run concurrently.
  struct Task {
    ConnPtr conn;
    Frame frame;
  };
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;  // guarded by mu
    std::thread thread;
  };

  void Loop();
  void WorkerLoop(Worker* worker);
  /// Routes a decoded frame to its connection's worker (or runs it inline
  /// when the pool is disabled).
  void SubmitFrame(const ConnPtr& conn, Frame frame);
  void AcceptNew();
  void HandleReadable(const ConnPtr& conn);
  void DispatchFrame(const ConnPtr& conn, Frame frame);
  void DoQuery(const ConnPtr& conn, uint64_t request_id,
               const std::string& sql);
  void DoIngest(const ConnPtr& conn, uint64_t request_id,
                const std::string& body);
  /// SUBSCRIBE, SUBSCRIBE_RESUME and `SUBSCRIBE TO name [RESUME n]` all
  /// land here. With a resume token the windows the client missed are
  /// replayed from the object's channel table, so delivery is exactly
  /// once across a reconnect. The wire order is always ack, then
  /// backfill, then live pushes: pushes that close before the ack is
  /// queued wait behind a gate.
  void DoSubscribe(const ConnPtr& conn, uint64_t request_id,
                   const std::string& name,
                   std::optional<int64_t> resume_close);
  void DoUnsubscribe(const ConnPtr& conn, uint64_t request_id,
                     const std::string& name);
  /// REPL_FETCH from a standby: records the fetch offset as the
  /// acknowledgement (fault point `repl.ack` — a fired fault loses the
  /// ack, inflating lag, but still serves), then ships the next slice of
  /// the synced WAL (fault point `repl.ship` — a fired fault fails this
  /// fetch; the standby retries from the same offset).
  void DoReplFetch(const ConnPtr& conn, uint64_t request_id,
                   const ReplFetchRequest& req);

  /// Enqueues a response frame (never shed; the client awaits it) and
  /// flushes it inline; if the socket leaves part of it queued, wakes the
  /// loop to poll for POLLOUT.
  void EnqueueResponse(const ConnPtr& conn, const Frame& frame);
  void EnqueueResponse(const ConnPtr& conn, std::string bytes);
  void ReplyError(const ConnPtr& conn, uint64_t request_id,
                  const Status& status);
  /// Enqueues a pushed subscription frame under `policy_stream`'s overload
  /// policy; called from delivery callbacks holding the shared engine lock
  /// and the source stream's ingest lock (on whatever thread drives
  /// ingest), and by DoSubscribe when it flushes the pushes it held back
  /// until the ack. Must never call back into db_.
  void EnqueuePush(const ConnPtr& conn, const std::string& policy_stream,
                   std::string bytes);

  /// Writes as much queued output as the socket accepts right now and
  /// returns whether bytes are left queued on a live connection.
  /// Callable from any thread (BLOCK-policy deliverers drain the socket
  /// themselves so a busy loop thread cannot deadlock them).
  bool TryFlush(const ConnPtr& conn);

  /// Marks a connection dead and wakes the loop to reap it.
  void KillConnection(const ConnPtr& conn);
  /// Loop thread: detaches subscriptions, releases queued-byte charges,
  /// closes the socket, drops the connection.
  void Reap(const ConnPtr& conn);

  void ShutdownInternal(bool graceful);
  void Wake();
  void AppendNetStats(std::vector<stream::MetricSample>* samples) const;

  engine::Database* db_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [read, write]
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex lifecycle_mu_;  // serializes Start/Stop/Drain

  std::map<int, ConnPtr> conns_;  // loop-thread-only, keyed by fd
  uint64_t next_conn_id_ = 1;

  // Request-dispatch pool (empty when worker_threads == 0). Workers are
  // started by Start() and joined by ShutdownInternal() after the loop
  // thread exits (they drain their queues first, so a request received
  // before shutdown still executes).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> workers_stop_{false};
  /// Frames submitted but not yet fully processed; Drain() waits for this
  /// to reach zero before declaring send queues final.
  std::atomic<int64_t> tasks_inflight_{0};

  // Counters shared between the loop thread and delivery threads.
  struct {
    std::atomic<int64_t> connections_accepted{0};
    std::atomic<int64_t> connections_closed{0};
    std::atomic<int64_t> bytes_in{0};
    std::atomic<int64_t> bytes_out{0};
    std::atomic<int64_t> frames_query{0};
    std::atomic<int64_t> frames_ingest_batch{0};
    std::atomic<int64_t> frames_subscribe{0};
    std::atomic<int64_t> frames_unsubscribe{0};
    std::atomic<int64_t> frames_ping{0};
    std::atomic<int64_t> frames_repl_fetch{0};
    std::atomic<int64_t> frames_bad{0};
    std::atomic<int64_t> repl_shipped_bytes{0};
    // CAS-maxed: fetch offsets are monotone per standby, but a retried
    // fetch after a lost ack must never move the ack backwards.
    std::atomic<int64_t> repl_acked_bytes{0};
    std::atomic<int64_t> repl_acked_records{0};
    std::atomic<int64_t> pushes_total{0};
    std::atomic<int64_t> pushes_admitted{0};
    std::atomic<int64_t> pushes_shed{0};
    std::atomic<int64_t> pushes_disconnected{0};
    std::atomic<int64_t> slow_disconnects{0};
    std::atomic<int64_t> subscriptions_active{0};
  } counters_;

  /// Per-request wall-time histogram (decode to response-enqueue);
  /// internally locked.
  stream::Histogram request_micros_;
};

}  // namespace streamrel::net

#endif  // STREAMREL_NET_SERVER_H_
