#ifndef STREAMREL_NET_CLIENT_H_
#define STREAMREL_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "net/protocol.h"

namespace streamrel::net {

/// A window-close batch pushed by the server for an active subscription.
struct Push {
  std::string source;  // subscribed CQ or stream name
  int64_t close = 0;   // window-close watermark (micros)
  std::vector<Row> rows;
};

/// Synchronous streamrel wire-protocol client. One socket, one outstanding
/// request at a time; pushed STREAM_ROWS frames that arrive while waiting
/// for a response are buffered and handed out by NextPush().
///
/// Every blocking call takes a deadline-based timeout in microseconds;
/// a timeout returns Status::Unavailable and leaves the connection usable
/// unless the failure was a socket error (then the client is closed).
///
/// Not thread-safe: use one Client per thread.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept { *this = std::move(other); }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      next_request_id_ = other.next_request_id_;
      read_buf_ = std::move(other.read_buf_);
      read_off_ = other.read_off_;
      pending_pushes_ = std::move(other.pending_pushes_);
    }
    return *this;
  }

  /// Connects to host:port; fails with Unavailable after `timeout_micros`.
  /// Fault point: `net.connect` (before the socket is created).
  Status Connect(const std::string& host, uint16_t port,
                 int64_t timeout_micros = 5'000'000);

  /// Reconnect policy for ConnectWithRetry — the sink-retry discipline
  /// (SET RETRY LIMIT / SET RETRY BACKOFF, DESIGN decision 9) applied to
  /// the client's socket: a total attempt budget with exponential backoff
  /// between failures.
  struct RetryPolicy {
    int64_t attempts = 10;          // total attempts; 1 = no retries
    int64_t backoff_micros = 1000;  // first retry delay; doubles per retry
  };

  /// Connect with retries: up to `policy.attempts` Connect() calls,
  /// sleeping an exponentially growing backoff between failures. Used by
  /// the standby's replication fetch loop and by subscribers riding out a
  /// failover; an injected crash status is not retried (the "process" is
  /// dead, retrying would mask the kill under test).
  Status ConnectWithRetry(const std::string& host, uint16_t port,
                          const RetryPolicy& policy,
                          int64_t timeout_micros = 5'000'000);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Executes one or more ';'-separated SQL statements server-side and
  /// returns the last statement's result.
  Result<RowSet> Query(const std::string& sql,
                       int64_t timeout_micros = 5'000'000);

  /// Pushes ordered rows into a raw stream (binary path — no SQL parse).
  /// Pass `system_time` for CQTIME SYSTEM streams.
  Status IngestBatch(const std::string& stream, const std::vector<Row>& rows,
                     int64_t system_time = INT64_MIN,
                     int64_t timeout_micros = 5'000'000);

  /// Subscribes to a CQ's window-close results or a stream's published
  /// batches; results arrive via NextPush().
  Status Subscribe(const std::string& name,
                   int64_t timeout_micros = 5'000'000);
  Status Unsubscribe(const std::string& name,
                     int64_t timeout_micros = 5'000'000);

  /// Subscribe with a resume token: `resume_close` is the close of the
  /// last window this client fully received (INT64_MIN = from the
  /// beginning of retained history). The server replays every missed
  /// window from the object's channel table as ordinary pushes — in
  /// close order, before any live window — then attaches live delivery:
  /// no duplicate, no gap.
  Status SubscribeResume(const std::string& name, int64_t resume_close,
                         int64_t timeout_micros = 5'000'000);

  /// Replication fetch (the standby's poll): asks the primary for a slice
  /// of its synced WAL from byte `from_offset`. The request doubles as
  /// the acknowledgement that everything before `from_offset`
  /// (`applied_frames` records) is applied and durable on the standby —
  /// the primary's lag gauges are computed from it.
  Result<ReplFramesBody> ReplFetch(uint64_t from_offset,
                                   uint64_t applied_frames,
                                   int64_t timeout_micros = 5'000'000);

  /// Liveness round-trip.
  Status Ping(int64_t timeout_micros = 5'000'000);

  /// Returns the next pushed subscription batch, waiting up to the
  /// timeout; Unavailable if none arrives in time.
  Result<Push> NextPush(int64_t timeout_micros = 5'000'000);

 private:
  /// Sends `request` and waits for the response frame with the same
  /// request id, buffering any pushes that arrive in between.
  Result<Frame> Roundtrip(const Frame& request, int64_t timeout_micros);
  /// Roundtrip for requests answered by an ACK.
  Status AckRoundtrip(const Frame& request, int64_t timeout_micros);
  /// Buffers a pushed STREAM_ROWS frame for NextPush(). A SHUTDOWN
  /// goodbye or an undecodable push closes the client instead.
  Status TakePush(const Frame& frame);
  Status SendFrame(const Frame& frame, int64_t deadline_micros);
  /// Reads until one complete frame is decoded or the deadline passes.
  Result<Frame> ReadFrame(int64_t deadline_micros);
  Status FillReadBuffer(int64_t deadline_micros);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string read_buf_;
  size_t read_off_ = 0;
  std::deque<Push> pending_pushes_;
};

}  // namespace streamrel::net

#endif  // STREAMREL_NET_CLIENT_H_
