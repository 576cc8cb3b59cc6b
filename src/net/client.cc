#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/fault_injector.h"

namespace streamrel::net {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

int PollTimeoutMillis(int64_t deadline_micros) {
  int64_t left = deadline_micros - NowMicros();
  if (left <= 0) return 0;
  return static_cast<int>((left + 999) / 1000);
}

}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  read_buf_.clear();
  read_off_ = 0;
  pending_pushes_.clear();
}

Status Client::Connect(const std::string& host, uint16_t port,
                       int64_t timeout_micros) {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("net.connect"));
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  const int64_t deadline = NowMicros() + timeout_micros;
  int rc = connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    Status st = Errno("connect");
    Close();
    return st;
  }
  if (rc < 0) {
    // Non-blocking connect: wait for writability, then read SO_ERROR.
    pollfd pfd{fd_, POLLOUT, 0};
    for (;;) {
      int n = poll(&pfd, 1, PollTimeoutMillis(deadline));
      if (n > 0) break;
      if (n < 0 && errno == EINTR) continue;
      Close();
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      Close();
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status Client::ConnectWithRetry(const std::string& host, uint16_t port,
                                const RetryPolicy& policy,
                                int64_t timeout_micros) {
  // The WithSinkRetry shape (decision 9): attempt, classify, back off
  // exponentially, re-attempt up to the budget. Bad arguments and
  // injected crashes are permanent; everything else (refused, timed out,
  // reset) is the server restarting or promoting and is worth the wait.
  Status status = Connect(host, port, timeout_micros);
  int64_t backoff = policy.backoff_micros;
  for (int64_t attempt = 1; attempt < policy.attempts; ++attempt) {
    if (status.ok() || status.code() == StatusCode::kInvalidArgument ||
        FaultInjector::IsInjectedCrash(status)) {
      return status;
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    status = Connect(host, port, timeout_micros);
    if (backoff <= INT64_MAX / 2) backoff *= 2;
  }
  return status;
}

Status Client::SendFrame(const Frame& frame, int64_t deadline_micros) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  std::string bytes;
  EncodeFrame(frame, &bytes);
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      int rc = poll(&pfd, 1, PollTimeoutMillis(deadline_micros));
      if (rc == 0) return Status::Unavailable("send timed out");
      if (rc < 0 && errno != EINTR) {
        Status st = Errno("poll");
        Close();
        return st;
      }
      continue;
    }
    Status st = Errno("send");
    Close();
    return st;
  }
  return Status::OK();
}

Status Client::FillReadBuffer(int64_t deadline_micros) {
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    int rc = poll(&pfd, 1, PollTimeoutMillis(deadline_micros));
    if (rc == 0) return Status::Unavailable("read timed out");
    if (rc < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("poll");
      Close();
      return st;
    }
    break;
  }
  char tmp[64 * 1024];
  ssize_t n = recv(fd_, tmp, sizeof(tmp), 0);
  if (n > 0) {
    read_buf_.append(tmp, static_cast<size_t>(n));
    return Status::OK();
  }
  if (n == 0) {
    Close();
    return Status::IoError("server closed the connection");
  }
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
    return Status::OK();  // spurious wakeup; caller loops on the deadline
  }
  Status st = Errno("recv");
  Close();
  return st;
}

Result<Frame> Client::ReadFrame(int64_t deadline_micros) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  for (;;) {
    Frame frame;
    std::string error;
    DecodeStatus ds = TryDecodeFrame(read_buf_, &read_off_, &frame, &error);
    if (ds == DecodeStatus::kFrame) {
      if (read_off_ > 0) {
        read_buf_.erase(0, read_off_);
        read_off_ = 0;
      }
      return frame;
    }
    if (ds == DecodeStatus::kCorrupt) {
      Close();
      return Status::IoError("corrupt frame from server: " + error);
    }
    if (NowMicros() >= deadline_micros) {
      return Status::Unavailable("timed out waiting for server frame");
    }
    RETURN_IF_ERROR(FillReadBuffer(deadline_micros));
  }
}

Result<Frame> Client::Roundtrip(const Frame& request,
                                int64_t timeout_micros) {
  const int64_t deadline = NowMicros() + timeout_micros;
  RETURN_IF_ERROR(SendFrame(request, deadline));
  for (;;) {
    ASSIGN_OR_RETURN(Frame frame, ReadFrame(deadline));
    if (frame.type == FrameType::kStreamRows ||
        frame.type == FrameType::kShutdown) {
      // A push (or a drain goodbye) raced the response.
      RETURN_IF_ERROR(TakePush(frame));
      continue;
    }
    if (frame.request_id != request.request_id) {
      Close();
      return Status::IoError(
          "response request id mismatch (protocol desync)");
    }
    if (frame.type == FrameType::kError) {
      return DecodeErrorBody(frame.body);
    }
    return frame;
  }
}

Status Client::AckRoundtrip(const Frame& request, int64_t timeout_micros) {
  ASSIGN_OR_RETURN(Frame response, Roundtrip(request, timeout_micros));
  if (response.type != FrameType::kAck) {
    return Status::IoError(std::string("unexpected response frame ") +
                           FrameTypeName(response.type));
  }
  return Status::OK();
}

Result<RowSet> Client::Query(const std::string& sql,
                             int64_t timeout_micros) {
  Frame request{FrameType::kQuery, next_request_id_++,
                EncodeQueryBody(sql)};
  ASSIGN_OR_RETURN(Frame response, Roundtrip(request, timeout_micros));
  if (response.type == FrameType::kAck) {
    // SUBSCRIBE/UNSUBSCRIBE issued through Query(): surface the ack text.
    ASSIGN_OR_RETURN(std::string message, DecodeAckBody(response.body));
    RowSet rowset;
    rowset.message = std::move(message);
    return rowset;
  }
  if (response.type != FrameType::kRowSet) {
    return Status::IoError(std::string("unexpected response frame ") +
                           FrameTypeName(response.type));
  }
  return DecodeRowSetBody(response.body);
}

Status Client::IngestBatch(const std::string& stream,
                           const std::vector<Row>& rows, int64_t system_time,
                           int64_t timeout_micros) {
  IngestBatchRequest req;
  req.stream = stream;
  req.system_time = system_time;
  req.rows = rows;
  return AckRoundtrip({FrameType::kIngestBatch, next_request_id_++,
                       EncodeIngestBody(req)},
                      timeout_micros);
}

Status Client::Subscribe(const std::string& name, int64_t timeout_micros) {
  return AckRoundtrip(
      {FrameType::kSubscribe, next_request_id_++, EncodeNameBody(name)},
      timeout_micros);
}

Status Client::SubscribeResume(const std::string& name, int64_t resume_close,
                               int64_t timeout_micros) {
  SubscribeResumeRequest req;
  req.name = name;
  req.resume_close = resume_close;
  return AckRoundtrip({FrameType::kSubscribeResume, next_request_id_++,
                       EncodeSubscribeResumeBody(req)},
                      timeout_micros);
}

Result<ReplFramesBody> Client::ReplFetch(uint64_t from_offset,
                                         uint64_t applied_frames,
                                         int64_t timeout_micros) {
  ReplFetchRequest req;
  req.from_offset = from_offset;
  req.applied_frames = applied_frames;
  Frame request{FrameType::kReplFetch, next_request_id_++,
                EncodeReplFetchBody(req)};
  ASSIGN_OR_RETURN(Frame response, Roundtrip(request, timeout_micros));
  if (response.type != FrameType::kReplFrames) {
    return Status::IoError(std::string("unexpected response frame ") +
                           FrameTypeName(response.type));
  }
  return DecodeReplFramesBody(response.body);
}

Status Client::Unsubscribe(const std::string& name,
                           int64_t timeout_micros) {
  return AckRoundtrip(
      {FrameType::kUnsubscribe, next_request_id_++, EncodeNameBody(name)},
      timeout_micros);
}

Status Client::Ping(int64_t timeout_micros) {
  return AckRoundtrip(
      {FrameType::kPing, next_request_id_++, EncodeAckBody("")},
      timeout_micros);
}

Result<Push> Client::NextPush(int64_t timeout_micros) {
  const int64_t deadline = NowMicros() + timeout_micros;
  for (;;) {
    if (!pending_pushes_.empty()) {
      Push push = std::move(pending_pushes_.front());
      pending_pushes_.pop_front();
      return push;
    }
    ASSIGN_OR_RETURN(Frame frame, ReadFrame(deadline));
    if (frame.type != FrameType::kStreamRows &&
        frame.type != FrameType::kShutdown) {
      Close();
      return Status::IoError(
          std::string("unexpected frame while waiting for pushes: ") +
          FrameTypeName(frame.type));
    }
    RETURN_IF_ERROR(TakePush(frame));
  }
}

Status Client::TakePush(const Frame& frame) {
  if (frame.type == FrameType::kShutdown) {
    // Graceful goodbye: the server is draining and will send nothing
    // more; surface as Unavailable so retry/reconnect layers engage.
    std::string reason;
    if (auto decoded = DecodeShutdownBody(frame.body); decoded.ok()) {
      reason = *decoded;
    }
    Close();
    return Status::Unavailable(
        "server shutting down" + (reason.empty() ? "" : ": " + reason));
  }
  auto batch = DecodeStreamRowsBody(frame.body);
  if (!batch.ok()) {
    Close();
    return batch.status();
  }
  Push push;
  push.source = std::move(batch->source);
  push.close = batch->close;
  push.rows = std::move(batch->rows);
  pending_pushes_.push_back(std::move(push));
  return Status::OK();
}

}  // namespace streamrel::net
