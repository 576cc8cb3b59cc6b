// Network front-end suite (ctest label: net).
//
// Covers the wire protocol (round-trips, truncated and corrupt frames
// rejected without crashing), the TCP server end to end (queries, binary
// ingest, live SUBSCRIBE pushes byte-identical to an in-process
// subscriber, ragged INGEST_BATCH bodies quarantined exactly like the
// same rows ingested in process, hostile row counts and arities answered
// with an ERROR), the slow-consumer policy grid (BLOCK disconnects, the shed
// policies drop — with `pushes_total == admitted + shed + disconnected`
// accounting that must balance exactly), `net.*` fault-injection drills
// proving a killed connection never corrupts engine state, and the
// `SHOW STATS FOR NET` scope.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/memory_governor.h"
#include "common/time.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "test_util.h"

namespace streamrel::net {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kRpcTimeout = 10'000'000;  // generous for CI machines

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- protocol --------------------------------------------------------------

TEST(Protocol, FrameRoundTripsEveryBodyType) {
  std::vector<Frame> frames;
  frames.push_back({FrameType::kQuery, 7, EncodeQueryBody("SELECT 1")});
  IngestBatchRequest ingest;
  ingest.stream = "s";
  ingest.system_time = 42;
  ingest.rows = {{Value::Int64(1), Value::Double(2.5)},
                 {Value::String("x"), Value::Null()}};
  frames.push_back({FrameType::kIngestBatch, 8, EncodeIngestBody(ingest)});
  frames.push_back({FrameType::kSubscribe, 9, EncodeNameBody("cq1")});
  frames.push_back({FrameType::kPing, 10, ""});
  RowSet rowset;
  rowset.message = "SELECT 1";
  rowset.schema = Schema({Column("v", DataType::kInt64)});
  rowset.rows = {{Value::Int64(5)}};
  frames.push_back({FrameType::kRowSet, 11, EncodeRowSetBody(rowset)});
  StreamRowsBody batch;
  batch.source = "cq1";
  batch.close = 60 * kSec;
  batch.rows = {{Value::Int64(12), Value::Double(0.1 + 0.2)}};
  frames.push_back({FrameType::kStreamRows, 12,
                    EncodeStreamRowsBody(batch)});
  frames.push_back({FrameType::kError, 13,
                    EncodeErrorBody(Status::NotFound("no such thing"))});
  frames.push_back({FrameType::kAck, 14, EncodeAckBody("PONG")});

  // All frames through one buffer, decoded back in order.
  std::string wire;
  for (const Frame& f : frames) EncodeFrame(f, &wire);
  size_t offset = 0;
  for (const Frame& want : frames) {
    Frame got;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(wire, &offset, &got, &error),
              DecodeStatus::kFrame)
        << error;
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.request_id, want.request_id);
    EXPECT_EQ(got.body, want.body);
  }
  EXPECT_EQ(offset, wire.size());

  // Body payloads decode to the original values (doubles bit-exact).
  IngestColumnarRequest ingest2;
  auto decoded = DecodeIngestBodyColumnar(EncodeIngestBody(ingest), &ingest2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded);
  EXPECT_EQ(ingest2.stream, "s");
  EXPECT_EQ(ingest2.system_time, 42);
  const std::vector<Row> rows2 = ingest2.batch.MaterializeAll();
  ASSERT_EQ(rows2.size(), 2u);
  EXPECT_EQ(RowToString(rows2[0]), RowToString(ingest.rows[0]));
  EXPECT_EQ(RowToString(rows2[1]), RowToString(ingest.rows[1]));

  auto rowset2 = DecodeRowSetBody(EncodeRowSetBody(rowset));
  ASSERT_TRUE(rowset2.ok());
  EXPECT_EQ(rowset2->message, "SELECT 1");
  ASSERT_EQ(rowset2->schema.num_columns(), 1u);
  EXPECT_EQ(rowset2->schema.columns()[0].name, "v");

  auto batch2 = DecodeStreamRowsBody(EncodeStreamRowsBody(batch));
  ASSERT_TRUE(batch2.ok());
  EXPECT_EQ(batch2->close, 60 * kSec);
  EXPECT_EQ(batch2->rows[0][1].AsDouble(), 0.1 + 0.2);  // bit-exact

  Status err = DecodeErrorBody(EncodeErrorBody(Status::NotFound("gone")));
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.message(), "gone");
}

TEST(Protocol, TruncatedFrameNeedsMoreNeverCorrupt) {
  std::string wire;
  EncodeFrame({FrameType::kQuery, 1, EncodeQueryBody("SELECT 1")}, &wire);
  // Every proper prefix is "need more", not corrupt — partial reads off a
  // socket must never kill the connection.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string partial = wire.substr(0, cut);
    size_t offset = 0;
    Frame frame;
    EXPECT_EQ(TryDecodeFrame(partial, &offset, &frame, nullptr),
              DecodeStatus::kNeedMore)
        << "prefix length " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(Protocol, CorruptFramesRejectedWithoutCrashing) {
  std::string wire;
  EncodeFrame({FrameType::kQuery, 1, EncodeQueryBody("SELECT 1")}, &wire);
  // Flip each byte in turn: the decoder must return kCorrupt (checksum,
  // type, or length check) or kNeedMore (length field grew) — never a
  // bogus frame, never a crash.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    size_t offset = 0;
    Frame frame;
    std::string error;
    DecodeStatus ds = TryDecodeFrame(bad, &offset, &frame, &error);
    EXPECT_TRUE(ds == DecodeStatus::kCorrupt || ds == DecodeStatus::kNeedMore)
        << "byte " << i << " decoded as a valid frame";
  }
  // Absurd length prefix: corrupt, not a 4GB allocation.
  std::string absurd(8, '\xff');
  size_t offset = 0;
  Frame frame;
  EXPECT_EQ(TryDecodeFrame(absurd, &offset, &frame, nullptr),
            DecodeStatus::kCorrupt);
}

// The push path encodes STREAM_ROWS frames in place, straight from the
// delivered rows; its bytes must equal the reference encoding through a
// StreamRowsBody, for rows of every type, NULLs, empty rows and no rows.
TEST(Protocol, InPlaceStreamRowsFrameMatchesReferenceEncoding) {
  std::mt19937_64 rng(20);
  auto random_value = [&rng]() -> Value {
    switch (rng() % 7) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Bool(rng() % 2 == 0);
      case 2:
        return Value::Int64(static_cast<int64_t>(rng()));
      case 3:
        return Value::Double(static_cast<double>(rng() % 100000) / 7.0);
      case 4:
        return Value::String(
            std::string(rng() % 40, static_cast<char>('a' + rng() % 26)));
      case 5:
        return Value::Timestamp(static_cast<int64_t>(rng() % (1ull << 50)));
      default:
        return Value::Interval(-static_cast<int64_t>(rng() % 1000000));
    }
  };
  for (int round = 0; round < 200; ++round) {
    std::vector<Row> rows(rng() % 12);  // zero rows on some rounds
    for (Row& row : rows) {
      row.resize(rng() % 6);  // some rows are empty
      for (Value& v : row) v = random_value();
    }
    const std::string source = round % 2 == 0 ? "Mixed_Case_CQ" : "m7";
    const int64_t close = static_cast<int64_t>(rng() % (1ull << 40));
    const uint64_t request_id = rng();

    std::string want;
    EncodeFrame({FrameType::kStreamRows, request_id,
                 EncodeStreamRowsBody({source, close, rows})},
                &want);
    // Appended after bytes already in the buffer: the length and the
    // checksum are patched at the frame's own offset.
    std::string got;
    EncodeFrame({FrameType::kPing, 1, ""}, &got);
    const std::string before = got;
    EncodeStreamRowsFrame(request_id, source, close, rows, &got);
    ASSERT_EQ(got, before + want) << "round " << round;

    size_t offset = before.size();
    Frame frame;
    ASSERT_EQ(TryDecodeFrame(got, &offset, &frame, nullptr),
              DecodeStatus::kFrame);
    EXPECT_EQ(offset, got.size());
    auto body = DecodeStreamRowsBody(frame.body);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(body->source, source);
    EXPECT_EQ(body->close, close);
    ASSERT_EQ(body->rows.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(RowToString(body->rows[r]), RowToString(rows[r]));
    }
  }
}

// Wire frames and WAL records share one checksum (common/checksum.h).
// Known answers, computed independently from the definition: two FNV-1a
// lanes over alternating little-endian 4-byte words, XORed, then a
// byte-wise FNV-1a tail.
TEST(Protocol, FrameChecksumKnownAnswers) {
  EXPECT_EQ(FrameChecksum("", 0), 0x8410c0dau);
  EXPECT_EQ(FrameChecksum("123456789", 9), 0x0ac326e1u);  // 1 step, 1 tail
  const std::string text = "StreamRel frame checksum";   // 3 steps, no tail
  EXPECT_EQ(FrameChecksum(text.data(), text.size()), 0x843e6c35u);
}

// Every single-bit flip of a whole frame, header included, must be
// rejected: a payload or checksum flip fails the checksum, a length flip
// fails the checksum, the range check or waits for bytes that never come.
// Never a frame.
TEST(Protocol, EveryBitFlipOfAFrameIsRejected) {
  std::mt19937_64 rng(64);
  for (size_t frame_bytes : {size_t{64}, size_t{4096}}) {
    const size_t body_bytes =
        frame_bytes - kFrameHeaderBytes - kFramePrefixBytes;
    std::string body(body_bytes, '\0');
    for (char& c : body) c = static_cast<char>(rng());
    std::string wire;
    EncodeFrame({FrameType::kAck, 9, body}, &wire);
    ASSERT_EQ(wire.size(), frame_bytes);
    for (size_t bit = 0; bit < 8 * wire.size(); ++bit) {
      wire[bit / 8] = static_cast<char>(wire[bit / 8] ^ (1 << (bit % 8)));
      size_t offset = 0;
      Frame frame;
      const DecodeStatus ds = TryDecodeFrame(wire, &offset, &frame, nullptr);
      wire[bit / 8] = static_cast<char>(wire[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(ds, DecodeStatus::kFrame)
          << frame_bytes << "-byte frame, bit " << bit << " flipped";
      if (bit >= 8 * sizeof(uint32_t)) {
        // Length intact: the checksum itself must catch it.
        ASSERT_EQ(ds, DecodeStatus::kCorrupt) << "bit " << bit;
      }
    }
  }
}

// --- server fixture --------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    server_ = std::make_unique<Server>(&db_, options_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0) << "--port 0 must report the bound port";
  }

  void TearDown() override {
    server_.reset();
    FaultInjector::Instance().Reset();
  }

  Client MakeClient() {
    Client client;
    Status st = client.Connect("127.0.0.1", server_->port(), kRpcTimeout);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  // CQTIME SYSTEM stream + tumbling-window derived stream: a subscriber
  // to `agg` sees one aggregate row per closed minute.
  void CreateAggPipeline(Client* client) {
    auto r = client->Query(
        "CREATE STREAM s (v bigint, ts timestamp CQTIME SYSTEM);"
        "CREATE STREAM agg AS SELECT count(*), sum(v) FROM s "
        "<VISIBLE '1 minute'>");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  engine::Database db_;
  ServerOptions options_;
  std::unique_ptr<Server> server_;
};

// --- happy paths -----------------------------------------------------------

TEST_F(NetworkTest, QueryIngestSubscribeEndToEnd) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping(kRpcTimeout).ok());
  CreateAggPipeline(&client);

  // In-process subscriber: the oracle for byte-identical delivery.
  CqCapture local;
  auto ticket = db_.Subscribe("agg", local.Callback());
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  ASSERT_TRUE(client.Subscribe("agg", kRpcTimeout).ok());

  // Binary ingest; the second batch's timestamp pushes the watermark past
  // the first window so it closes and fans out.
  std::vector<Row> rows;
  for (int i = 1; i <= 5; ++i) {
    rows.push_back({Value::Int64(i), Value::Null()});
  }
  ASSERT_TRUE(
      client.IngestBatch("s", rows, /*system_time=*/10 * kSec, kRpcTimeout)
          .ok());
  ASSERT_TRUE(client
                  .IngestBatch("s", {{Value::Int64(0), Value::Null()}},
                               /*system_time=*/130 * kSec, kRpcTimeout)
                  .ok());

  auto push = client.NextPush(kRpcTimeout);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->source, "agg");
  ASSERT_GE(local.batches.size(), 1u)
      << "remote and local subscriber must see the same deliveries";
  EXPECT_EQ(push->close, local.batches[0].close);
  ASSERT_EQ(push->rows.size(), local.batches[0].rows.size());
  for (size_t i = 0; i < push->rows.size(); ++i) {
    // Byte-identical: both rows re-serialize to the same bytes.
    std::string remote_bytes, local_bytes;
    SerializeRow(push->rows[i], &remote_bytes);
    SerializeRow(local.batches[0].rows[i], &local_bytes);
    EXPECT_EQ(remote_bytes, local_bytes);
    EXPECT_EQ(RowToString(push->rows[i]),
              RowToString(local.batches[0].rows[i]));
  }
  ASSERT_TRUE(db_.Unsubscribe(*ticket).ok());
}

TEST_F(NetworkTest, SubscribeViaSqlAndUnsubscribe) {
  Client client = MakeClient();
  CreateAggPipeline(&client);
  // SUBSCRIBE TO issued as SQL through the QUERY frame.
  auto sub = client.Query("SUBSCRIBE TO agg");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_NE(sub->message.find("SUBSCRIBED"), std::string::npos);
  // Duplicate subscription on the same connection: AlreadyExists.
  auto dup = client.Subscribe("agg", kRpcTimeout);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(server_->stats().subscriptions_active, 1);

  auto unsub = client.Query("UNSUBSCRIBE FROM agg");
  ASSERT_TRUE(unsub.ok()) << unsub.status().ToString();
  EXPECT_EQ(server_->stats().subscriptions_active, 0);
  // Unsubscribing again: NotFound.
  EXPECT_EQ(client.Unsubscribe("agg", kRpcTimeout).code(),
            StatusCode::kNotFound);
  // SUBSCRIBE outside a network session is rejected with a pointer here.
  auto local = db_.Execute("SUBSCRIBE TO agg");
  ASSERT_FALSE(local.ok());
  EXPECT_NE(local.status().message().find("network"), std::string::npos);
}

TEST_F(NetworkTest, QueryErrorsRoundTripStatusCodes) {
  Client client = MakeClient();
  auto parse = client.Query("SELEKT 1");
  EXPECT_EQ(parse.status().code(), StatusCode::kParseError);
  auto missing = client.Query("SELECT * FROM nope");
  EXPECT_FALSE(missing.ok());
  auto ingest = client.IngestBatch("ghost", {{Value::Int64(1)}},
                                   /*system_time=*/0, kRpcTimeout);
  EXPECT_FALSE(ingest.ok());
  auto sub = client.Subscribe("ghost", kRpcTimeout);
  EXPECT_EQ(sub.code(), StatusCode::kNotFound);
  // The connection survived all of it.
  EXPECT_TRUE(client.Ping(kRpcTimeout).ok());
}

TEST_F(NetworkTest, ShowStatsForNetReportsTraffic) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping(kRpcTimeout).ok());
  auto stats = client.Query("SHOW STATS FOR NET");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(stats->rows.empty());
  // Every row is in the net scope; the counters we drove are present.
  bool saw_connections = false, saw_ping = false, saw_latency = false;
  for (const Row& row : stats->rows) {
    ASSERT_GE(row.size(), 4u);
    EXPECT_EQ(row[0].AsString(), "net");
    const std::string name = row[1].AsString();
    const std::string metric = row[2].AsString();
    if (name == "server" && metric == "connections_accepted") {
      saw_connections = true;
      EXPECT_GE(row[3].AsInt64(), 1);
    }
    if (name == "frames" && metric == "ping") {
      saw_ping = true;
      EXPECT_GE(row[3].AsInt64(), 1);
    }
    if (name == "requests" && metric == "request_micros_count") {
      saw_latency = true;
      EXPECT_GE(row[3].AsInt64(), 1);
    }
  }
  EXPECT_TRUE(saw_connections);
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_latency);
}

// --- corrupt input over the wire ------------------------------------------

// A bare TCP connection to the server, for frames no Client would send.
class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~RawSocket() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  /// Sends `frame` and returns the first frame the server sends back.
  Result<Frame> Roundtrip(const Frame& frame) {
    std::string wire;
    EncodeFrame(frame, &wire);
    return RoundtripBytes(wire);
  }
  /// `longest_wait`, if given, receives the longest time between two
  /// reads of the reply once its first bytes have arrived.
  Result<Frame> RoundtripBytes(const std::string& wire,
                               int64_t* longest_wait = nullptr) {
    if (send(fd_, wire.data(), wire.size(), 0) !=
        static_cast<ssize_t>(wire.size())) {
      return Status::IoError("send failed");
    }
    std::string buf;
    std::vector<char> tmp(64 * 1024);
    int64_t last_read = 0;
    if (longest_wait != nullptr) *longest_wait = 0;
    for (;;) {
      size_t offset = 0;
      Frame reply;
      if (TryDecodeFrame(buf, &offset, &reply, nullptr) ==
          DecodeStatus::kFrame) {
        return reply;
      }
      ssize_t n = recv(fd_, tmp.data(), tmp.size(), 0);
      if (n <= 0) return Status::IoError("server closed the connection");
      const int64_t now = NowMicros();
      if (longest_wait != nullptr && !buf.empty()) {
        *longest_wait = std::max(*longest_wait, now - last_read);
      }
      last_read = now;
      buf.append(tmp.data(), static_cast<size_t>(n));
    }
  }
  /// Blocks until the server closes the connection; false if it sends
  /// more bytes first.
  bool ClosedByPeer() {
    char byte;
    return recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
};

TEST_F(NetworkTest, CorruptWireFrameKillsConnectionNotEngine) {
  Client good = MakeClient();
  ASSERT_TRUE(good.Query("CREATE TABLE t (v bigint)").ok());

  // Raw socket sending a frame whose checksum byte was flipped; the
  // server answers with an ERROR frame and closes.
  std::string wire;
  EncodeFrame({FrameType::kQuery, 1, EncodeQueryBody("SELECT 1")}, &wire);
  wire[5] = static_cast<char>(wire[5] ^ 0x40);
  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  auto frame = raw.RoundtripBytes(wire);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_TRUE(raw.ClosedByPeer());
  EXPECT_GE(server_->stats().frames_bad, 1);

  // The engine and other connections are untouched.
  ASSERT_TRUE(good.Query("INSERT INTO t VALUES (1)").ok());
  auto r = good.Query("SELECT v FROM t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
}

void AppendU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// An INGEST_BATCH body whose counts claim far more than the body holds
// must get an ERROR reply, not size an allocation from the claim; the
// connection and the engine keep serving.
TEST_F(NetworkTest, HostileIngestCountsGetErrorReplyNotAbort) {
  Client control = MakeClient();
  ASSERT_TRUE(
      control.Query("CREATE STREAM s (v bigint, ts timestamp CQTIME SYSTEM)")
          .ok());
  std::string head;  // stream "s", system time 10 s
  AppendU32(1, &head);
  head += "s";
  const int64_t system_time = 10 * kSec;
  head.append(reinterpret_cast<const char*>(&system_time),
              sizeof(system_time));

  // One row whose arity field is 0xFFFFFFFF: a 38-byte frame.
  std::string huge_arity = head;
  AppendU32(1, &huge_arity);
  AppendU32(0xFFFFFFFFu, &huge_arity);
  // 0xFFFFFFFF rows, the first of them a well-formed one-cell row.
  std::string huge_count = head;
  AppendU32(0xFFFFFFFFu, &huge_count);
  AppendU32(1, &huge_count);
  huge_count.push_back(static_cast<char>(DataType::kNull));

  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  std::string wire;
  EncodeFrame({FrameType::kIngestBatch, 1, huge_arity}, &wire);
  ASSERT_EQ(wire.size(), 38u);
  for (const std::string& body : {huge_arity, huge_count}) {
    auto reply = raw.Roundtrip({FrameType::kIngestBatch, 1, body});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(DecodeErrorBody(reply->body).code(), StatusCode::kIoError);
  }

  // The same connection still answers a PING and takes a normal ingest.
  auto pong = raw.Roundtrip({FrameType::kPing, 2, ""});
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, FrameType::kAck);
  IngestBatchRequest good;
  good.stream = "s";
  good.system_time = system_time;
  good.rows = {{Value::Int64(1), Value::Null()}};
  auto ack =
      raw.Roundtrip({FrameType::kIngestBatch, 3, EncodeIngestBody(good)});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, FrameType::kAck);
  EXPECT_EQ(*DecodeAckBody(ack->body), "INGEST 1");
  EXPECT_EQ(db_.runtime()->overload_counters("s").rows_admitted, 1);
}

// A ragged INGEST_BATCH (rows whose arity differs from the stream's) over
// the wire must behave exactly like the same rows ingested in process:
// the same dead-letter rows, admission counters, CQ deliveries and
// channel table. The stream feeds a shared CQ and a channel.
TEST_F(NetworkTest, RaggedIngestBatchMatchesInProcessIngest) {
  const std::string ddl =
      "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER);"
      "CREATE STREAM counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
      "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE CHANNEL ch FROM counts INTO archive APPEND";
  engine::Database local;
  struct Capture {
    CqCapture dead_letters;
    CqCapture deliveries;
  };
  Capture wire_side, local_side;
  for (auto [db, cap] : {std::pair{&db_, &wire_side},
                         std::pair{&local, &local_side}}) {
    MustExecute(db, ddl);
    const stream::ContinuousQuery* cq = db->runtime()->GetCq("$derived$counts");
    ASSERT_NE(cq, nullptr);
    ASSERT_TRUE(cq->is_shared());
    ASSERT_TRUE(db->runtime()->EnsureQuarantineStream("clicks").ok());
    ASSERT_TRUE(db->Subscribe(stream::StreamRuntime::QuarantineName("clicks"),
                              cap->dead_letters.Callback())
                    .ok());
    ASSERT_TRUE(db->Subscribe("counts", cap->deliveries.Callback()).ok());
  }
  Client client = MakeClient();
  Client subscriber = MakeClient();
  ASSERT_TRUE(subscriber.Subscribe("counts", kRpcTimeout).ok());

  auto click = [](const char* url, int64_t sec) {
    return Row{Value::String(url), Value::Timestamp(sec * kSec)};
  };
  const std::vector<std::vector<Row>> batches = {
      // Row 0 has the stream's arity; a short, a long and a late row
      // ride between good rows, and the 70 s row closes a window.
      {click("/a", 10), click("/b", 20), Row{Value::String("/short")},
       Row{Value::String("/long"), Value::Timestamp(25 * kSec),
           Value::Int64(7)},
       click("/a", 30), click("/late", 5), click("/c", 70), click("/a", 80)},
      // Row 0 has the wrong arity, so the whole batch arrives at the
      // wrong width and is repacked torn; a NULL CQTIME rides along.
      {Row{Value::Int64(1)}, click("/b", 90),
       Row{Value::String("/null"), Value::Null()}, click("/a", 130),
       click("/late2", 100)},
      // Every row has the wrong arity.
      {Row{Value::Int64(2)}, Row{Value::Int64(3)}},
      {click("/z", 200)},
  };
  for (const std::vector<Row>& rows : batches) {
    ASSERT_TRUE(client.IngestBatch("clicks", rows, INT64_MIN, kRpcTimeout)
                    .ok());
    ASSERT_TRUE(local.Ingest("clicks", rows).ok());
  }
  // A PING after the last ingest: every push it caused is queued first.
  ASSERT_TRUE(subscriber.Ping(kRpcTimeout).ok());

  auto same_batches = [](const CqCapture& wire, const CqCapture& want,
                         const char* what) {
    ASSERT_EQ(wire.batches.size(), want.batches.size()) << what;
    for (size_t b = 0; b < want.batches.size(); ++b) {
      EXPECT_EQ(wire.batches[b].close, want.batches[b].close) << what;
      ASSERT_EQ(wire.batches[b].rows.size(), want.batches[b].rows.size())
          << what;
      for (size_t r = 0; r < want.batches[b].rows.size(); ++r) {
        std::string got, expected;
        SerializeRow(wire.batches[b].rows[r], &got);
        SerializeRow(want.batches[b].rows[r], &expected);
        EXPECT_EQ(got, expected)
            << what << " batch " << b << " row " << r << ": "
            << RowToString(wire.batches[b].rows[r]);
      }
    }
  };
  // Dead letters: (qtime, reason, detail, row_data), in order.
  same_batches(wire_side.dead_letters, local_side.dead_letters,
               "dead letters");
  size_t dead = 0;
  for (const auto& batch : local_side.dead_letters.batches) {
    dead += batch.rows.size();
  }
  EXPECT_EQ(dead, 8u);
  const auto wire_counters = db_.runtime()->overload_counters("clicks");
  const auto local_counters = local.runtime()->overload_counters("clicks");
  EXPECT_EQ(wire_counters.rows_admitted, local_counters.rows_admitted);
  EXPECT_EQ(wire_counters.rows_shed, local_counters.rows_shed);
  EXPECT_EQ(wire_counters.rows_quarantined, local_counters.rows_quarantined);
  EXPECT_EQ(local_counters.rows_quarantined, 8);
  same_batches(wire_side.deliveries, local_side.deliveries, "deliveries");
  ASSERT_EQ(local_side.deliveries.batches.size(), 3u);
  EXPECT_EQ(RowStrings(MustExecute(&db_, "SELECT * FROM archive")),
            RowStrings(MustExecute(&local, "SELECT * FROM archive")));
  // The wire subscriber got the same windows, pushed.
  CqCapture pushed;
  for (size_t i = 0; i < local_side.deliveries.batches.size(); ++i) {
    auto push = subscriber.NextPush(kRpcTimeout);
    ASSERT_TRUE(push.ok()) << push.status().ToString();
    pushed.batches.push_back({push->close, push->rows});
  }
  same_batches(pushed, local_side.deliveries, "pushes");
}

// --- slow-consumer policy grid --------------------------------------------

class SlowConsumerTest : public NetworkTest {
 protected:
  void SetUp() override {
    // Small queue bound, minimum kernel send buffer, short BLOCK timeout:
    // a non-reading subscriber back-pressures after a few frames and the
    // grid runs fast.
    options_.max_send_queue_bytes = 24 * 1024;
    options_.block_timeout_micros = 30'000;
    options_.so_sndbuf = 1;  // kernel clamps to its minimum
    NetworkTest::SetUp();
  }

  // A subscriber that acknowledges SUBSCRIBE and then never reads again,
  // with the smallest receive window the kernel allows.
  struct LazySubscriber {
    int fd = -1;
    ~LazySubscriber() {
      if (fd >= 0) close(fd);
    }
    void SubscribeAndStall(uint16_t port, const std::string& name) {
      fd = socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      int tiny = 1;  // clamped up to the kernel minimum
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      ASSERT_EQ(
          connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      std::string wire;
      EncodeFrame({FrameType::kSubscribe, 1, EncodeNameBody(name)}, &wire);
      ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                static_cast<ssize_t>(wire.size()));
      // Read exactly the SUBSCRIBE ack, then stall.
      std::string buf;
      char tmp[512];
      for (;;) {
        size_t offset = 0;
        Frame frame;
        if (TryDecodeFrame(buf, &offset, &frame, nullptr) ==
            DecodeStatus::kFrame) {
          ASSERT_EQ(frame.type, FrameType::kAck);
          break;
        }
        ssize_t n = recv(fd, tmp, sizeof(tmp), 0);
        ASSERT_GT(n, 0);
        buf.append(tmp, static_cast<size_t>(n));
      }
    }
  };

  // Drives `n_windows` window closes (each one padded push frame) into a
  // stalled subscriber under `policy`, then returns the final stats.
  NetStats RunGrid(const std::string& policy, int n_windows) {
    Client control = MakeClient();
    auto ddl = control.Query(
        "CREATE STREAM s (v bigint, pad varchar, "
        "ts timestamp CQTIME SYSTEM);"
        "CREATE STREAM agg AS SELECT v, pad FROM s <VISIBLE '1 minute'>;"
        "SET OVERLOAD POLICY agg " + policy);
    EXPECT_TRUE(ddl.ok()) << ddl.status().ToString();

    LazySubscriber lazy;
    lazy.SubscribeAndStall(server_->port(), "agg");
    if (::testing::Test::HasFatalFailure()) return server_->stats();

    // ~8KB of padding per window: a few frames fill the kernel buffers,
    // then the queue, then the policy decides.
    const std::string pad(2048, 'x');
    for (int w = 0; w < n_windows; ++w) {
      std::vector<Row> rows;
      for (int i = 0; i < 4; ++i) {
        rows.push_back(
            {Value::Int64(w * 10 + i), Value::String(pad), Value::Null()});
      }
      Status st = control.IngestBatch(
          "s", rows, /*system_time=*/(w * 60 + 10) * kSec, kRpcTimeout);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // Close the last window.
    control.IngestBatch(
        "s", {{Value::Int64(0), Value::String("x"), Value::Null()}},
        /*system_time=*/(n_windows * 60 + 10) * kSec, kRpcTimeout);
    // The control connection stays healthy regardless of lazy's fate.
    EXPECT_TRUE(control.Ping(kRpcTimeout).ok());
    return server_->stats();
  }
};

TEST_F(SlowConsumerTest, BlockPolicyDisconnectsAndBalances) {
  NetStats s = RunGrid("BLOCK", 12);
  EXPECT_GE(s.slow_disconnects, 1)
      << "BLOCK must disconnect a consumer that never drains";
  EXPECT_GE(s.pushes_disconnected, 1);
  EXPECT_EQ(s.pushes_total,
            s.pushes_admitted + s.pushes_shed + s.pushes_disconnected);
}

TEST_F(SlowConsumerTest, ShedNewestDropsAndBalances) {
  NetStats s = RunGrid("SHED_NEWEST", 12);
  EXPECT_GE(s.pushes_shed, 1) << "a saturated queue must shed";
  EXPECT_EQ(s.slow_disconnects, 0)
      << "shed policies never disconnect a slow consumer";
  EXPECT_EQ(s.pushes_total,
            s.pushes_admitted + s.pushes_shed + s.pushes_disconnected);
}

TEST_F(SlowConsumerTest, ShedOldestEvictsAndBalances) {
  NetStats s = RunGrid("SHED_OLDEST", 12);
  EXPECT_GE(s.pushes_shed, 1);
  EXPECT_EQ(s.slow_disconnects, 0);
  EXPECT_EQ(s.pushes_total,
            s.pushes_admitted + s.pushes_shed + s.pushes_disconnected);
}

// Pushes bigger than the smallest kernel send buffer, to two readers of
// one CQ: a plain SUBSCRIBE from the start, and a SUBSCRIBE ... RESUME
// whose backfill rides the response path. Every frame is written in
// pieces; each side must still decode exactly the in-process
// subscriber's windows, in order, and the push accounting must balance.
class TinySendBufferTest : public NetworkTest {
 protected:
  void SetUp() override {
    options_.so_sndbuf = 1;  // kernel clamps to its minimum
    NetworkTest::SetUp();
  }
};

TEST_F(TinySendBufferTest, PlainAndResumedSubscribersMatchInProcess) {
  Client control = MakeClient();
  auto ddl = control.Query(
      "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER);"
      "CREATE STREAM counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
      "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  CqCapture local;
  auto ticket = db_.Subscribe("counts", local.Callback());
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  Client plain = MakeClient();
  ASSERT_TRUE(plain.Subscribe("counts", kRpcTimeout).ok());

  // 40 URLs of ~300 bytes: each window's push is ~13 KB, several times
  // the minimum send buffer.
  auto ingest_minute = [&](int minute) {
    std::vector<Row> rows;
    for (int i = 0; i < 60; ++i) {
      rows.push_back({Value::String("/" + std::string(300, 'p') +
                                    std::to_string((minute * 7 + i) % 40)),
                      Value::Timestamp((minute * 60 + i) * kSec)});
    }
    return db_.Ingest("clicks", rows);
  };
  for (int minute = 0; minute < 4; ++minute) {
    ASSERT_TRUE(ingest_minute(minute).ok());
  }
  ASSERT_GE(local.batches.size(), 3u);
  const int64_t token = local.batches[0].close;
  Client resumed = MakeClient();
  auto sub = resumed.Query("SUBSCRIBE TO counts RESUME " +
                           std::to_string(token));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  for (int minute = 4; minute < 8; ++minute) {
    ASSERT_TRUE(ingest_minute(minute).ok());
  }
  ASSERT_TRUE(db_.AdvanceTime("clicks", 8 * 60 * kSec).ok());
  ASSERT_EQ(local.batches.size(), 8u);

  auto expect_windows = [&](Client* client, size_t first, const char* who) {
    for (size_t b = first; b < local.batches.size(); ++b) {
      auto push = client->NextPush(kRpcTimeout);
      ASSERT_TRUE(push.ok()) << who << ": " << push.status().ToString();
      EXPECT_EQ(push->source, "counts") << who;
      EXPECT_EQ(push->close, local.batches[b].close) << who << " window " << b;
      ASSERT_EQ(push->rows.size(), local.batches[b].rows.size()) << who;
      for (size_t r = 0; r < push->rows.size(); ++r) {
        std::string got, want;
        SerializeRow(push->rows[r], &got);
        SerializeRow(local.batches[b].rows[r], &want);
        EXPECT_EQ(got, want) << who << " window " << b << " row " << r;
      }
    }
    EXPECT_EQ(client->NextPush(100'000).status().code(),
              StatusCode::kUnavailable)
        << who << " got a push past the last window";
  };
  expect_windows(&plain, 0, "plain");
  expect_windows(&resumed, 1, "resumed");

  const NetStats s = server_->stats();
  EXPECT_EQ(s.pushes_total,
            s.pushes_admitted + s.pushes_shed + s.pushes_disconnected);
  EXPECT_EQ(s.pushes_shed, 0);
  EXPECT_EQ(s.pushes_disconnected, 0);
  ASSERT_TRUE(db_.Unsubscribe(*ticket).ok());
}

// A response larger than the socket's free send space is flushed in part
// by the worker; the event loop must be woken to send the rest, not find
// it at its next 50 ms poll timeout. The measure is the longest pause
// between reads once the response has started to arrive, so neither the
// engine's own work nor a slow transfer under sanitizers counts, only a
// stall.
class SmallSendBufferTest : public NetworkTest {
 protected:
  void SetUp() override {
    options_.so_sndbuf = 128 * 1024;
    NetworkTest::SetUp();
  }
};

TEST_F(SmallSendBufferTest, LargeResponseIsNotHeldUntilThePollTimeout) {
  MustExecute(&db_, "CREATE TABLE t (id bigint, pad varchar)");
  const std::string pad(200, 'x');
  for (int chunk = 0; chunk < 50; ++chunk) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < 100; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(chunk * 100 + i) + ", '" + pad + "')";
    }
    MustExecute(&db_, sql);
  }
  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  std::string query;
  EncodeFrame({FrameType::kQuery, 1, EncodeQueryBody("SELECT * FROM t")},
              &query);
  int64_t shortest_stall = INT64_MAX;
  for (int attempt = 0; attempt < 3; ++attempt) {
    int64_t longest_wait = 0;
    auto reply = raw.RoundtripBytes(query, &longest_wait);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, FrameType::kRowSet);
    auto rowset = DecodeRowSetBody(reply->body);
    ASSERT_TRUE(rowset.ok()) << rowset.status().ToString();
    ASSERT_EQ(rowset->rows.size(), 5000u);  // ~1 MB on the wire
    shortest_stall = std::min(shortest_stall, longest_wait);
  }
  // Well under a millisecond between reads when the loop is woken; one
  // pause of ~45 ms when the rest waits for the poll timeout.
  EXPECT_LT(shortest_stall, 20'000)
      << "longest pause inside a 1 MB response, best of 3";
}

// --- fault-injection drills -----------------------------------------------

TEST_F(NetworkTest, NetReadFaultKillsConnectionEngineSurvives) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Query("CREATE TABLE t (v bigint);"
                           "INSERT INTO t VALUES (7)")
                  .ok());
  FaultInjector::Instance().Arm("net.read", FaultPolicy::FailOnce());
  // The next request hits net.read on the server: connection dies.
  auto r = client.Query("SELECT v FROM t", /*timeout=*/2'000'000);
  EXPECT_FALSE(r.ok());
  FaultInjector::Instance().Disarm("net.read");
  // Fresh connection: state intact, the INSERT is durable in the engine.
  Client again = MakeClient();
  auto r2 = again.Query("SELECT v FROM t");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0][0].AsInt64(), 7);
}

// FailOnce on net.write needs a deterministic "first write after the
// engine call". With the request-worker pool the subscriber's push (woken
// by the window close) can race the driver's ACK to the socket, and the
// fault would kill the subscriber instead. Inline dispatch restores the
// fixed ordering: the driver's ACK is flushed inside the loop thread's
// frame handling, before the push queue is serviced.
class InlineDispatchTest : public NetworkTest {
 protected:
  void SetUp() override {
    options_.worker_threads = 0;
    NetworkTest::SetUp();
  }
};

TEST_F(InlineDispatchTest, NetWriteFaultMidSubscriptionNeverCorruptsEngine) {
  Client client = MakeClient();
  CreateAggPipeline(&client);
  ASSERT_TRUE(client.Subscribe("agg", kRpcTimeout).ok());
  Client driver = MakeClient();
  ASSERT_TRUE(driver
                  .IngestBatch("s", {{Value::Int64(1), Value::Null()}},
                               /*system_time=*/10 * kSec, kRpcTimeout)
                  .ok());

  FaultInjector::Instance().Arm("net.write", FaultPolicy::FailOnce());
  // This ingest closes the window. The injected write fault fires on the
  // first flush after the engine call — the driver's own ACK — killing
  // the driver connection AFTER the rows were applied. The engine and the
  // subscriber's queued push must both survive.
  Status st = driver.IngestBatch("s", {{Value::Int64(2), Value::Null()}},
                                 /*system_time=*/70 * kSec,
                                 /*timeout=*/2'000'000);
  FaultInjector::Instance().Disarm("net.write");
  EXPECT_FALSE(st.ok()) << "the faulted connection must die, not hang";

  // The subscriber still receives the window that closed during the
  // faulted request: the ingest took effect exactly once.
  auto push = client.NextPush(kRpcTimeout);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->source, "agg");

  // And a fresh connection keeps driving the same pipeline.
  Client again = MakeClient();
  ASSERT_TRUE(again
                  .IngestBatch("s", {{Value::Int64(3), Value::Null()}},
                               /*system_time=*/130 * kSec, kRpcTimeout)
                  .ok());
  auto push2 = client.NextPush(kRpcTimeout);
  ASSERT_TRUE(push2.ok()) << push2.status().ToString();
  EXPECT_GT(push2->close, push->close);
}

TEST_F(NetworkTest, NetAcceptFaultRefusesConnectionThenRecovers) {
  FaultInjector::Instance().Arm("net.accept", FaultPolicy::FailOnce());
  Client refused;
  Status st =
      refused.Connect("127.0.0.1", server_->port(), /*timeout=*/500'000);
  // The TCP connect may succeed before the server closes the socket; the
  // first round-trip must then fail.
  if (st.ok()) st = refused.Ping(500'000);
  EXPECT_FALSE(st.ok());
  FaultInjector::Instance().Disarm("net.accept");
  Client ok = MakeClient();
  EXPECT_TRUE(ok.Ping(kRpcTimeout).ok());
}

// --- lifecycle -------------------------------------------------------------

TEST_F(NetworkTest, GracefulDrainFlushesBeforeClosing) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Query("CREATE TABLE t (v bigint)").ok());
  server_->Drain();
  EXPECT_FALSE(server_->running());
  // After drain the port no longer accepts.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port(), 300'000).ok());
}

TEST_F(NetworkTest, ClientReconnectsAfterServerRestartAndResumes) {
  // The HA client drill without a standby: the server is killed hard
  // (Stop — no drain, queued pushes die with it) and restarted on the
  // SAME port over the SAME engine; the subscriber reconnects with
  // backoff and resumes from its token with no duplicate and no gap.
  Client client = MakeClient();
  auto ddl = client.Query(
      "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER);"
      "CREATE STREAM counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
      "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  ASSERT_TRUE(client.Subscribe("counts", kRpcTimeout).ok());
  auto ingest = [&](int64_t ts_sec) {
    return db_.Ingest("clicks", {{Value::String("/a"),
                                  Value::Timestamp(ts_sec * kSec + 7)}});
  };
  ASSERT_TRUE(ingest(10).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 60 * kSec).ok());
  auto push = client.NextPush(kRpcTimeout);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  const int64_t token = push->close;

  // Kill and restart on the same port; the engine (and its channel
  // history) lives on, like a server process bounce over durable state.
  const uint16_t port = server_->port();
  server_->Stop();
  ASSERT_FALSE(client.Ping(500'000).ok()) << "old connection must be dead";
  // A window closes while the front-end is down: only the channel keeps it.
  ASSERT_TRUE(ingest(70).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 120 * kSec).ok());
  ServerOptions restart_options = options_;
  restart_options.port = port;
  server_ = std::make_unique<Server>(&db_, restart_options);
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_EQ(server_->port(), port);

  Client back;
  Client::RetryPolicy policy;
  ASSERT_TRUE(back.ConnectWithRetry("127.0.0.1", port, policy, kRpcTimeout)
                  .ok());
  ASSERT_TRUE(back.SubscribeResume("counts", token, kRpcTimeout).ok());
  // The missed window comes back from the channel table...
  auto replay = back.NextPush(kRpcTimeout);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->close, 120 * kSec);
  ASSERT_EQ(replay->rows.size(), 1u);
  // ...and live delivery continues seamlessly after it.
  ASSERT_TRUE(ingest(130).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 180 * kSec).ok());
  auto live = back.NextPush(kRpcTimeout);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->close, 180 * kSec);
}

TEST_F(NetworkTest, GovernorChargesAndReleasesSendQueueBytes) {
  MemoryGovernor* governor = db_.runtime()->governor();
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping(kRpcTimeout).ok());
  ASSERT_TRUE(client.Query("CREATE TABLE t (v bigint)").ok());
  client.Close();
  // Give the server a beat to reap the closed connection.
  for (int i = 0; i < 400; ++i) {
    if (server_->stats().connections_active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->stats().connections_active, 0);
  EXPECT_EQ(governor->held(MemoryGovernor::Account::kNetSendQueue), 0)
      << "all queued-frame bytes must be released once queues drain";
}

}  // namespace
}  // namespace streamrel::net
