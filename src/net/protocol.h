#ifndef STREAMREL_NET_PROTOCOL_H_
#define STREAMREL_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/column_batch.h"

namespace streamrel::net {

/// Wire frame types. Requests flow client -> server, responses server ->
/// client; kStreamRows is the push side of SUBSCRIBE and may arrive at any
/// time, interleaved with responses.
enum class FrameType : uint8_t {
  // Requests.
  kQuery = 1,        // body: string sql
  kIngestBatch = 2,  // body: string stream, i64 system_time, rows
  kSubscribe = 3,    // body: string stream-or-cq name
  kUnsubscribe = 4,  // body: string stream-or-cq name
  kPing = 5,         // body: empty
  kReplFetch = 6,    // body: u64 from_offset, u64 applied_frames — a
                     // standby polling for synced WAL bytes; doubles as
                     // the ack of everything before from_offset
  kSubscribeResume = 7,  // body: string name, i64 last-delivered close —
                         // resume with no duplicate and no gap
  // Responses.
  kRowSet = 16,      // body: string message, schema, rows
  kStreamRows = 17,  // body: string source, i64 close, rows (pushed)
  kError = 18,       // body: u8 status code, string message
  kAck = 19,         // body: string message
  kReplFrames = 20,  // body: u64 start_offset, u64 primary_synced_bytes,
                     // string raw WAL bytes (NOT frame-aligned at the end)
  kShutdown = 21,    // body: string reason — graceful-goodbye pushed by
                     // Server::Drain(), never a reply to a request
};

const char* FrameTypeName(FrameType type);
bool IsRequestType(uint8_t type);
bool IsResponseType(uint8_t type);

/// One decoded frame: the payload past the fixed (type, request_id) prefix.
/// Responses echo the request's id; pushed kStreamRows frames carry the id
/// of the SUBSCRIBE that created the subscription.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  std::string body;
};

/// Frame layout on the wire (the WAL's framing, common/checksum.h):
///   u32 payload length | u32 FrameChecksum(payload) | payload
/// where payload = u8 frame type | u64 request id | body.
constexpr size_t kFramePrefixBytes = 1 + sizeof(uint64_t);
/// Upper bound on one frame's payload; a length beyond this is treated as
/// a corrupt (or hostile) stream, not an allocation request.
constexpr size_t kMaxFramePayload = 64u << 20;

/// Appends the encoded frame to *out.
void EncodeFrame(const Frame& frame, std::string* out);

enum class DecodeStatus {
  kFrame,     // one frame decoded; *offset advanced past it
  kNeedMore,  // buffer holds a valid prefix of a frame; read more bytes
  kCorrupt,   // checksum mismatch / oversized length / unknown type
};

/// Tries to decode one frame starting at buf[*offset]. kCorrupt means the
/// byte stream is unrecoverable (framing is length-prefixed, so a bad
/// length or checksum desyncs everything after it); `error` says why.
DecodeStatus TryDecodeFrame(const std::string& buf, size_t* offset,
                            Frame* frame, std::string* error);

// --- request bodies --------------------------------------------------------

std::string EncodeQueryBody(const std::string& sql);
Result<std::string> DecodeQueryBody(const std::string& body);

struct IngestBatchRequest {
  std::string stream;
  int64_t system_time = INT64_MIN;
  std::vector<Row> rows;
};
std::string EncodeIngestBody(const IngestBatchRequest& req);

/// The one INGEST_BATCH decoder: decodes the body straight into a
/// ColumnBatch as wide as its first row, without per-row Value vectors. A
/// row of any other width is appended torn (ColumnBatch::AppendRow), and
/// ingest quarantines it exactly as it would in process; if a torn row
/// would leave the batch with more column cells than the body has bytes,
/// the batch goes all torn at width 0 instead. Every count is checked
/// against the bytes left before it sizes an allocation. Returns whether
/// the body carries any rows; a truncated or corrupt body is an IoError.
struct IngestColumnarRequest {
  std::string stream;
  int64_t system_time = INT64_MIN;
  exec::ColumnBatch batch{0};
};
Result<bool> DecodeIngestBodyColumnar(const std::string& body,
                                      IngestColumnarRequest* req);

/// SUBSCRIBE / UNSUBSCRIBE carry just the object name.
std::string EncodeNameBody(const std::string& name);
Result<std::string> DecodeNameBody(const std::string& body);

/// REPL_FETCH: a standby's poll, which is also its ack — everything
/// before `from_offset` has been applied and synced on the standby.
struct ReplFetchRequest {
  uint64_t from_offset = 0;
  uint64_t applied_frames = 0;
};
std::string EncodeReplFetchBody(const ReplFetchRequest& req);
Result<ReplFetchRequest> DecodeReplFetchBody(const std::string& body);

/// SUBSCRIBE_RESUME: re-establish a subscription after reconnect. The
/// token is the close of the last window the client actually received;
/// the server backfills (token, watermark] from the channel's active
/// table before attaching the live callback.
struct SubscribeResumeRequest {
  std::string name;
  int64_t resume_close = INT64_MIN;
};
std::string EncodeSubscribeResumeBody(const SubscribeResumeRequest& req);
Result<SubscribeResumeRequest> DecodeSubscribeResumeBody(
    const std::string& body);

// --- response bodies -------------------------------------------------------

/// A complete query result (the wire twin of engine::QueryResult).
struct RowSet {
  std::string message;
  Schema schema;
  std::vector<Row> rows;
};
std::string EncodeRowSetBody(const RowSet& rowset);
Result<RowSet> DecodeRowSetBody(const std::string& body);

/// One pushed window-close (or raw-stream) batch.
struct StreamRowsBody {
  std::string source;  // subscription name as ACKed
  int64_t close = 0;
  std::vector<Row> rows;
};
std::string EncodeStreamRowsBody(const StreamRowsBody& batch);
Result<StreamRowsBody> DecodeStreamRowsBody(const std::string& body);
/// Appends a whole STREAM_ROWS frame straight from the delivered rows, in
/// one pass and without a StreamRowsBody copy. The bytes equal
/// EncodeFrame({kStreamRows, request_id,
///              EncodeStreamRowsBody({source, close, rows})}).
void EncodeStreamRowsFrame(uint64_t request_id, const std::string& source,
                           int64_t close, const std::vector<Row>& rows,
                           std::string* out);

/// Errors round-trip the engine Status (code + message).
std::string EncodeErrorBody(const Status& status);
/// Returns the decoded (non-OK) status carried by an ERROR frame; a
/// malformed body decodes to an Internal error (still non-OK).
Status DecodeErrorBody(const std::string& body);

std::string EncodeAckBody(const std::string& message);
Result<std::string> DecodeAckBody(const std::string& body);

/// A slice of the primary's synced WAL. `primary_synced_bytes` is the
/// durable frontier at ship time so the standby can see its own lag; the
/// byte slice may end mid-frame (the standby consumes whole frames and
/// re-fetches from its consumed offset).
struct ReplFramesBody {
  uint64_t start_offset = 0;
  uint64_t primary_synced_bytes = 0;
  std::string bytes;
};
std::string EncodeReplFramesBody(const ReplFramesBody& body);
Result<ReplFramesBody> DecodeReplFramesBody(const std::string& body);

/// SHUTDOWN carries a human-readable reason (same shape as ACK).
std::string EncodeShutdownBody(const std::string& reason);
Result<std::string> DecodeShutdownBody(const std::string& body);

}  // namespace streamrel::net

#endif  // STREAMREL_NET_PROTOCOL_H_
