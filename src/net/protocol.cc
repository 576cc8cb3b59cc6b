#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace streamrel::net {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kQuery:
      return "QUERY";
    case FrameType::kIngestBatch:
      return "INGEST_BATCH";
    case FrameType::kSubscribe:
      return "SUBSCRIBE";
    case FrameType::kUnsubscribe:
      return "UNSUBSCRIBE";
    case FrameType::kPing:
      return "PING";
    case FrameType::kReplFetch:
      return "REPL_FETCH";
    case FrameType::kSubscribeResume:
      return "SUBSCRIBE_RESUME";
    case FrameType::kRowSet:
      return "ROWSET";
    case FrameType::kStreamRows:
      return "STREAM_ROWS";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kAck:
      return "ACK";
    case FrameType::kReplFrames:
      return "REPL_FRAMES";
    case FrameType::kShutdown:
      return "SHUTDOWN";
  }
  return "?";
}

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kSubscribeResume);
}

bool IsResponseType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kRowSet) &&
         type <= static_cast<uint8_t>(FrameType::kShutdown);
}

namespace {

bool IsKnownType(uint8_t type) {
  return IsRequestType(type) || IsResponseType(type);
}

/// Starts a frame at the end of *out: the header placeholder, then the
/// (type, request id) prefix. SealFrame finishes it once the body is in.
size_t BeginFrame(FrameType type, uint64_t request_id, std::string* out) {
  const size_t start = streamrel::BeginFrame(out);
  out->push_back(static_cast<char>(type));
  PutU64(request_id, out);
  return start;
}

void PutStreamRows(const std::string& source, int64_t close,
                   const std::vector<Row>& rows, std::string* out) {
  PutString(source, out);
  PutI64(close, out);
  PutRows(rows, out);
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + kFramePrefixBytes +
               frame.body.size());
  const size_t start = BeginFrame(frame.type, frame.request_id, out);
  out->append(frame.body);
  SealFrame(start, out);
}

void EncodeStreamRowsFrame(uint64_t request_id, const std::string& source,
                           int64_t close, const std::vector<Row>& rows,
                           std::string* out) {
  const size_t start = BeginFrame(FrameType::kStreamRows, request_id, out);
  PutStreamRows(source, close, rows, out);
  SealFrame(start, out);
}

DecodeStatus TryDecodeFrame(const std::string& buf, size_t* offset,
                            Frame* frame, std::string* error) {
  const size_t avail = buf.size() - *offset;
  if (avail < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  uint32_t len, checksum;
  size_t pos = *offset;
  memcpy(&len, buf.data() + pos, sizeof(len));
  memcpy(&checksum, buf.data() + pos + sizeof(len), sizeof(checksum));
  if (len < kFramePrefixBytes || len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame payload length " + std::to_string(len) +
               " out of range";
    }
    return DecodeStatus::kCorrupt;
  }
  if (avail < kFrameHeaderBytes + len) return DecodeStatus::kNeedMore;
  const char* payload = buf.data() + pos + kFrameHeaderBytes;
  if (FrameChecksum(payload, len) != checksum) {
    if (error != nullptr) *error = "frame checksum mismatch";
    return DecodeStatus::kCorrupt;
  }
  const uint8_t type = static_cast<uint8_t>(payload[0]);
  if (!IsKnownType(type)) {
    if (error != nullptr) {
      *error = "unknown frame type " + std::to_string(type);
    }
    return DecodeStatus::kCorrupt;
  }
  frame->type = static_cast<FrameType>(type);
  memcpy(&frame->request_id, payload + 1, sizeof(frame->request_id));
  frame->body.assign(payload + kFramePrefixBytes, len - kFramePrefixBytes);
  *offset += kFrameHeaderBytes + len;
  return DecodeStatus::kFrame;
}

// --- request bodies --------------------------------------------------------

std::string EncodeQueryBody(const std::string& sql) {
  std::string out;
  PutString(sql, &out);
  return out;
}

Result<std::string> DecodeQueryBody(const std::string& body) {
  size_t offset = 0;
  std::string sql;
  RETURN_IF_ERROR(GetString(body, &offset, &sql));
  return sql;
}

std::string EncodeIngestBody(const IngestBatchRequest& req) {
  std::string out;
  PutString(req.stream, &out);
  PutI64(req.system_time, &out);
  PutRows(req.rows, &out);
  return out;
}

Result<bool> DecodeIngestBodyColumnar(const std::string& body,
                                      IngestColumnarRequest* req) {
  size_t offset = 0;
  RETURN_IF_ERROR(GetString(body, &offset, &req->stream));
  RETURN_IF_ERROR(GetFixed(body, &offset, &req->system_time));
  uint32_t n_rows = 0;
  RETURN_IF_ERROR(GetFixed(body, &offset, &n_rows));
  // Counts are checked against the bytes left before they size anything:
  // a row needs at least its 4-byte arity, a cell at least its tag byte.
  if (n_rows > (body.size() - offset) / sizeof(uint32_t)) {
    return Status::IoError("row count " + std::to_string(n_rows) +
                           " exceeds the body");
  }
  exec::ColumnBatch batch{0};
  for (uint32_t r = 0; r < n_rows; ++r) {
    const size_t row_start = offset;
    uint32_t arity = 0;
    RETURN_IF_ERROR(GetFixed(body, &offset, &arity));
    if (r == 0) {
      if (arity > body.size() - offset) {
        return Status::IoError("row arity " + std::to_string(arity) +
                               " exceeds the body");
      }
      batch = exec::ColumnBatch(arity);
      batch.Reserve(std::min<size_t>(
          n_rows, (body.size() - row_start) / (sizeof(uint32_t) + arity)));
    } else if (arity != batch.num_columns()) {
      // A row of another width rides in the batch torn; the runtime
      // quarantines it exactly as it does in process. A torn row pads
      // every column, so before the batch would hold more cells than the
      // body has bytes it goes all torn at width 0, which the runtime
      // repacks to the stream's width like any batch of the wrong width.
      if (size_t{r + 1} * batch.num_columns() > body.size()) {
        exec::ColumnBatch narrow{0};
        for (const Row& row : batch.MaterializeAll()) narrow.AppendRow(row);
        batch = std::move(narrow);
      }
      offset = row_start;
      ASSIGN_OR_RETURN(Row row, DeserializeRow(body, &offset));
      batch.AppendRow(row);
      continue;
    }
    for (uint32_t col = 0; col < arity; ++col) {
      if (offset >= body.size()) {
        return Status::IoError("truncated value: missing type tag");
      }
      const DataType type = static_cast<DataType>(body[offset]);
      ++offset;
      switch (type) {
        case DataType::kNull:
          batch.AppendNull(col);
          break;
        case DataType::kBool:
        case DataType::kInt64:
        case DataType::kTimestamp:
        case DataType::kInterval: {
          int64_t v = 0;
          RETURN_IF_ERROR(GetFixed(body, &offset, &v));
          if (type == DataType::kBool) {
            batch.AppendBool(col, v != 0);
          } else if (type == DataType::kTimestamp) {
            batch.AppendTimestamp(col, v);
          } else if (type == DataType::kInterval) {
            batch.AppendInterval(col, v);
          } else {
            batch.AppendInt64(col, v);
          }
          break;
        }
        case DataType::kDouble: {
          double v = 0;
          RETURN_IF_ERROR(GetFixed(body, &offset, &v));
          batch.AppendDouble(col, v);
          break;
        }
        case DataType::kString: {
          uint32_t len = 0;
          RETURN_IF_ERROR(GetFixed(body, &offset, &len));
          if (offset + len > body.size()) {
            return Status::IoError("truncated string payload");
          }
          batch.AppendString(col,
                             std::string_view(body.data() + offset, len));
          offset += len;
          break;
        }
        default:
          return Status::IoError("unknown value type tag");
      }
    }
    batch.CommitRow();
  }
  req->batch = std::move(batch);
  return n_rows > 0;
}

std::string EncodeNameBody(const std::string& name) {
  std::string out;
  PutString(name, &out);
  return out;
}

Result<std::string> DecodeNameBody(const std::string& body) {
  size_t offset = 0;
  std::string name;
  RETURN_IF_ERROR(GetString(body, &offset, &name));
  return name;
}

std::string EncodeReplFetchBody(const ReplFetchRequest& req) {
  std::string out;
  PutU64(req.from_offset, &out);
  PutU64(req.applied_frames, &out);
  return out;
}

Result<ReplFetchRequest> DecodeReplFetchBody(const std::string& body) {
  size_t offset = 0;
  ReplFetchRequest req;
  RETURN_IF_ERROR(GetFixed(body, &offset, &req.from_offset));
  RETURN_IF_ERROR(GetFixed(body, &offset, &req.applied_frames));
  return req;
}

std::string EncodeSubscribeResumeBody(const SubscribeResumeRequest& req) {
  std::string out;
  PutString(req.name, &out);
  PutI64(req.resume_close, &out);
  return out;
}

Result<SubscribeResumeRequest> DecodeSubscribeResumeBody(
    const std::string& body) {
  size_t offset = 0;
  SubscribeResumeRequest req;
  RETURN_IF_ERROR(GetString(body, &offset, &req.name));
  RETURN_IF_ERROR(GetFixed(body, &offset, &req.resume_close));
  return req;
}

// --- response bodies -------------------------------------------------------

std::string EncodeRowSetBody(const RowSet& rowset) {
  std::string out;
  PutString(rowset.message, &out);
  PutU32(static_cast<uint32_t>(rowset.schema.num_columns()), &out);
  for (const Column& col : rowset.schema.columns()) {
    PutString(col.name, &out);
    out.push_back(static_cast<char>(col.type));
  }
  PutRows(rowset.rows, &out);
  return out;
}

Result<RowSet> DecodeRowSetBody(const std::string& body) {
  size_t offset = 0;
  RowSet rowset;
  RETURN_IF_ERROR(GetString(body, &offset, &rowset.message));
  uint32_t ncols = 0;
  RETURN_IF_ERROR(GetFixed(body, &offset, &ncols));
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column col;
    uint8_t type = 0;
    RETURN_IF_ERROR(GetString(body, &offset, &col.name));
    RETURN_IF_ERROR(GetFixed(body, &offset, &type));
    col.type = static_cast<DataType>(type);
    columns.push_back(std::move(col));
  }
  rowset.schema = Schema(std::move(columns));
  RETURN_IF_ERROR(GetRows(body, &offset, &rowset.rows));
  return rowset;
}

std::string EncodeStreamRowsBody(const StreamRowsBody& batch) {
  std::string out;
  PutStreamRows(batch.source, batch.close, batch.rows, &out);
  return out;
}

Result<StreamRowsBody> DecodeStreamRowsBody(const std::string& body) {
  size_t offset = 0;
  StreamRowsBody batch;
  RETURN_IF_ERROR(GetString(body, &offset, &batch.source));
  RETURN_IF_ERROR(GetFixed(body, &offset, &batch.close));
  RETURN_IF_ERROR(GetRows(body, &offset, &batch.rows));
  return batch;
}

std::string EncodeErrorBody(const Status& status) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutString(status.message(), &out);
  return out;
}

Status DecodeErrorBody(const std::string& body) {
  if (body.empty()) return Status::IoError("truncated error body");
  StatusCode code = static_cast<StatusCode>(body[0]);
  size_t offset = 1;
  std::string message;
  RETURN_IF_ERROR(GetString(body, &offset, &message));
  if (code == StatusCode::kOk) {
    // An ERROR frame must carry an error; a bogus code still surfaces as
    // one rather than silently becoming success.
    return Status(StatusCode::kInternal, "malformed error frame: " + message);
  }
  return Status(code, std::move(message));
}

std::string EncodeAckBody(const std::string& message) {
  std::string out;
  PutString(message, &out);
  return out;
}

Result<std::string> DecodeAckBody(const std::string& body) {
  size_t offset = 0;
  std::string message;
  RETURN_IF_ERROR(GetString(body, &offset, &message));
  return message;
}

std::string EncodeReplFramesBody(const ReplFramesBody& body) {
  std::string out;
  PutU64(body.start_offset, &out);
  PutU64(body.primary_synced_bytes, &out);
  PutString(body.bytes, &out);
  return out;
}

Result<ReplFramesBody> DecodeReplFramesBody(const std::string& body) {
  size_t offset = 0;
  ReplFramesBody out;
  RETURN_IF_ERROR(GetFixed(body, &offset, &out.start_offset));
  RETURN_IF_ERROR(GetFixed(body, &offset, &out.primary_synced_bytes));
  RETURN_IF_ERROR(GetString(body, &offset, &out.bytes));
  return out;
}

std::string EncodeShutdownBody(const std::string& reason) {
  std::string out;
  PutString(reason, &out);
  return out;
}

Result<std::string> DecodeShutdownBody(const std::string& body) {
  size_t offset = 0;
  std::string reason;
  RETURN_IF_ERROR(GetString(body, &offset, &reason));
  return reason;
}

}  // namespace streamrel::net
