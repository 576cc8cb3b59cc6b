#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/fault_injector.h"

namespace streamrel::storage {

WriteAheadLog::WriteAheadLog(std::shared_ptr<SimulatedDisk> disk,
                             bool sync_every_append)
    : disk_(std::move(disk)), sync_every_append_(sync_every_append) {}

namespace {

void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(int64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(const std::string& s, std::string* out) {
  uint32_t len = static_cast<uint32_t>(s.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(s);
}

Status GetU64(const std::string& data, size_t* offset, uint64_t* v) {
  if (*offset + sizeof(*v) > data.size()) {
    return Status::IoError("truncated WAL u64");
  }
  memcpy(v, data.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return Status::OK();
}
Status GetI64(const std::string& data, size_t* offset, int64_t* v) {
  if (*offset + sizeof(*v) > data.size()) {
    return Status::IoError("truncated WAL i64");
  }
  memcpy(v, data.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return Status::OK();
}
Status GetString(const std::string& data, size_t* offset, std::string* s) {
  uint32_t len;
  if (*offset + sizeof(len) > data.size()) {
    return Status::IoError("truncated WAL string header");
  }
  memcpy(&len, data.data() + *offset, sizeof(len));
  *offset += sizeof(len);
  if (*offset + len > data.size()) {
    return Status::IoError("truncated WAL string payload");
  }
  *s = data.substr(*offset, len);
  *offset += len;
  return Status::OK();
}

}  // namespace

void WriteAheadLog::Encode(const WalRecord& record, std::string* out) {
  out->push_back(static_cast<char>(record.type));
  PutU64(record.txn_id, out);
  PutString(record.object_name, out);
  PutI64(record.int_payload, out);
  PutString(record.blob, out);
  SerializeRow(record.row, out);
}

Result<WalRecord> WriteAheadLog::Decode(const std::string& data,
                                        size_t* offset) {
  if (*offset >= data.size()) return Status::IoError("truncated WAL record");
  WalRecord record;
  record.type = static_cast<WalRecordType>(data[*offset]);
  ++*offset;
  RETURN_IF_ERROR(GetU64(data, offset, &record.txn_id));
  RETURN_IF_ERROR(GetString(data, offset, &record.object_name));
  RETURN_IF_ERROR(GetI64(data, offset, &record.int_payload));
  RETURN_IF_ERROR(GetString(data, offset, &record.blob));
  ASSIGN_OR_RETURN(record.row, DeserializeRow(data, offset));
  return record;
}

Status WriteAheadLog::Append(const WalRecord& record) {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("wal.append"));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A recovering system truncates any damaged tail before it writes.
    tail_damage_.clear();
    // One frame per record (common/checksum.h), encoded straight into the
    // log behind its header.
    const size_t start = BeginFrame(&log_);
    Encode(record, &log_);
    SealFrame(start, &log_);
    ++record_count_;
  }
  if (sync_every_append_) return Sync();
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("wal.sync"));
  std::lock_guard<std::mutex> lock(mu_);
  int64_t pending = static_cast<int64_t>(log_.size()) - synced_bytes_;
  if (pending <= 0) return Status::OK();
  // An fsync is a device round trip: positioning plus the pending bytes.
  // Group commit amortizes the positioning cost across a whole
  // transaction (or window) of appends.
  disk_->ChargeFlush(pending);
  synced_bytes_ = static_cast<int64_t>(log_.size());
  synced_records_ = record_count_;
  return Status::OK();
}

Status WriteAheadLog::AppendShipped(const std::string& bytes,
                                    int64_t record_count) {
  if (bytes.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(log_.size()) != synced_bytes_) {
    return Status::InvalidArgument(
        "AppendShipped on a log with unsynced local appends: a standby's "
        "log must stay a byte prefix of the primary's");
  }
  tail_damage_.clear();
  log_.append(bytes);
  record_count_ += record_count;
  // One atomic append+fsync: the whole slice becomes durable together, so
  // the applied/acknowledged offset never points mid-slice.
  disk_->ChargeFlush(static_cast<int64_t>(bytes.size()));
  synced_bytes_ = static_cast<int64_t>(log_.size());
  synced_records_ = record_count_;
  return Status::OK();
}

void WriteAheadLog::SimulateCrash(CrashMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string unsynced = log_.substr(static_cast<size_t>(synced_bytes_));
  log_.resize(static_cast<size_t>(synced_bytes_));
  record_count_ = synced_records_;
  tail_damage_.clear();
  if (mode == CrashMode::kClean || unsynced.empty()) return;

  // The device got a prefix of the first unsynced frame onto the platter
  // before power cut out.
  size_t frame_total = unsynced.size();
  if (unsynced.size() >= sizeof(uint32_t)) {
    uint32_t len;
    memcpy(&len, unsynced.data(), sizeof(len));
    const size_t whole = kFrameHeaderBytes + len;
    if (mode == CrashMode::kCorruptTail && len > 0 &&
        unsynced.size() >= whole) {
      // Whole frame made it, but a payload byte was scrambled in flight.
      tail_damage_ = unsynced.substr(0, whole);
      tail_damage_[kFrameHeaderBytes] =
          static_cast<char>(tail_damage_[kFrameHeaderBytes] ^ 0x5a);
      return;
    }
    frame_total = std::min(unsynced.size(), whole);
  }
  // Torn write (or a corrupt-tail request when not even one whole frame
  // survived): keep all but the last byte of what the device received.
  tail_damage_ = unsynced.substr(0, frame_total - 1);
}

Status WriteAheadLog::Replay(
    const std::function<Status(const WalRecord&)>& callback,
    WalReplayStats* stats) const {
  std::string snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = log_ + tail_damage_;
  }
  disk_->ChargeSequentialRead(static_cast<int64_t>(snapshot.size()));
  WalReplayStats local;
  size_t offset = 0;
  int64_t frame_seq = 0;  // 0-based index of the frame being examined
  while (offset < snapshot.size()) {
    if (offset + kFrameHeaderBytes > snapshot.size()) {
      local.stopped_at_torn_tail = true;  // header itself is torn
      break;
    }
    uint32_t len, checksum;
    memcpy(&len, snapshot.data() + offset, sizeof(len));
    memcpy(&checksum, snapshot.data() + offset + sizeof(len),
           sizeof(checksum));
    const size_t payload_at = offset + kFrameHeaderBytes;
    if (payload_at + len > snapshot.size()) {
      local.stopped_at_torn_tail = true;  // frame extends past end-of-log
      break;
    }
    if (FrameChecksum(snapshot.data() + payload_at, len) != checksum) {
      if (payload_at + len == snapshot.size()) {
        local.stopped_at_corrupt_tail = true;  // last frame, bad bytes
        break;
      }
      // A bad checksum with intact frames after it is not a crash
      // artifact — the log is genuinely damaged mid-stream.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++midlog_corruptions_seen_;
      }
      return Status::IoError(
          "WAL checksum mismatch in frame " + std::to_string(frame_seq) +
          " at byte offset " + std::to_string(offset) + " (after " +
          std::to_string(local.records) +
          " replayed records, not at tail); log is corrupt");
    }
    const std::string payload = snapshot.substr(payload_at, len);
    size_t consumed = 0;
    ASSIGN_OR_RETURN(WalRecord record, Decode(payload, &consumed));
    if (consumed != payload.size()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++midlog_corruptions_seen_;
      return Status::IoError("WAL record in frame " +
                             std::to_string(frame_seq) + " at byte offset " +
                             std::to_string(offset) +
                             " has trailing garbage inside its frame");
    }
    offset = payload_at + len;
    ++frame_seq;
    ++local.records;
    RETURN_IF_ERROR(callback(record));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (local.stopped_at_torn_tail) ++torn_tails_seen_;
    if (local.stopped_at_corrupt_tail) ++corrupt_tails_seen_;
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

void WriteAheadLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.clear();
  tail_damage_.clear();
  synced_bytes_ = 0;
  synced_records_ = 0;
  record_count_ = 0;
}

int64_t WriteAheadLog::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_count_;
}

int64_t WriteAheadLog::byte_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(log_.size() + tail_damage_.size());
}

int64_t WriteAheadLog::synced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_bytes_;
}

int64_t WriteAheadLog::synced_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_records_;
}

std::string WriteAheadLog::ReadSynced(int64_t from_offset,
                                      int64_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from_offset < 0 || from_offset >= synced_bytes_ || max_bytes <= 0) {
    return {};
  }
  const int64_t n = std::min(max_bytes, synced_bytes_ - from_offset);
  return log_.substr(static_cast<size_t>(from_offset),
                     static_cast<size_t>(n));
}

Status WriteAheadLog::DecodeShipped(const std::string& bytes,
                                    size_t* consumed,
                                    std::vector<WalRecord>* records) {
  *consumed = 0;
  while (*consumed + kFrameHeaderBytes <= bytes.size()) {
    uint32_t len, checksum;
    memcpy(&len, bytes.data() + *consumed, sizeof(len));
    memcpy(&checksum, bytes.data() + *consumed + sizeof(len),
           sizeof(checksum));
    const size_t payload_at = *consumed + kFrameHeaderBytes;
    if (payload_at + len > bytes.size()) break;  // partial frame: re-fetch
    if (FrameChecksum(bytes.data() + payload_at, len) != checksum) {
      return Status::IoError(
          "shipped WAL frame at slice offset " + std::to_string(*consumed) +
          " fails its checksum; the synced source prefix is intact, so the "
          "bytes were damaged in flight — discard and re-fetch");
    }
    const std::string payload = bytes.substr(payload_at, len);
    size_t record_off = 0;
    ASSIGN_OR_RETURN(WalRecord record, Decode(payload, &record_off));
    if (record_off != payload.size()) {
      return Status::IoError("shipped WAL frame at slice offset " +
                             std::to_string(*consumed) +
                             " has trailing garbage inside its frame");
    }
    records->push_back(std::move(record));
    *consumed = payload_at + len;
  }
  return Status::OK();
}

int64_t WriteAheadLog::torn_tails_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_tails_seen_;
}

int64_t WriteAheadLog::corrupt_tails_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_tails_seen_;
}

int64_t WriteAheadLog::midlog_corruptions_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return midlog_corruptions_seen_;
}

}  // namespace streamrel::storage
