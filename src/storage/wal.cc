#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/fault_injector.h"

namespace streamrel::storage {

WriteAheadLog::WriteAheadLog(std::shared_ptr<SimulatedDisk> disk)
    : disk_(std::move(disk)) {}

namespace {

// A record's payload: this header, then a u32 count and that many rows
// (kInsert) or u64 row ids (any other type; none but kDelete has any).
void PutHeader(const WalRecord& record, std::string* out) {
  out->push_back(static_cast<char>(record.type));
  PutU64(record.txn_id, out);
  PutString(record.object_name, out);
  PutI64(record.int_payload, out);
  PutString(record.blob, out);
}

Result<WalRecord> Decode(const std::string& data, size_t* offset) {
  if (*offset >= data.size()) return Status::IoError("truncated WAL record");
  WalRecord record;
  record.type = static_cast<WalRecordType>(data[*offset]);
  ++*offset;
  RETURN_IF_ERROR(GetFixed(data, offset, &record.txn_id));
  RETURN_IF_ERROR(GetString(data, offset, &record.object_name));
  RETURN_IF_ERROR(GetFixed(data, offset, &record.int_payload));
  RETURN_IF_ERROR(GetString(data, offset, &record.blob));
  if (record.type == WalRecordType::kInsert) {
    RETURN_IF_ERROR(GetRows(data, offset, &record.rows));
    return record;
  }
  uint32_t n = 0;
  RETURN_IF_ERROR(GetFixed(data, offset, &n));
  if (n > (data.size() - *offset) / sizeof(uint64_t)) {
    return Status::IoError("truncated WAL row ids");
  }
  record.row_ids.resize(n);
  for (uint64_t& id : record.row_ids) {
    RETURN_IF_ERROR(GetFixed(data, offset, &id));
  }
  return record;
}

}  // namespace

Status WriteAheadLog::Append(const WalRecord& record) {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("wal.append"));
  const bool ids = record.type == WalRecordType::kDelete;
  const size_t items = ids ? record.row_ids.size()
                       : record.type == WalRecordType::kInsert
                           ? record.rows.size()
                           : 0;
  std::lock_guard<std::mutex> lock(mu_);
  // A recovering system truncates any damaged tail before it writes.
  tail_damage_.clear();
  size_t next = 0;
  do {
    // One frame (common/checksum.h) per run of rows or ids that fits under
    // kWalSliceBytes, encoded straight into the log. A frame takes at least
    // one item, so a row larger than the cap gets a frame of its own.
    const size_t start = BeginFrame(&log_);
    PutHeader(record, &log_);
    const size_t count_at = log_.size();
    PutU32(0, &log_);
    const size_t first = next;
    for (; next < items; ++next) {
      const size_t before = log_.size();
      if (ids) {
        PutU64(record.row_ids[next], &log_);
      } else {
        SerializeRow(record.rows[next], &log_);
      }
      if (next > first &&
          log_.size() - start > static_cast<size_t>(kWalSliceBytes)) {
        log_.resize(before);
        break;
      }
    }
    const auto count = static_cast<uint32_t>(next - first);
    memcpy(&log_[count_at], &count, sizeof(count));
    SealFrame(start, &log_);
    ++record_count_;
  } while (next < items);
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

Status WriteAheadLog::AppendAndSync(const WalRecord& record) {
  int64_t bytes, records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bytes = static_cast<int64_t>(log_.size());
    records = record_count_;
  }
  RETURN_IF_ERROR(Append(record));
  Status status = Sync();
  if (!status.ok() && !FaultInjector::IsInjectedCrash(status)) {
    std::lock_guard<std::mutex> lock(mu_);
    DropUnsyncedLocked(bytes, records);
  }
  return status;
}

void WriteAheadLog::DropUnsyncedLocked(int64_t bytes, int64_t records) {
  if (bytes < synced_bytes_) {
    bytes = synced_bytes_;
    records = synced_records_;
  }
  if (bytes >= static_cast<int64_t>(log_.size())) return;
  log_.resize(static_cast<size_t>(bytes));
  record_count_ = records;
}

void WriteAheadLog::SimulateCrash(CrashMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string unsynced = log_.substr(static_cast<size_t>(synced_bytes_));
  DropUnsyncedLocked(synced_bytes_, synced_records_);
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

Result<WriteAheadLog::WalkStop> WriteAheadLog::WalkFrames(
    const std::string& bytes, const std::function<Status(WalRecord&&)>& visit,
    size_t* end) {
  *end = 0;
  while (*end < bytes.size()) {
    if (bytes.size() - *end < kFrameHeaderBytes) {
      return WalkStop::kPartial;  // the header itself is cut
    }
    uint32_t len = 0, checksum = 0;
    memcpy(&len, bytes.data() + *end, sizeof(len));
    memcpy(&checksum, bytes.data() + *end + sizeof(len), sizeof(checksum));
    const size_t payload_at = *end + kFrameHeaderBytes;
    if (bytes.size() - payload_at < len) {
      return WalkStop::kPartial;  // the frame runs past the end
    }
    const size_t frame_end = payload_at + len;
    if (FrameChecksum(bytes.data() + payload_at, len) != checksum) {
      return frame_end == bytes.size() ? WalkStop::kBadTail
                                       : WalkStop::kBadFrame;
    }
    const std::string payload = bytes.substr(payload_at, len);
    size_t decoded = 0;
    Result<WalRecord> record = Decode(payload, &decoded);
    if (!record.ok() || decoded != payload.size()) return WalkStop::kBadFrame;
    RETURN_IF_ERROR(visit(record.TakeValue()));
    *end = frame_end;
  }
  return WalkStop::kEnd;
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
  auto replay = [&](WalRecord&& record) {
    ++local.records;
    return callback(record);
  };
  size_t end = 0;
  ASSIGN_OR_RETURN(WalkStop stop, WalkFrames(snapshot, replay, &end));
  std::lock_guard<std::mutex> lock(mu_);
  if (stop == WalkStop::kBadFrame) {
    // Damage with intact frames after it, or a checksum-valid frame that
    // does not decode, is not a crash artifact: the log is corrupt.
    ++midlog_corruptions_seen_;
    return Status::IoError("WAL frame " + std::to_string(local.records) +
                           " at byte offset " + std::to_string(end) +
                           " is damaged before the tail; the log is corrupt");
  }
  local.stopped_at_torn_tail = stop == WalkStop::kPartial;
  local.stopped_at_corrupt_tail = stop == WalkStop::kBadTail;
  torn_tails_seen_ += local.stopped_at_torn_tail ? 1 : 0;
  corrupt_tails_seen_ += local.stopped_at_corrupt_tail ? 1 : 0;
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
  const auto from = static_cast<size_t>(from_offset);
  const auto left = static_cast<size_t>(synced_bytes_ - from_offset);
  size_t n = std::min(static_cast<size_t>(max_bytes), left);
  if (left >= kFrameHeaderBytes) {
    // A slice that held no whole frame would leave the receiver fetching
    // the same offset forever, so a longer frame ships whole. Only a
    // checksum-valid frame counts: `from_offset` need not be a frame start.
    uint32_t len = 0, checksum = 0;
    memcpy(&len, log_.data() + from, sizeof(len));
    memcpy(&checksum, log_.data() + from + sizeof(len), sizeof(checksum));
    const size_t whole = kFrameHeaderBytes + len;
    if (whole > n && whole <= left &&
        FrameChecksum(log_.data() + from + kFrameHeaderBytes, len) ==
            checksum) {
      n = whole;
    }
  }
  return log_.substr(from, n);
}

Status WriteAheadLog::DecodeShipped(const std::string& bytes,
                                    size_t* consumed,
                                    std::vector<WalRecord>* records) {
  auto ship = [&](WalRecord&& record) {
    records->push_back(std::move(record));
    return Status::OK();
  };
  ASSIGN_OR_RETURN(WalkStop stop, WalkFrames(bytes, ship, consumed));
  if (stop == WalkStop::kBadTail || stop == WalkStop::kBadFrame) {
    return Status::IoError(
        "shipped WAL frame at slice offset " + std::to_string(*consumed) +
        " fails its checksum or does not decode; the synced source prefix "
        "is intact, so the bytes were damaged in flight — discard and "
        "re-fetch");
  }
  return Status::OK();  // a trailing partial frame waits for the next fetch
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

Result<LoggedTxn> LoggedTxn::Begin(TransactionManager* txns,
                                   WriteAheadLog* wal) {
  LoggedTxn txn(txns, wal, txns->Begin());
  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  begin.txn_id = txn.id_;
  Status status = wal->Append(begin);
  if (!status.ok()) return txn.Abort(std::move(status));
  return txn;
}

Status LoggedTxn::Run(TransactionManager* txns, WriteAheadLog* wal,
                      int64_t commit_time_micros,
                      const std::function<Status(TxnId)>& write) {
  ASSIGN_OR_RETURN(LoggedTxn txn, Begin(txns, wal));
  Status status = write(txn.id());
  if (!status.ok()) return txn.Abort(std::move(status));
  return txn.Commit(commit_time_micros);
}

Status LoggedTxn::Commit(int64_t commit_time_micros) {
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = id_;
  commit.int_payload = commit_time_micros;
  Status status = wal_->AppendAndSync(commit);
  if (!status.ok()) return Abort(std::move(status));
  return txns_->Commit(id_, commit_time_micros).status();
}

Status LoggedTxn::Abort(Status cause) {
  const Status aborted = txns_->Abort(id_);
  WalRecord abort;
  abort.type = WalRecordType::kAbort;
  abort.txn_id = id_;
  const Status logged = wal_->Append(abort);
  if (!cause.ok()) return cause;
  return aborted.ok() ? logged : aborted;
}

}  // namespace streamrel::storage
