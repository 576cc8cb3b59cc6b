#include "stream/recovery.h"

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "stream/channel.h"

namespace streamrel::stream {

storage::TxnId WalApplier::MappedTxn(uint64_t old_id) {
  auto it = txn_map_.find(old_id);
  if (it != txn_map_.end()) return it->second;
  storage::TxnId fresh = txns_->Begin();
  txn_map_.emplace(old_id, fresh);
  return fresh;
}

Status WalApplier::Apply(const storage::WalRecord& record) {
  catalog::TableInfo* table = nullptr;
  if (record.type == storage::WalRecordType::kInsert ||
      record.type == storage::WalRecordType::kDelete ||
      record.type == storage::WalRecordType::kVacuum) {
    table = catalog_->GetTable(record.object_name);
    if (table == nullptr) {
      return Status::NotFound("WAL record for unknown table '" +
                              record.object_name + "'");
    }
  }
  switch (record.type) {
    case storage::WalRecordType::kBegin: {
      MappedTxn(record.txn_id);
      return Status::OK();
    }
    case storage::WalRecordType::kInsert: {
      result_.rows_inserted += static_cast<int64_t>(record.rows.size());
      return InsertRows(table, record.rows, MappedTxn(record.txn_id),
                        /*wal=*/nullptr);
    }
    case storage::WalRecordType::kDelete: {
      result_.rows_deleted += static_cast<int64_t>(record.row_ids.size());
      return DeleteRows(table, record.row_ids, MappedTxn(record.txn_id),
                        *txns_, /*wal=*/nullptr);
    }
    case storage::WalRecordType::kCommit: {
      RETURN_IF_ERROR(
          txns_->Commit(MappedTxn(record.txn_id), record.int_payload)
              .status());
      auto pending = pending_progress_.find(record.txn_id);
      if (pending != pending_progress_.end()) {
        // Progress records appear in log order, so the last
        // committed one wins.
        for (const auto& [channel, watermark] : pending->second) {
          result_.channel_watermarks[channel] = watermark;
        }
        pending_progress_.erase(pending);
      }
      ++result_.transactions_committed;
      return Status::OK();
    }
    case storage::WalRecordType::kAbort: {
      pending_progress_.erase(record.txn_id);
      return txns_->Abort(MappedTxn(record.txn_id));
    }
    case storage::WalRecordType::kChannelProgress: {
      pending_progress_[record.txn_id].emplace_back(
          ToLower(record.object_name), record.int_payload);
      return Status::OK();
    }
    case storage::WalRecordType::kCheckpoint: {
      CheckpointEntry& entry =
          result_.latest_checkpoints[ToLower(record.object_name)];
      entry.blob = record.blob;
      entry.coverage = record.int_payload;
      return Status::OK();
    }
    case storage::WalRecordType::kVacuum: {
      // Replaying the compaction reproduces the post-vacuum RowIds,
      // so later logged deletes keep targeting the right rows.
      return VacuumTable(table, *txns_, /*wal=*/nullptr).status();
    }
  }
  return Status::IoError("unknown WAL record type");
}

Status WalApplier::Finish() {
  // Any transaction still open at end-of-log crashed mid-flight: abort it
  // so its rows stay permanently invisible (its channel progress, if any,
  // was never applied either).
  for (const auto& [old_id, fresh] : txn_map_) {
    if (!txns_->IsCommitted(fresh) && !txns_->IsAborted(fresh)) {
      RETURN_IF_ERROR(txns_->Abort(fresh));
    }
  }
  txn_map_.clear();
  pending_progress_.clear();
  return Status::OK();
}

Result<WalReplayResult> ReplayWal(catalog::Catalog* catalog,
                                  storage::TransactionManager* txns,
                                  const storage::WriteAheadLog& wal) {
  WalApplier applier(catalog, txns);
  storage::WalReplayStats wal_stats;
  Status status = wal.Replay(
      [&](const storage::WalRecord& record) { return applier.Apply(record); },
      &wal_stats);
  RETURN_IF_ERROR(status);
  RETURN_IF_ERROR(applier.Finish());
  WalReplayResult result = *applier.mutable_result();
  result.stopped_at_torn_tail = wal_stats.stopped_at_torn_tail;
  result.stopped_at_corrupt_tail = wal_stats.stopped_at_corrupt_tail;
  return result;
}

Status ResumeFromActiveTables(StreamRuntime* runtime,
                              const WalReplayResult& replay) {
  for (const auto& [channel_name, watermark] : replay.channel_watermarks) {
    Channel* channel = runtime->GetChannel(channel_name);
    if (channel == nullptr) continue;  // channel not restarted
    channel->SetWatermark(watermark);
    const std::string& source = channel->info().from_stream;
    const catalog::StreamInfo* stream = runtime->catalog()->GetStream(source);
    if (stream != nullptr && stream->is_derived) {
      // Rewind the always-on CQ behind the derived stream: it resumes at
      // the persisted watermark, recomputing nothing that is already in
      // the active table and re-delivering nothing.
      RETURN_IF_ERROR(runtime->ResetCqToWatermark(
          "$derived$" + ToLower(source), watermark));
    }
  }
  return Status::OK();
}

Status CheckpointManager::WriteCheckpoint() {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("checkpoint.write"));
  for (const std::string& name : runtime_->CqNames()) {
    ContinuousQuery* cq = runtime_->GetCq(name);
    if (cq == nullptr || cq->is_shared()) {
      // Shared-strategy CQs keep their data in the slice aggregator; the
      // window operator holds only a close schedule, so a blob would
      // restore to an empty window. They recover the active-table way.
      continue;
    }
    ASSIGN_OR_RETURN(std::string blob, runtime_->SerializeCqState(name));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kCheckpoint;
    record.object_name = name;
    record.int_payload = runtime_->watermark(cq->stream_name());
    record.blob = std::move(blob);
    bytes_written_ += static_cast<int64_t>(record.blob.size());
    RETURN_IF_ERROR(wal_->Append(record));
  }
  RETURN_IF_ERROR(wal_->Sync());
  ++checkpoints_written_;
  return Status::OK();
}

Status CheckpointManager::RestoreFromCheckpoints(
    const WalReplayResult& replay) {
  std::set<std::string> restored;
  for (const auto& [name, entry] : replay.latest_checkpoints) {
    Status status = runtime_->RestoreCqState(name, entry.blob);
    if (status.code() == StatusCode::kNotFound) continue;  // CQ not recreated
    RETURN_IF_ERROR(status);
    restored.insert(name);
  }
  // Channels resume from their durable watermarks. A restored CQ keeps
  // its buffered rows — only delivery of already-persisted windows is
  // suppressed; anything else is reset as in ResumeFromActiveTables.
  for (const auto& [channel_name, watermark] : replay.channel_watermarks) {
    Channel* channel = runtime_->GetChannel(channel_name);
    if (channel == nullptr) continue;
    channel->SetWatermark(watermark);
    const std::string& source = channel->info().from_stream;
    const catalog::StreamInfo* stream =
        runtime_->catalog()->GetStream(source);
    if (stream == nullptr || !stream->is_derived) continue;
    const std::string cq_name = "$derived$" + ToLower(source);
    if (restored.count(cq_name)) {
      RETURN_IF_ERROR(runtime_->SetCqEmitWatermark(cq_name, watermark));
    } else {
      RETURN_IF_ERROR(runtime_->ResetCqToWatermark(cq_name, watermark));
    }
  }
  return Status::OK();
}

}  // namespace streamrel::stream
