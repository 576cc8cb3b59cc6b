#include "stream/channel.h"

#include "common/fault_injector.h"

namespace streamrel::stream {

Status InsertIntoTable(catalog::TableInfo* table, const Row& row,
                       storage::TxnId txn, storage::WriteAheadLog* wal) {
  const Schema& schema = table->schema;
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match table '" + table->name + "' (" +
        std::to_string(schema.num_columns()) + " columns)");
  }
  Row coerced;
  coerced.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    DataType target = schema.column(i).type;
    if (row[i].is_null() || row[i].type() == target) {
      coerced.push_back(row[i]);
    } else {
      ASSIGN_OR_RETURN(Value v, row[i].CastTo(target));
      coerced.push_back(std::move(v));
    }
  }
  ASSIGN_OR_RETURN(storage::RowId row_id, table->heap->Insert(coerced, txn));
  for (const auto& index : table->indexes) {
    ASSIGN_OR_RETURN(size_t col,
                     schema.FindColumn(index->column_name()));
    index->Insert(coerced[col], row_id);
  }
  if (wal != nullptr) {
    storage::WalRecord record;
    record.type = storage::WalRecordType::kInsert;
    record.txn_id = txn;
    record.object_name = table->name;
    record.row = std::move(coerced);
    RETURN_IF_ERROR(wal->Append(record));
  }
  return Status::OK();
}

Status DeleteFromTable(catalog::TableInfo* table, storage::RowId row_id,
                       const Row& row, storage::TxnId txn,
                       const storage::TransactionManager& txns,
                       storage::WriteAheadLog* wal) {
  RETURN_IF_ERROR(table->heap->Delete(row_id, txn, txns));
  for (const auto& index : table->indexes) {
    ASSIGN_OR_RETURN(size_t col, table->schema.FindColumn(
                                     index->column_name()));
    // Physical index entries are removed eagerly; MVCC readers that still
    // see the old version go through the heap's visibility check anyway
    // only for rows the index returns, so removal must wait until no
    // snapshot needs it. We keep the entry and let IndexScan's visibility
    // check filter it, EXCEPT when the deleting transaction also created
    // the row (insert+delete in one txn) — then nobody can see it.
    auto meta = table->heap->GetRowMeta(row_id);
    if (meta.ok() && meta->xmin == txn) {
      RETURN_IF_ERROR(index->Remove(row[col], row_id));
    }
  }
  if (wal != nullptr) {
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDelete;
    record.txn_id = txn;
    record.object_name = table->name;
    record.int_payload = static_cast<int64_t>(row_id);
    RETURN_IF_ERROR(wal->Append(record));
  }
  return Status::OK();
}

Result<int64_t> VacuumTable(catalog::TableInfo* table,
                            const storage::TransactionManager& txns,
                            storage::WriteAheadLog* wal) {
  // The survivors are the versions visible now, in ascending RowId order
  // (the loop's order). Each keeps its xmin, and with it its commit time,
  // so window-consistent snapshots and SUBSCRIBE RESUME still place it in
  // the window that wrote it.
  struct Survivor {
    storage::TxnId xmin;
    Row row;
  };
  std::vector<Survivor> survivors;
  RETURN_IF_ERROR(table->heap->Scan(
      txns, txns.CurrentSnapshot(), storage::kInvalidTxn,
      [&](storage::RowId, const storage::HeapTable::RowMeta& meta,
          Row&& row) {
        survivors.push_back(Survivor{meta.xmin, std::move(row)});
        return true;
      }));
  int64_t reclaimed = static_cast<int64_t>(table->heap->row_count()) -
                      static_cast<int64_t>(survivors.size());

  // Rebuild in place: the heap and the index objects stay, so plans that
  // hold them (a CQ's IndexLookupJoin keeps its index) stay valid.
  RETURN_IF_ERROR(table->heap->Truncate());
  for (const auto& index : table->indexes) index->Clear();
  for (const Survivor& survivor : survivors) {
    // Indexes are maintained by InsertIntoTable; re-inserts are NOT
    // WAL-logged — the kVacuum barrier record replays this whole
    // compaction deterministically instead.
    RETURN_IF_ERROR(
        InsertIntoTable(table, survivor.row, survivor.xmin, /*wal=*/nullptr));
  }

  if (wal != nullptr) {
    storage::WalRecord record;
    record.type = storage::WalRecordType::kVacuum;
    record.object_name = table->name;
    RETURN_IF_ERROR(wal->Append(record));
    RETURN_IF_ERROR(wal->Sync());
  }
  return reclaimed;
}

Channel::Channel(catalog::ChannelInfo info, catalog::TableInfo* table,
                 storage::TransactionManager* txns,
                 storage::WriteAheadLog* wal)
    : info_(std::move(info)), table_(table), txns_(txns), wal_(wal) {}

Status Channel::OnRawRows(int64_t at, const std::vector<Row>& rows) {
  if (at < watermark() || rows.empty()) return Status::OK();
  // Temporarily lower the recorded watermark so OnBatch accepts `at` even
  // when it equals the previous group's watermark. If the batch fails, the
  // prior watermark must come back: leaving it at `at - 1` would let a
  // redelivered earlier group slip past the dedup check and double-apply.
  // (Only this stream's ingest lock holder mutates the watermark, so the
  // interim value is never observed by another writer.)
  const int64_t prior = watermark();
  SetWatermark(at - 1);
  Status status = OnBatch(at, rows);
  if (!status.ok()) SetWatermark(prior);
  return status;
}

Status Channel::OnBatch(int64_t close, const std::vector<Row>& rows) {
  if (close <= watermark()) return Status::OK();  // already persisted
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("channel.sink"));

  storage::TxnId txn = txns_->Begin();
  storage::WalRecord begin;
  begin.type = storage::WalRecordType::kBegin;
  begin.txn_id = txn;
  RETURN_IF_ERROR(wal_->Append(begin));

  if (info_.mode == sql::ChannelMode::kReplace) {
    // Delete every currently visible row so the table holds only this
    // window's results.
    storage::Snapshot snap = txns_->CurrentSnapshot();
    std::vector<std::pair<storage::RowId, Row>> victims;
    RETURN_IF_ERROR(table_->heap->Scan(
        *txns_, snap, txn,
        [&](storage::RowId id, const storage::HeapTable::RowMeta&,
            Row&& row) {
          victims.emplace_back(id, std::move(row));
          return true;
        }));
    for (const auto& [id, row] : victims) {
      RETURN_IF_ERROR(DeleteFromTable(table_, id, row, txn, *txns_, wal_));
    }
  }

  for (const Row& row : rows) {
    RETURN_IF_ERROR(InsertIntoTable(table_, row, txn, wal_));
  }

  storage::WalRecord progress;
  progress.type = storage::WalRecordType::kChannelProgress;
  progress.txn_id = txn;
  progress.object_name = info_.name;
  progress.int_payload = close;
  RETURN_IF_ERROR(wal_->Append(progress));

  storage::WalRecord commit;
  commit.type = storage::WalRecordType::kCommit;
  commit.txn_id = txn;
  commit.int_payload = close;  // commit time = window close
  RETURN_IF_ERROR(wal_->Append(commit));
  // The batch is committed only once its commit record is durable; a
  // failed sync leaves the transaction uncommitted and the watermark
  // unchanged, so the group is redelivered rather than half-applied.
  RETURN_IF_ERROR(wal_->Sync());

  // Window consistency: the batch becomes visible exactly at the window
  // boundary it belongs to.
  RETURN_IF_ERROR(txns_->Commit(txn, close).status());

  SetWatermark(close);
  batches_persisted_.fetch_add(1, std::memory_order_relaxed);
  rows_persisted_.fetch_add(static_cast<int64_t>(rows.size()),
                            std::memory_order_relaxed);
  if (batches_metric_ != nullptr) batches_metric_->Add();
  if (rows_metric_ != nullptr) {
    rows_metric_->Add(static_cast<int64_t>(rows.size()));
  }
  if (watermark_metric_ != nullptr) watermark_metric_->Set(close);
  return Status::OK();
}

}  // namespace streamrel::stream
