#include "stream/channel.h"

#include "common/fault_injector.h"

namespace streamrel::stream {

Status InsertRows(catalog::TableInfo* table, std::vector<Row> rows,
                  storage::TxnId txn, storage::WriteAheadLog* wal) {
  if (rows.empty()) return Status::OK();
  const Schema& schema = table->schema;
  for (Row& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "row arity " + std::to_string(row.size()) +
          " does not match table '" + table->name + "' (" +
          std::to_string(schema.num_columns()) + " columns)");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      const DataType target = schema.column(i).type;
      if (!row[i].is_null() && row[i].type() != target) {
        ASSIGN_OR_RETURN(row[i], row[i].CastTo(target));
      }
    }
  }
  storage::WalRecord record;
  record.type = storage::WalRecordType::kInsert;
  record.txn_id = txn;
  record.object_name = table->name;
  record.rows = std::move(rows);
  if (wal != nullptr) RETURN_IF_ERROR(wal->Append(record));
  ASSIGN_OR_RETURN(storage::RowId first,
                   table->heap->Append(record.rows, txn));
  for (const auto& index : table->indexes) {
    const size_t col = index->column();
    for (size_t i = 0; i < record.rows.size(); ++i) {
      index->Insert(record.rows[i][col], first + i);
    }
  }
  return Status::OK();
}

Status DeleteRows(catalog::TableInfo* table,
                  const std::vector<storage::RowId>& row_ids,
                  storage::TxnId txn, const storage::TransactionManager& txns,
                  storage::WriteAheadLog* wal) {
  if (row_ids.empty()) return Status::OK();
  // The heap first: a delete it refuses must not reach the log, where
  // replay would refuse it too.
  RETURN_IF_ERROR(table->heap->Delete(row_ids, txn, txns));
  if (wal != nullptr) {
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDelete;
    record.txn_id = txn;
    record.object_name = table->name;
    record.row_ids = row_ids;
    RETURN_IF_ERROR(wal->Append(record));
  }
  // A deleted version keeps its index entries, since older snapshots may
  // still reach it through the index (IndexScan checks visibility in the
  // heap), EXCEPT when the deleting transaction also created it: then
  // nobody can see it, and its entries go now.
  if (table->indexes.empty()) return Status::OK();
  for (storage::RowId id : row_ids) {
    ASSIGN_OR_RETURN(storage::HeapTable::RowMeta meta,
                     table->heap->GetRowMeta(id));
    if (meta.xmin != txn) continue;
    ASSIGN_OR_RETURN(Row row, table->heap->GetRow(id));
    for (const auto& index : table->indexes) {
      RETURN_IF_ERROR(index->Remove(row[index->column()], id));
    }
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
  // hold them (a CQ's IndexLookupJoin keeps its index) stay valid. One
  // InsertRows call per run of survivors that share an xmin. The re-inserts
  // are NOT WAL-logged: the kVacuum barrier record replays this whole
  // compaction deterministically instead.
  RETURN_IF_ERROR(table->heap->Truncate());
  for (const auto& index : table->indexes) index->Clear();
  for (size_t run = 0; run < survivors.size();) {
    const storage::TxnId xmin = survivors[run].xmin;
    std::vector<Row> rows;
    for (; run < survivors.size() && survivors[run].xmin == xmin; ++run) {
      rows.push_back(std::move(survivors[run].row));
    }
    RETURN_IF_ERROR(
        InsertRows(table, std::move(rows), xmin, /*wal=*/nullptr));
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
  return Persist(at, rows);
}

Status Channel::OnBatch(int64_t close, const std::vector<Row>& rows) {
  if (close <= watermark()) return Status::OK();  // already persisted
  return Persist(close, rows);
}

Status Channel::Persist(int64_t close, const std::vector<Row>& rows) {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("channel.sink"));
  // The batch is committed only once its commit record is durable, and it
  // becomes visible exactly at the window boundary it belongs to (window
  // consistency). A failure aborts it and leaves the watermark unchanged,
  // so the group is redelivered rather than half-applied.
  RETURN_IF_ERROR(storage::LoggedTxn::Run(
      txns_, wal_, /*commit_time_micros=*/close,
      [&](storage::TxnId txn) -> Status {
        if (info_.mode == sql::ChannelMode::kReplace) {
          // Delete every currently visible row so the table holds only
          // this window's results.
          std::vector<storage::RowId> victims;
          RETURN_IF_ERROR(table_->heap->Scan(
              *txns_, txns_->CurrentSnapshot(), txn,
              [&](storage::RowId id, const storage::HeapTable::RowMeta&,
                  Row&&) {
                victims.push_back(id);
                return true;
              }));
          RETURN_IF_ERROR(DeleteRows(table_, victims, txn, *txns_, wal_));
        }
        RETURN_IF_ERROR(InsertRows(table_, rows, txn, wal_));
        storage::WalRecord progress;
        progress.type = storage::WalRecordType::kChannelProgress;
        progress.txn_id = txn;
        progress.object_name = info_.name;
        progress.int_payload = close;
        return wal_->Append(progress);
      }));

  SetWatermark(close);
  batches_persisted_.fetch_add(1, std::memory_order_relaxed);
  rows_persisted_.fetch_add(static_cast<int64_t>(rows.size()),
                            std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace streamrel::stream
