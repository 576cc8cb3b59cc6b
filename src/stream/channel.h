#ifndef STREAMREL_STREAM_CHANNEL_H_
#define STREAMREL_STREAM_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/schema.h"
#include "common/status.h"
#include "storage/transaction.h"
#include "storage/wal.h"

namespace streamrel::stream {

/// Persists a stream into an *Active Table* (Example 4 in the paper):
/// each window's results are stored in one logged transaction
/// (storage::LoggedTxn) that commits with commit_time = window close, so
/// the table participates in window-consistent MVCC snapshots (a CQ
/// joining the table as of its own window close sees exactly the
/// fully-persisted earlier windows).
///
/// APPEND adds the batch's rows; REPLACE deletes the previously visible
/// rows first, so the table always holds the latest window's results. A
/// close writes four WAL records (begin, rows, progress, commit), and a
/// REPLACE close that deletes rows a fifth.
///
/// The channel's progress watermark (the last persisted window close) is
/// WAL-logged with each batch; recovery reads it back so a restarted
/// runtime neither loses nor duplicates windows.
class Channel {
 public:
  Channel(catalog::ChannelInfo info, catalog::TableInfo* table,
          storage::TransactionManager* txns, storage::WriteAheadLog* wal);

  const catalog::ChannelInfo& info() const { return info_; }

  /// Persists one window's batch. Batches with close <= watermark are
  /// skipped (recovery idempotence: a window is persisted exactly once).
  Status OnBatch(int64_t close, const std::vector<Row>& rows);

  /// Persists raw-stream rows at watermark `at`. Unlike window batches,
  /// several row groups may legitimately share a watermark (equal CQTIME
  /// values), so only `at < watermark` is skipped.
  Status OnRawRows(int64_t at, const std::vector<Row>& rows);

  int64_t watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }
  void SetWatermark(int64_t watermark) {
    watermark_.store(watermark, std::memory_order_relaxed);
  }

  int64_t batches_persisted() const {
    return batches_persisted_.load(std::memory_order_relaxed);
  }
  int64_t rows_persisted() const {
    return rows_persisted_.load(std::memory_order_relaxed);
  }

 private:
  /// Writes one batch in one logged transaction that commits at `close`,
  /// then advances the watermark to it.
  Status Persist(int64_t close, const std::vector<Row>& rows);

  catalog::ChannelInfo info_;
  catalog::TableInfo* table_;
  storage::TransactionManager* txns_;
  storage::WriteAheadLog* wal_;
  // Atomics: mutated under the source stream's ingest lock (plus the DML
  // lock for the table write), but read by concurrent sys_channels
  // refreshes and SHOW STATS holding only the shared engine lock.
  std::atomic<int64_t> watermark_{INT64_MIN};
  std::atomic<int64_t> batches_persisted_{0};
  std::atomic<int64_t> rows_persisted_{0};
};

/// The one table write path (DESIGN.md, "The write path"): every writer
/// makes one call per table per statement or window close, which logs one
/// kInsert or kDelete record when given a WAL. No rows, no write.

/// Appends `rows` to `table` under `txn`, after checking each row's arity
/// and casting its values to the column types, and indexes them. The
/// record is logged first, so a failed append leaves the heap untouched.
Status InsertRows(catalog::TableInfo* table, std::vector<Row> rows,
                  storage::TxnId txn, storage::WriteAheadLog* wal);

/// MVCC-deletes `row_ids` from `table` under `txn`. Index entries stay
/// (the heap's visibility check filters deleted versions, and VACUUM drops
/// them), except those of versions `txn` itself created, which are removed.
Status DeleteRows(catalog::TableInfo* table,
                  const std::vector<storage::RowId>& row_ids,
                  storage::TxnId txn, const storage::TransactionManager& txns,
                  storage::WriteAheadLog* wal);

/// Compacts `table`: row versions invisible to the current snapshot are
/// dropped, and survivors are re-written densely in ascending old-RowId
/// order (so replaying the logged kVacuum barrier reproduces identical
/// RowIds), each keeping its xmin. The heap and index objects are rebuilt
/// in place. Time-travel snapshots taken before the vacuum no longer see
/// the dropped (deleted or aborted) versions. The caller must exclude
/// every reader and writer of the table for the duration. Returns the
/// number of dead versions reclaimed.
Result<int64_t> VacuumTable(catalog::TableInfo* table,
                            const storage::TransactionManager& txns,
                            storage::WriteAheadLog* wal);

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_CHANNEL_H_
