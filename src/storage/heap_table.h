#ifndef STREAMREL_STORAGE_HEAP_TABLE_H_
#define STREAMREL_STORAGE_HEAP_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/disk.h"
#include "storage/transaction.h"

namespace streamrel::storage {

using RowId = uint64_t;

/// MVCC heap storage for one table. Row payloads live in pages on the
/// SimulatedDisk (so full scans pay real deserialization work and simulated
/// I/O), while the per-row MVCC metadata (xmin/xmax) stays in memory for
/// cheap visibility checks and deletes.
///
/// Rows are append-only within a page; deletes set xmax (tombstone). This
/// matches the paper's additive workloads and keeps REPLACE channels and
/// MV-style refreshes simple.
///
/// Thread-safe (one mutex; the engine is effectively single-writer).
class HeapTable {
 public:
  /// `page_size` is the target serialized-bytes-per-page before the tail
  /// buffer is flushed to the disk.
  HeapTable(Schema schema, std::shared_ptr<SimulatedDisk> disk,
            size_t page_size = 64 * 1024);

  const Schema& schema() const { return schema_; }

  /// Appends `rows`, each stamped with creating transaction `xmin`, under
  /// one lock. They take consecutive ids; returns the first.
  Result<RowId> Append(const std::vector<Row>& rows, TxnId xmin);

  /// Marks each of `row_ids` deleted by `xmax`, under one lock. Stamps none
  /// if an id is unknown or deleted by a transaction that has not aborted;
  /// an aborted deleter's stamp is replaced (the version is live again).
  Status Delete(const std::vector<RowId>& row_ids, TxnId xmax,
                const TransactionManager& txns);

  struct RowMeta {
    TxnId xmin = kInvalidTxn;
    TxnId xmax = kInvalidTxn;
  };
  Result<RowMeta> GetRowMeta(RowId row_id) const;

  /// Receives each version a read passes on: its id, its stamps and its
  /// decoded row, which the visitor may move from. A false return ends the
  /// read. Visitors run under the table's mutex and must not call back
  /// into the table.
  using Visitor = std::function<bool(RowId, const RowMeta&, Row&&)>;
  /// Decides from a version's stamps alone, before its row is decoded,
  /// whether a read passes it on.
  using VersionFilter = std::function<bool(const RowMeta&)>;

  /// Visits the versions of `row_ids` that are visible under (`snap`,
  /// `reader`), in the order given. The one read loop: it takes the mutex
  /// once, reads a page once for each run of ids that lie on it, and
  /// decides visibility once per transaction (VisibilityMemo). Unknown ids
  /// are an error.
  Status Fetch(const TransactionManager& txns, const Snapshot& snap,
               TxnId reader, const std::vector<RowId>& row_ids,
               const Visitor& visitor) const;

  /// Fetch over every version, in RowId order.
  Status Scan(const TransactionManager& txns, const Snapshot& snap,
              TxnId reader, const Visitor& visitor) const;

  /// The same loop over every version, in RowId order, passing on the
  /// versions `filter` accepts instead of the visible ones.
  Status Scan(const VersionFilter& filter, const Visitor& visitor) const;

  /// Reads one version by id, visible or not.
  Result<Row> GetRow(RowId row_id) const;

  /// Number of row versions ever inserted (including deleted ones).
  RowId row_count() const;

  /// Serialized payload bytes across all pages plus the tail buffer.
  int64_t byte_size() const;

  /// Drops all rows and pages.
  Status Truncate();

 private:
  struct RowLocation {
    uint32_t page_index;  // index into pages_, or kTailPage for the buffer
    uint32_t offset;
  };
  static constexpr uint32_t kTailPage = 0xffffffff;

  // Flushes the tail buffer as a new page. Caller holds mu_.
  Status FlushTailLocked();
  // The read loop behind Fetch, Scan and GetRow: visits the versions of
  // `row_ids` (every version when null) that `accept(meta)` passes.
  template <typename Accept>
  Status Read(const std::vector<RowId>* row_ids, Accept&& accept,
              const Visitor& visitor) const;

  const Schema schema_;
  const size_t page_size_;
  std::shared_ptr<SimulatedDisk> disk_;

  mutable std::mutex mu_;
  std::vector<PageId> pages_;
  std::string tail_;  // serialized rows not yet flushed to a page
  std::vector<RowLocation> locations_;
  std::vector<RowMeta> meta_;
  int64_t flushed_bytes_ = 0;
};

}  // namespace streamrel::storage

#endif  // STREAMREL_STORAGE_HEAP_TABLE_H_
