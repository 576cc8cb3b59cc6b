#include "storage/heap_table.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/fault_injector.h"

namespace streamrel::storage {
namespace {

Schema TwoCol() {
  return Schema({Column("id", DataType::kInt64),
                 Column("name", DataType::kString)});
}

class HeapTableTest : public ::testing::Test {
 protected:
  HeapTableTest()
      : disk_(std::make_shared<SimulatedDisk>()),
        table_(TwoCol(), disk_, /*page_size=*/256) {}

  TxnId CommittedInsert(int64_t id, const std::string& name) {
    TxnId txn = txns_.Begin();
    auto r = table_.Append({{Value::Int64(id), Value::String(name)}}, txn);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(txns_.Commit(txn, id).ok());
    return txn;
  }

  std::vector<Row> ScanAll(const Snapshot& snap, TxnId reader = kInvalidTxn) {
    std::vector<Row> rows;
    EXPECT_TRUE(table_
                    .Scan(txns_, snap, reader,
                          [&](RowId, const HeapTable::RowMeta&, Row&& row) {
                            rows.push_back(std::move(row));
                            return true;
                          })
                    .ok());
    return rows;
  }

  std::shared_ptr<SimulatedDisk> disk_;
  TransactionManager txns_;
  HeapTable table_;
};

TEST_F(HeapTableTest, InsertAndScan) {
  CommittedInsert(1, "a");
  CommittedInsert(2, "b");
  auto rows = ScanAll(txns_.CurrentSnapshot());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsString(), "a");
  EXPECT_EQ(rows[1][1].AsString(), "b");
}

TEST_F(HeapTableTest, ArityMismatchRejected) {
  TxnId txn = txns_.Begin();
  EXPECT_FALSE(table_.Append({{Value::Int64(1)}}, txn).ok());
}

TEST_F(HeapTableTest, UncommittedInvisible) {
  TxnId txn = txns_.Begin();
  ASSERT_TRUE(
      table_.Append({{Value::Int64(1), Value::String("x")}}, txn).ok());
  EXPECT_TRUE(ScanAll(txns_.CurrentSnapshot()).empty());
  // ... but visible to itself.
  EXPECT_EQ(ScanAll(txns_.CurrentSnapshot(), txn).size(), 1u);
}

TEST_F(HeapTableTest, AbortedStaysInvisible) {
  TxnId txn = txns_.Begin();
  ASSERT_TRUE(
      table_.Append({{Value::Int64(1), Value::String("x")}}, txn).ok());
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_TRUE(ScanAll(txns_.CurrentSnapshot()).empty());
}

TEST_F(HeapTableTest, SnapshotIsolation) {
  CommittedInsert(1, "old");
  Snapshot before = txns_.CurrentSnapshot();
  CommittedInsert(2, "new");
  EXPECT_EQ(ScanAll(before).size(), 1u);
  EXPECT_EQ(ScanAll(txns_.CurrentSnapshot()).size(), 2u);
}

TEST_F(HeapTableTest, DeleteHidesRow) {
  CommittedInsert(1, "victim");
  Snapshot before_delete = txns_.CurrentSnapshot();
  TxnId deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete({0}, deleter, txns_).ok());
  ASSERT_TRUE(txns_.Commit(deleter, 100).ok());
  EXPECT_TRUE(ScanAll(txns_.CurrentSnapshot()).empty());
  // Old snapshot still sees it (MVCC).
  EXPECT_EQ(ScanAll(before_delete).size(), 1u);
}

TEST_F(HeapTableTest, DoubleDeleteRejected) {
  CommittedInsert(1, "x");
  TxnId d1 = txns_.Begin();
  ASSERT_TRUE(table_.Delete({0}, d1, txns_).ok());
  TxnId d2 = txns_.Begin();
  EXPECT_FALSE(table_.Delete({0}, d2, txns_).ok());
}

TEST_F(HeapTableTest, DeleteReplacesAnAbortedDeleter) {
  CommittedInsert(1, "x");
  TxnId d1 = txns_.Begin();
  ASSERT_TRUE(table_.Delete({0}, d1, txns_).ok());
  ASSERT_TRUE(txns_.Abort(d1).ok());
  EXPECT_EQ(ScanAll(txns_.CurrentSnapshot()).size(), 1u);
  TxnId d2 = txns_.Begin();
  ASSERT_TRUE(table_.Delete({0}, d2, txns_).ok());
  ASSERT_TRUE(txns_.Commit(d2, 100).ok());
  EXPECT_TRUE(ScanAll(txns_.CurrentSnapshot()).empty());
}

TEST_F(HeapTableTest, GetRowByRowId) {
  CommittedInsert(5, "five");
  CommittedInsert(6, "six");
  auto row = table_.GetRow(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt64(), 6);
  EXPECT_FALSE(table_.GetRow(99).ok());
}

TEST_F(HeapTableTest, SpillsAcrossPages) {
  // Page size is 256 bytes; these rows force several page flushes.
  for (int i = 0; i < 100; ++i) {
    CommittedInsert(i, "name-" + std::to_string(i) + std::string(20, 'x'));
  }
  EXPECT_GT(disk_->stats().page_writes, 3);
  auto rows = ScanAll(txns_.CurrentSnapshot());
  ASSERT_EQ(rows.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rows[i][0].AsInt64(), i);
  }
}

// A page write that fails keeps every row of the call: the rows stay in
// the tail, the call reports the failure, and the next flush writes them.
TEST_F(HeapTableTest, FailedPageWriteKeepsEveryRowOfTheCall) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int64(i), Value::String(std::string(40, 'f'))});
  }
  const TxnId failed = txns_.Begin();
  FaultInjector::Instance().Arm("disk.write", FaultPolicy::FailOnce());
  EXPECT_FALSE(table_.Append(rows, failed).ok());
  FaultInjector::Instance().Reset();
  EXPECT_EQ(table_.row_count(), 10u);
  EXPECT_EQ(disk_->stats().page_writes, 0);
  ASSERT_TRUE(txns_.Abort(failed).ok());

  CommittedInsert(10, "after");
  EXPECT_EQ(disk_->stats().page_writes, 1);
  auto rows_now = ScanAll(txns_.CurrentSnapshot());
  ASSERT_EQ(rows_now.size(), 1u);
  EXPECT_EQ(rows_now[0][0].AsInt64(), 10);
  for (RowId id = 0; id < 10; ++id) {
    auto row = table_.GetRow(id);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt64(), static_cast<int64_t>(id));
  }
}

TEST_F(HeapTableTest, ColdScanPaysIo) {
  for (int i = 0; i < 200; ++i) CommittedInsert(i, std::string(32, 'p'));
  disk_->DropCache();
  disk_->ResetStats();
  ScanAll(txns_.CurrentSnapshot());
  EXPECT_GT(disk_->stats().page_reads, 0);
  EXPECT_GT(disk_->stats().simulated_io_micros, 0);
}

TEST_F(HeapTableTest, EarlyTerminationStopsScan) {
  for (int i = 0; i < 10; ++i) CommittedInsert(i, "r");
  int seen = 0;
  ASSERT_TRUE(table_
                  .Scan(txns_, txns_.CurrentSnapshot(), kInvalidTxn,
                        [&](RowId, const HeapTable::RowMeta&, Row&&) {
                          return ++seen < 3;
                        })
                  .ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(HeapTableTest, FetchKeepsTheGivenOrderAndSkipsInvisible) {
  for (int i = 0; i < 6; ++i) CommittedInsert(i, "r" + std::to_string(i));
  TxnId open = txns_.Begin();  // uncommitted insert: row 6
  ASSERT_TRUE(
      table_.Append({{Value::Int64(6), Value::String("r6")}}, open).ok());
  TxnId deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete({2}, deleter, txns_).ok());
  ASSERT_TRUE(txns_.Commit(deleter, 100).ok());

  std::vector<int64_t> seen;
  auto collect = [&](RowId, const HeapTable::RowMeta&, Row&& row) {
    seen.push_back(row[0].AsInt64());
    return true;
  };
  ASSERT_TRUE(table_
                  .Fetch(txns_, txns_.CurrentSnapshot(), kInvalidTxn,
                         {5, 2, 6, 0, 5}, collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{5, 0, 5}));
  seen.clear();
  ASSERT_TRUE(
      table_.Fetch(txns_, txns_.CurrentSnapshot(), open, {6, 1}, collect)
          .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{6, 1}));  // a reader sees its own
  EXPECT_FALSE(table_
                   .Fetch(txns_, txns_.CurrentSnapshot(), kInvalidTxn, {1, 7},
                          collect)
                   .ok());
}

TEST_F(HeapTableTest, FetchReadsEachRunOfRowsOnAPageOnce) {
  for (int i = 0; i < 200; ++i) CommittedInsert(i, std::string(32, 'p'));
  // Rows 0..2 share the first page and row 150 is on a later one.
  disk_->DropCache();
  disk_->ResetStats();
  ASSERT_TRUE(table_
                  .Fetch(txns_, txns_.CurrentSnapshot(), kInvalidTxn,
                         {0, 1, 2, 150, 0},
                         [](RowId, const HeapTable::RowMeta&, Row&&) {
                           return true;
                         })
                  .ok());
  // Runs {0,1,2}, {150}, {0}: two misses, then a hit on the first page.
  EXPECT_EQ(disk_->stats().page_reads, 2);
  EXPECT_EQ(disk_->stats().cache_hits, 1);
}

TEST_F(HeapTableTest, FilteredScanJudgesStampsBeforeDecoding) {
  TxnId a = CommittedInsert(1, "a");
  TxnId b = CommittedInsert(2, "b");
  CommittedInsert(3, "c");
  std::vector<TxnId> judged;
  std::vector<std::pair<TxnId, int64_t>> visited;
  ASSERT_TRUE(table_
                  .Scan(
                      [&](const HeapTable::RowMeta& meta) {
                        judged.push_back(meta.xmin);
                        return meta.xmin != a;
                      },
                      [&](RowId, const HeapTable::RowMeta& meta, Row&& row) {
                        visited.emplace_back(meta.xmin, row[0].AsInt64());
                        return meta.xmin != b;  // stop after row 2
                      })
                  .ok());
  EXPECT_EQ(judged, (std::vector<TxnId>{a, b}));  // the read stopped at b
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited[0], std::make_pair(b, int64_t{2}));
}

TEST_F(HeapTableTest, RowCountCountsAllVersions) {
  CommittedInsert(1, "a");
  TxnId d = txns_.Begin();
  ASSERT_TRUE(table_.Delete({0}, d, txns_).ok());
  ASSERT_TRUE(txns_.Commit(d, 10).ok());
  EXPECT_EQ(table_.row_count(), 1u);  // version still exists
}

TEST_F(HeapTableTest, TruncateResets) {
  for (int i = 0; i < 50; ++i) CommittedInsert(i, std::string(32, 't'));
  ASSERT_TRUE(table_.Truncate().ok());
  EXPECT_EQ(table_.row_count(), 0u);
  EXPECT_EQ(table_.byte_size(), 0);
  EXPECT_TRUE(ScanAll(txns_.CurrentSnapshot()).empty());
  // Table is usable after truncate.
  CommittedInsert(1, "again");
  EXPECT_EQ(ScanAll(txns_.CurrentSnapshot()).size(), 1u);
}

TEST_F(HeapTableTest, ByteSizeGrows) {
  EXPECT_EQ(table_.byte_size(), 0);
  CommittedInsert(1, "abc");
  EXPECT_GT(table_.byte_size(), 0);
}

}  // namespace
}  // namespace streamrel::storage
