// UPDATE / DELETE / VACUUM / EXPLAIN and the index nested-loop join.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/time.h"
#include "test_util.h"

namespace streamrel::engine {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

class DmlTest : public ::testing::Test {
 protected:
  DmlTest() {
    MustExecute(&db_, "CREATE TABLE t (k bigint, v varchar)");
    MustExecute(&db_,
                "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
                "(4, 'd')");
  }
  Database db_;
};

TEST_F(DmlTest, DeleteWithPredicate) {
  auto r = MustExecute(&db_, "DELETE FROM t WHERE k % 2 = 0");
  EXPECT_EQ(r.message, "DELETE 2");
  auto rows = MustExecute(&db_, "SELECT k FROM t ORDER BY k");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows.rows[1][0].AsInt64(), 3);
}

TEST_F(DmlTest, DeleteAll) {
  MustExecute(&db_, "DELETE FROM t");
  EXPECT_TRUE(MustExecute(&db_, "SELECT k FROM t").rows.empty());
}

TEST_F(DmlTest, DeleteMaintainsIndex) {
  MustExecute(&db_, "CREATE INDEX t_k ON t (k)");
  MustExecute(&db_, "DELETE FROM t WHERE k = 2");
  auto rows = MustExecute(&db_, "SELECT v FROM t WHERE k = 2");
  EXPECT_TRUE(rows.rows.empty());
  auto others = MustExecute(&db_, "SELECT v FROM t WHERE k = 3");
  EXPECT_EQ(others.rows.size(), 1u);
}

TEST_F(DmlTest, UpdateWithSelfReference) {
  auto r = MustExecute(&db_, "UPDATE t SET k = k + 10 WHERE v = 'b'");
  EXPECT_EQ(r.message, "UPDATE 1");
  auto rows = MustExecute(&db_, "SELECT k FROM t WHERE v = 'b'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt64(), 12);
}

TEST_F(DmlTest, UpdateMultipleColumnsAllRows) {
  MustExecute(&db_, "UPDATE t SET v = upper(v), k = 0");
  auto rows = MustExecute(&db_, "SELECT DISTINCT k FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt64(), 0);
  auto vs = MustExecute(&db_, "SELECT v FROM t ORDER BY v");
  EXPECT_EQ(vs.rows[0][0].AsString(), "A");
}

TEST_F(DmlTest, UpdateUnknownColumnFails) {
  EXPECT_FALSE(db_.Execute("UPDATE t SET ghost = 1").ok());
}

TEST_F(DmlTest, UpdateDeleteSurviveRecovery) {
  MustExecute(&db_, "UPDATE t SET v = 'updated' WHERE k = 1");
  MustExecute(&db_, "DELETE FROM t WHERE k = 4");
  auto expected =
      RowStrings(MustExecute(&db_, "SELECT k, v FROM t ORDER BY k"));

  Database fresh(db_.disk(), db_.wal());
  MustExecute(&fresh, "CREATE TABLE t (k bigint, v varchar)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto actual =
      RowStrings(MustExecute(&fresh, "SELECT k, v FROM t ORDER BY k"));
  EXPECT_EQ(actual, expected);
}

TEST_F(DmlTest, VacuumReclaimsDeadVersions) {
  MustExecute(&db_, "DELETE FROM t WHERE k > 2");
  EXPECT_EQ(db_.catalog()->GetTable("t")->heap->row_count(), 4u);
  auto r = MustExecute(&db_, "VACUUM t");
  EXPECT_EQ(r.message, "VACUUM 2");
  EXPECT_EQ(db_.catalog()->GetTable("t")->heap->row_count(), 2u);
  // Contents unchanged.
  auto rows = MustExecute(&db_, "SELECT k, v FROM t ORDER BY k");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[1][0].AsInt64(), 2);
}

TEST_F(DmlTest, VacuumRebuildsIndexes) {
  MustExecute(&db_, "CREATE INDEX t_k ON t (k)");
  MustExecute(&db_, "DELETE FROM t WHERE k <= 2");
  MustExecute(&db_, "VACUUM t");
  auto rows = MustExecute(&db_, "SELECT v FROM t WHERE k = 3");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "c");
  EXPECT_TRUE(MustExecute(&db_, "SELECT v FROM t WHERE k = 1").rows.empty());
}

TEST_F(DmlTest, VacuumBarrierKeepsRecoveryConsistent) {
  // Delete, vacuum, then delete again (post-vacuum RowIds): replay must
  // land on identical contents.
  MustExecute(&db_, "DELETE FROM t WHERE k = 2");
  MustExecute(&db_, "VACUUM t");
  MustExecute(&db_, "DELETE FROM t WHERE k = 4");
  MustExecute(&db_, "INSERT INTO t VALUES (9, 'z')");
  auto expected =
      RowStrings(MustExecute(&db_, "SELECT k, v FROM t ORDER BY k"));

  Database fresh(db_.disk(), db_.wal());
  MustExecute(&fresh, "CREATE TABLE t (k bigint, v varchar)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto actual =
      RowStrings(MustExecute(&fresh, "SELECT k, v FROM t ORDER BY k"));
  EXPECT_EQ(actual, expected);
}

TEST_F(DmlTest, VacuumAfterReplaceChannelChurn) {
  MustExecute(&db_,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE STREAM agg AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>;"
              "CREATE TABLE board (c bigint);"
              "CREATE CHANNEL ch FROM agg INTO board REPLACE");
  for (int m = 0; m < 10; ++m) {
    ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(m),
                                     Value::Timestamp(m * kMin + kSec)}})
                    .ok());
  }
  ASSERT_TRUE(db_.AdvanceTime("s", 10 * kMin).ok());
  // 10 windows x REPLACE: 10 versions, 9 dead.
  EXPECT_EQ(db_.catalog()->GetTable("board")->heap->row_count(), 10u);
  auto r = MustExecute(&db_, "VACUUM board");
  EXPECT_EQ(r.message, "VACUUM 9");
  auto rows = MustExecute(&db_, "SELECT c FROM board");
  ASSERT_EQ(rows.rows.size(), 1u);
}

TEST_F(DmlTest, VacuumKeepsACqsIndexLookupJoinValid) {
  // The CQ's plan keeps the index it probes from planning time; VACUUM
  // must rebuild that index object, not replace it (replacing it freed it
  // under the plan).
  MustExecute(&db_,
              "CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE hist (k bigint, v varchar);"
              "CREATE INDEX hist_k ON hist (k)");
  MustExecute(&db_, "INSERT INTO hist VALUES (1, 'one'), (2, 'two'), "
                    "(3, 'three')");
  auto cq = db_.CreateContinuousQuery(
      "j", "SELECT s.k, h.v FROM s <VISIBLE '1 minute'> JOIN hist h "
           "ON s.k = h.k");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto plan = MustExecute(&db_,
                          "EXPLAIN SELECT s.k, h.v FROM s <VISIBLE '1 minute'>"
                          " JOIN hist h ON s.k = h.k");
  std::string text;
  for (const Row& row : plan.rows) text += row[0].AsString() + "\n";
  ASSERT_NE(text.find("IndexLookupJoin(hist.k"), std::string::npos) << text;
  streamrel::CqCapture cap;
  (*cq)->AddCallback(cap.Callback());

  // Reclaiming row 0 renumbers the survivors; the insert after the vacuum
  // lands only in the rebuilt index.
  MustExecute(&db_, "DELETE FROM hist WHERE k = 1");
  EXPECT_EQ(MustExecute(&db_, "VACUUM hist").message, "VACUUM 1");
  MustExecute(&db_, "INSERT INTO hist VALUES (4, 'four')");
  std::vector<Row> rows;
  for (int64_t k : {1, 2, 3, 4}) {
    rows.push_back(Row{Value::Int64(k), Value::Timestamp(k * kSec)});
  }
  ASSERT_TRUE(db_.Ingest("s", rows).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  std::vector<std::string> joined;
  for (const Row& row : cap.batches[0].rows) joined.push_back(RowToString(row));
  std::sort(joined.begin(), joined.end());
  EXPECT_EQ(joined, (std::vector<std::string>{"(2, two)", "(3, three)",
                                              "(4, four)"}));
}

TEST(VacuumConcurrencyTest, ReadersNeverSeeAHalfRebuiltTable) {
  // VACUUM runs exclusive: a concurrent snapshot query sees the whole
  // table before or after the rebuild, never the truncated heap or the
  // survivors' re-insert in flight.
  Database db;
  MustExecute(&db, "CREATE TABLE t (k bigint, v varchar);"
                   "CREATE INDEX t_k ON t (k)");
  constexpr int64_t kRows = 5000;
  for (int64_t base = 0; base < kRows; base += 500) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int64_t k = base; k < base + 500; ++k) {
      if (k > base) insert += ", ";
      insert += "(" + std::to_string(k) + ", 'v" + std::to_string(k) + "')";
    }
    MustExecute(&db, insert);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> vacuum_errors{0};
  std::thread vacuum([&] {
    while (!stop.load()) {
      auto r = db.Execute("VACUUM t");
      if (!r.ok() || r->message != "VACUUM 0") vacuum_errors.fetch_add(1);
    }
  });
  int wrong = 0;
  int failed = 0;
  for (int i = 0; i < 60; ++i) {
    for (const char* sql : {"SELECT count(*) FROM t",
                            "SELECT count(*) FROM t WHERE k >= 0"}) {
      auto r = db.Execute(sql);
      if (!r.ok()) {
        ++failed;
      } else if (r->rows.size() != 1 || r->rows[0][0].AsInt64() != kRows) {
        ++wrong;
      }
    }
  }
  stop.store(true);
  vacuum.join();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(vacuum_errors.load(), 0);
}

TEST_F(DmlTest, VacuumKeepsEverySurvivorsWindowForResume) {
  // Survivors keep their xmin, so the resume backfill still groups them
  // into the windows that wrote them.
  MustExecute(&db_,
              "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
              "CREATE STREAM pm AS SELECT url, count(*) AS c, "
              "cq_close(*) AS t FROM s <VISIBLE '1 minute'> GROUP BY url;"
              "CREATE TABLE hist (url varchar, c bigint, t timestamp);"
              "CREATE CHANNEL hist_ch FROM pm INTO hist APPEND");
  for (int64_t m = 0; m < 11; ++m) {
    std::vector<Row> rows;
    for (int64_t i = 0; i <= m % 3; ++i) {
      rows.push_back(Row{Value::String("/u" + std::to_string(i)),
                         Value::Timestamp(m * kMin + (i + 1) * kSec)});
    }
    ASSERT_TRUE(db_.Ingest("s", rows).ok());
  }
  ASSERT_TRUE(db_.AdvanceTime("s", 11 * kMin).ok());

  auto resume = [&] {
    std::vector<Database::ResumeBatch> backfill;
    auto ticket = db_.SubscribeResume(
        "pm", 5 * kMin, [](int64_t, const std::vector<Row>&) {
          return Status::OK();
        },
        &backfill);
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    if (ticket.ok()) {
      EXPECT_TRUE(db_.Unsubscribe(*ticket).ok());
    }
    std::vector<std::string> out;
    for (const auto& batch : backfill) {
      for (const Row& row : batch.rows) {
        out.push_back(std::to_string(batch.close) + " " + RowToString(row));
      }
    }
    return out;
  };
  const std::vector<std::string> before = resume();
  // Windows closing at minutes 6..11 hold 3, 1, 2, 3, 1 and 2 rows.
  EXPECT_EQ(before.size(), 12u);
  // A server's clock reads wall time, far past the stream's minutes.
  db_.SetClock(24 * 60 * kMin);
  EXPECT_EQ(MustExecute(&db_, "VACUUM hist").message, "VACUUM 0");
  EXPECT_EQ(resume(), before);
}

TEST_F(DmlTest, TransactionCommit) {
  MustExecute(&db_, "BEGIN");
  EXPECT_TRUE(db_.in_transaction());
  MustExecute(&db_, "INSERT INTO t VALUES (100, 'tx')");
  MustExecute(&db_, "UPDATE t SET v = 'tx2' WHERE k = 100");
  // Own writes visible inside the transaction.
  auto inside = MustExecute(&db_, "SELECT v FROM t WHERE k = 100");
  ASSERT_EQ(inside.rows.size(), 1u);
  EXPECT_EQ(inside.rows[0][0].AsString(), "tx2");
  MustExecute(&db_, "COMMIT");
  EXPECT_FALSE(db_.in_transaction());
  auto after = MustExecute(&db_, "SELECT v FROM t WHERE k = 100");
  EXPECT_EQ(after.rows.size(), 1u);
}

TEST_F(DmlTest, TransactionRollback) {
  MustExecute(&db_, "BEGIN TRANSACTION");
  MustExecute(&db_, "DELETE FROM t");
  EXPECT_TRUE(MustExecute(&db_, "SELECT k FROM t").rows.empty());
  MustExecute(&db_, "ROLLBACK");
  // Everything is back.
  EXPECT_EQ(MustExecute(&db_, "SELECT k FROM t").rows.size(), 4u);
}

TEST_F(DmlTest, TransactionStateErrors) {
  EXPECT_FALSE(db_.Execute("COMMIT").ok());
  EXPECT_FALSE(db_.Execute("ROLLBACK").ok());
  MustExecute(&db_, "BEGIN");
  EXPECT_FALSE(db_.Execute("BEGIN").ok());
  EXPECT_FALSE(db_.Execute("VACUUM t").ok());
  MustExecute(&db_, "ROLLBACK");
}

TEST_F(DmlTest, RowsARolledBackDeleteLeftCanBeDeletedAgain) {
  MustExecute(&db_, "BEGIN; DELETE FROM t WHERE k = 1; ROLLBACK");
  MustExecute(&db_, "BEGIN; UPDATE t SET v = 'x' WHERE k = 2; ROLLBACK");
  EXPECT_EQ(MustExecute(&db_, "DELETE FROM t WHERE k = 1").message,
            "DELETE 1");
  EXPECT_EQ(MustExecute(&db_, "UPDATE t SET v = 'y' WHERE k = 2").message,
            "UPDATE 1");
  EXPECT_EQ(RowStrings(MustExecute(&db_, "SELECT k, v FROM t ORDER BY k")),
            (std::vector<std::string>{"(2, y)", "(3, c)", "(4, d)"}));
}

TEST_F(DmlTest, RolledBackTransactionStaysGoneAfterRecovery) {
  MustExecute(&db_, "BEGIN; INSERT INTO t VALUES (99, 'ghost'); ROLLBACK");
  MustExecute(&db_, "BEGIN; INSERT INTO t VALUES (50, 'kept'); COMMIT");
  auto expected =
      RowStrings(MustExecute(&db_, "SELECT k, v FROM t ORDER BY k"));

  Database fresh(db_.disk(), db_.wal());
  MustExecute(&fresh, "CREATE TABLE t (k bigint, v varchar)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto actual =
      RowStrings(MustExecute(&fresh, "SELECT k, v FROM t ORDER BY k"));
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(
      MustExecute(&fresh, "SELECT count(*) FROM t WHERE v = 'ghost'")
          .rows[0][0]
          .AsInt64(),
      0);
}

TEST_F(DmlTest, UncommittedInvisibleToSnapshotQueriesOutside) {
  // A CQ's window-consistent snapshot must not see the open transaction.
  MustExecute(&db_,
              "CREATE STREAM s (k bigint, ts timestamp CQTIME USER)");
  auto cq = db_.CreateContinuousQuery(
      "join_dim",
      "SELECT s.k, t.v FROM s <VISIBLE '1 minute'>, t WHERE s.k = t.k");
  ASSERT_TRUE(cq.ok());
  streamrel::CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  MustExecute(&db_, "BEGIN");
  MustExecute(&db_, "INSERT INTO t VALUES (42, 'open')");
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(42),
                                   Value::Timestamp(kSec)}})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_TRUE(cap.batches[0].rows.empty());  // uncommitted row invisible
  MustExecute(&db_, "COMMIT");
}

TEST_F(DmlTest, CreateTableAsSelect) {
  auto r = MustExecute(
      &db_, "CREATE TABLE evens AS SELECT k, upper(v) AS vv FROM t "
            "WHERE k % 2 = 0 ORDER BY k");
  EXPECT_EQ(r.message, "CREATE TABLE AS (2 rows)");
  auto rows = MustExecute(&db_, "SELECT k, vv FROM evens ORDER BY k");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][1].AsString(), "B");
  // Derived table is a real table: indexable, updatable.
  MustExecute(&db_, "CREATE INDEX evens_k ON evens (k)");
  MustExecute(&db_, "UPDATE evens SET vv = 'X' WHERE k = 2");
}

TEST_F(DmlTest, CreateTableAsAggregate) {
  MustExecute(&db_,
              "CREATE TABLE summary AS SELECT count(*) AS n, min(k) AS lo, "
              "max(k) AS hi FROM t");
  auto rows = MustExecute(&db_, "SELECT n, lo, hi FROM summary");
  EXPECT_EQ(RowToString(rows.rows[0]), "(4, 1, 4)");
}

TEST_F(DmlTest, CreateTableAsRejectedInTransaction) {
  MustExecute(&db_, "BEGIN");
  EXPECT_FALSE(db_.Execute("CREATE TABLE c AS SELECT k FROM t").ok());
  MustExecute(&db_, "ROLLBACK");
}

TEST_F(DmlTest, NowFunctionTracksLogicalClock) {
  db_.SetClock(42'000'000);
  auto r = MustExecute(&db_, "SELECT now()");
  EXPECT_EQ(r.rows[0][0].AsTimestampMicros(), 42'000'000);
  // In a CQ, now() equals the window close.
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto cq = db_.CreateContinuousQuery(
      "c", "SELECT count(*), now() FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  streamrel::CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(1),
                                   Value::Timestamp(50'000'000)}})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("s", 60'000'000).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][1].AsTimestampMicros(), 60'000'000);
  // Aliases: current_timestamp; arity checked.
  EXPECT_TRUE(db_.Execute("SELECT current_timestamp()").ok());
  EXPECT_FALSE(db_.Execute("SELECT now(1)").ok());
}

TEST_F(DmlTest, ExplainShowsPlan) {
  auto r = MustExecute(&db_, "EXPLAIN SELECT k FROM t WHERE k > 1 ORDER BY k");
  ASSERT_FALSE(r.rows.empty());
  std::string all;
  for (const Row& row : r.rows) all += row[0].AsString() + "\n";
  EXPECT_NE(all.find("Sort"), std::string::npos);
  EXPECT_NE(all.find("SeqScan(t, filtered)"), std::string::npos);
}

TEST_F(DmlTest, ExplainMarksContinuousQueries) {
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto r = MustExecute(&db_,
                       "EXPLAIN SELECT count(*) FROM s <VISIBLE '1 minute'>");
  std::string all;
  for (const Row& row : r.rows) all += row[0].AsString() + "\n";
  EXPECT_NE(all.find("continuous query over stream 's'"), std::string::npos);
}

TEST_F(DmlTest, IndexLookupJoinChosenAndCorrect) {
  MustExecute(&db_, "CREATE TABLE big (k bigint, payload varchar)");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'p" + std::to_string(i) + "')";
  }
  MustExecute(&db_, insert);
  MustExecute(&db_, "CREATE INDEX big_k ON big (k)");

  auto plan = MustExecute(
      &db_, "EXPLAIN SELECT t.v, big.payload FROM t, big WHERE t.k = big.k");
  std::string all;
  for (const Row& row : plan.rows) all += row[0].AsString() + "\n";
  EXPECT_NE(all.find("IndexLookupJoin(big.k"), std::string::npos);

  auto rows = MustExecute(
      &db_,
      "SELECT t.v, big.payload FROM t, big WHERE t.k = big.k ORDER BY t.k");
  ASSERT_EQ(rows.rows.size(), 4u);
  EXPECT_EQ(rows.rows[0][1].AsString(), "p1");
  EXPECT_EQ(rows.rows[3][1].AsString(), "p4");
}

TEST_F(DmlTest, IndexLookupJoinRespectsMvcc) {
  MustExecute(&db_, "CREATE TABLE dim (k bigint, label varchar)");
  MustExecute(&db_, "INSERT INTO dim VALUES (1, 'one'), (2, 'two')");
  MustExecute(&db_, "CREATE INDEX dim_k ON dim (k)");
  MustExecute(&db_, "DELETE FROM dim WHERE k = 2");
  // The index still holds the dead entry; the join must skip it.
  auto rows = MustExecute(
      &db_, "SELECT t.v, dim.label FROM t, dim WHERE t.k = dim.k");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][1].AsString(), "one");
}

TEST_F(DmlTest, IndexLookupJoinLeftJoinPads) {
  MustExecute(&db_, "CREATE TABLE dim (k bigint, label varchar)");
  MustExecute(&db_, "INSERT INTO dim VALUES (1, 'one')");
  MustExecute(&db_, "CREATE INDEX dim_k ON dim (k)");
  auto rows = MustExecute(
      &db_,
      "SELECT t.k, dim.label FROM t LEFT JOIN dim ON t.k = dim.k "
      "ORDER BY t.k");
  ASSERT_EQ(rows.rows.size(), 4u);
  EXPECT_EQ(rows.rows[0][1].AsString(), "one");
  EXPECT_TRUE(rows.rows[1][1].is_null());
}

TEST_F(DmlTest, StreamTableJoinUsesIndexLookup) {
  MustExecute(&db_,
              "CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE dim (k bigint, label varchar)");
  MustExecute(&db_, "INSERT INTO dim VALUES (7, 'seven')");
  MustExecute(&db_, "CREATE INDEX dim_k ON dim (k)");
  auto cq = db_.CreateContinuousQuery(
      "enrich",
      "SELECT s.k, dim.label FROM s <VISIBLE '1 minute'>, dim "
      "WHERE s.k = dim.k");
  ASSERT_TRUE(cq.ok());
  streamrel::CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(7),
                                   Value::Timestamp(kSec)}})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  ASSERT_EQ(cap.batches[0].rows.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][1].AsString(), "seven");
}

}  // namespace
}  // namespace streamrel::engine
