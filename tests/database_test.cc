// The SQL surface of the engine: DDL, INSERT, snapshot SELECT semantics.

#include "engine/database.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "test_util.h"

namespace streamrel::engine {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, b varchar)");
  MustExecute(&db_, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  auto r = MustExecute(&db_, "SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(RowToString(r.rows[0]), "(1, x)");
}

TEST_F(DatabaseTest, InsertColumnListAndNullDefaults) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, b varchar, c double)");
  MustExecute(&db_, "INSERT INTO t (b, a) VALUES ('x', 7)");
  auto r = MustExecute(&db_, "SELECT a, b, c FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 7);
  EXPECT_EQ(r.rows[0][1].AsString(), "x");
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(DatabaseTest, InsertExpressionValues) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, ts timestamp)");
  MustExecute(&db_,
              "INSERT INTO t VALUES (2 + 3, timestamp '2009-01-05 09:00:00')");
  auto r = MustExecute(&db_, "SELECT a FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
}

TEST_F(DatabaseTest, InsertArityMismatch) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, b bigint)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t (a) VALUES (1, 2)").ok());
}

TEST_F(DatabaseTest, IfNotExists) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  EXPECT_FALSE(db_.Execute("CREATE TABLE t (a bigint)").ok());
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS t (a bigint)").ok());
}

TEST_F(DatabaseTest, DuplicateColumnRejected) {
  EXPECT_FALSE(db_.Execute("CREATE TABLE t (a bigint, A varchar)").ok());
}

TEST_F(DatabaseTest, StreamRequiresCqtime) {
  // No timestamp column at all: rejected.
  EXPECT_FALSE(db_.Execute("CREATE STREAM s (v bigint)").ok());
  // Exactly one timestamp column: inferred as CQTIME.
  EXPECT_TRUE(db_.Execute("CREATE STREAM s (v bigint, ts timestamp)").ok());
  // Two timestamp columns, none marked: ambiguous.
  EXPECT_FALSE(
      db_.Execute("CREATE STREAM s2 (t1 timestamp, t2 timestamp)").ok());
  // Two, one marked: fine.
  EXPECT_TRUE(db_.Execute("CREATE STREAM s3 (t1 timestamp CQTIME USER, "
                          "t2 timestamp)")
                  .ok());
  // CQTIME on a non-timestamp column: rejected.
  EXPECT_FALSE(db_.Execute("CREATE STREAM s4 (v bigint CQTIME USER, "
                           "ts timestamp)")
                   .ok());
}

TEST_F(DatabaseTest, InsertIntoStreamIngests) {
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto cq = db_.CreateContinuousQuery(
      "c", "SELECT sum(v) FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok());
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  MustExecute(&db_,
              "INSERT INTO s VALUES (5, timestamp '1970-01-01 00:00:10'), "
              "(7, timestamp '1970-01-01 00:00:20')");
  ASSERT_TRUE(db_.AdvanceTime("s", 60'000'000).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 12);
}

TEST_F(DatabaseTest, SelectOverStreamRejectedInExecute) {
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto r = db_.Execute("SELECT v FROM s <VISIBLE '1 minute'>");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("CreateContinuousQuery"),
            std::string::npos);
}

TEST_F(DatabaseTest, ViewsExpandInQueries) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  MustExecute(&db_, "INSERT INTO t VALUES (1), (5), (9)");
  MustExecute(&db_, "CREATE VIEW big AS SELECT a FROM t WHERE a > 3");
  auto r = MustExecute(&db_, "SELECT count(*) FROM big");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
}

TEST_F(DatabaseTest, StreamingViewInstantiatedOnUse) {
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  MustExecute(&db_,
              "CREATE VIEW windowed AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>");
  // Using the view in a CQ works (Section 3.2: views instantiate on use).
  auto cq = db_.CreateContinuousQuery("via_view", "SELECT c FROM windowed");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  MustExecute(&db_, "INSERT INTO s VALUES (1, timestamp '1970-01-01 00:00:10')");
  ASSERT_TRUE(db_.AdvanceTime("s", 60'000'000).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 1);
}

TEST_F(DatabaseTest, DropStatements) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  MustExecute(&db_, "DROP TABLE t");
  EXPECT_FALSE(db_.Execute("SELECT a FROM t").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
}

TEST_F(DatabaseTest, DropGuardsProtectRunningPipelines) {
  MustExecute(&db_,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE STREAM agg AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>;"
              "CREATE TABLE sink (c bigint);"
              "CREATE CHANNEL ch FROM agg INTO sink APPEND");
  // The channel writes into sink: cannot drop it.
  auto drop_table = db_.Execute("DROP TABLE sink");
  ASSERT_FALSE(drop_table.ok());
  EXPECT_NE(drop_table.status().message().find("channel 'ch'"),
            std::string::npos);
  // The derived stream feeds the channel: cannot drop it either.
  EXPECT_FALSE(db_.Execute("DROP STREAM agg").ok());
  // The raw stream feeds the derived stream's CQ.
  EXPECT_FALSE(db_.Execute("DROP STREAM s").ok());
  // Tear down in dependency order: channel, derived stream, raw, table.
  MustExecute(&db_, "DROP CHANNEL ch");
  MustExecute(&db_, "DROP STREAM agg");
  MustExecute(&db_, "DROP STREAM s");
  MustExecute(&db_, "DROP TABLE sink");
}

TEST_F(DatabaseTest, DropGuardsProtectCqJoinTables) {
  MustExecute(&db_,
              "CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE dim (k bigint, label varchar)");
  ASSERT_TRUE(db_.CreateContinuousQuery(
                    "enrich",
                    "SELECT s.k, dim.label FROM s <VISIBLE '1 minute'>, dim "
                    "WHERE s.k = dim.k")
                  .ok());
  auto drop = db_.Execute("DROP TABLE dim");
  ASSERT_FALSE(drop.ok());
  EXPECT_NE(drop.status().message().find("continuous query 'enrich'"),
            std::string::npos);
  ASSERT_TRUE(db_.DropContinuousQuery("enrich").ok());
  MustExecute(&db_, "DROP TABLE dim");
}

TEST_F(DatabaseTest, DroppedDerivedStreamStopsProducing) {
  MustExecute(&db_,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE STREAM agg AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>");
  MustExecute(&db_, "DROP STREAM agg");
  // The defining CQ is gone; ingest proceeds without it.
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(1),
                                   Value::Timestamp(1'000'000)}})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("s", 120'000'000).ok());
  EXPECT_TRUE(db_.runtime()->CqNames().empty());
}

TEST_F(DatabaseTest, MultiStatementExecuteReturnsLast) {
  auto r = MustExecute(&db_,
                       "CREATE TABLE t (a bigint); "
                       "INSERT INTO t VALUES (1); "
                       "SELECT a FROM t");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(DatabaseTest, JoinsThroughSql) {
  MustExecute(&db_, "CREATE TABLE u (id bigint, name varchar)");
  MustExecute(&db_, "CREATE TABLE o (uid bigint, total double)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 'ann'), (2, 'bob')");
  MustExecute(&db_, "INSERT INTO o VALUES (1, 10.5), (1, 2.5), (2, 1.0)");
  auto r = MustExecute(&db_,
                       "SELECT name, sum(total) FROM u, o WHERE id = uid "
                       "GROUP BY name ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 13.0);
}

TEST_F(DatabaseTest, LeftJoinThroughSql) {
  MustExecute(&db_, "CREATE TABLE u (id bigint, name varchar)");
  MustExecute(&db_, "CREATE TABLE o (uid bigint, total double)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 'ann'), (2, 'bob')");
  MustExecute(&db_, "INSERT INTO o VALUES (1, 10.0)");
  auto r = MustExecute(&db_,
                       "SELECT name, total FROM u LEFT JOIN o ON id = uid "
                       "ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[1][1].is_null());
}

TEST_F(DatabaseTest, DistinctAndUnionAll) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  MustExecute(&db_, "INSERT INTO t VALUES (1), (1), (2)");
  EXPECT_EQ(MustExecute(&db_, "SELECT DISTINCT a FROM t").rows.size(), 2u);
  EXPECT_EQ(
      MustExecute(&db_, "SELECT a FROM t UNION ALL SELECT a FROM t")
          .rows.size(),
      6u);
}

TEST_F(DatabaseTest, OrderByAndLimitApplyToWholeUnion) {
  MustExecute(&db_, "CREATE TABLE lo (a bigint)");
  MustExecute(&db_, "CREATE TABLE hi (a bigint)");
  MustExecute(&db_, "INSERT INTO lo VALUES (1), (3), (5)");
  MustExecute(&db_, "INSERT INTO hi VALUES (2), (4), (6)");
  auto r = MustExecute(&db_,
                       "SELECT a FROM lo UNION ALL SELECT a FROM hi "
                       "ORDER BY a DESC LIMIT 4");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 6);  // from hi: the sort is global
  EXPECT_EQ(r.rows[1][0].AsInt64(), 5);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[3][0].AsInt64(), 3);
  // Ordinal form works too.
  auto ordinal = MustExecute(
      &db_, "SELECT a FROM lo UNION ALL SELECT a FROM hi ORDER BY 1 LIMIT 2");
  EXPECT_EQ(ordinal.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(ordinal.rows[1][0].AsInt64(), 2);
  // Arbitrary expressions over a union are rejected with a clear error.
  auto bad = db_.Execute(
      "SELECT a FROM lo UNION ALL SELECT a FROM hi ORDER BY a + 1");
  EXPECT_FALSE(bad.ok());
}

TEST_F(DatabaseTest, UnionInsideSubqueryAndView) {
  MustExecute(&db_, "CREATE TABLE lo (a bigint)");
  MustExecute(&db_, "CREATE TABLE hi (a bigint)");
  MustExecute(&db_, "INSERT INTO lo VALUES (1), (2)");
  MustExecute(&db_, "INSERT INTO hi VALUES (10)");
  auto sub = MustExecute(
      &db_,
      "SELECT count(*) FROM "
      "(SELECT a FROM lo UNION ALL SELECT a FROM hi) u");
  EXPECT_EQ(sub.rows[0][0].AsInt64(), 3);
  MustExecute(&db_,
              "CREATE VIEW both AS SELECT a FROM lo UNION ALL "
              "SELECT a FROM hi");
  auto through_view = MustExecute(&db_, "SELECT sum(a) FROM both");
  EXPECT_EQ(through_view.rows[0][0].AsInt64(), 13);
}

TEST_F(DatabaseTest, SubqueryInFrom) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  MustExecute(&db_, "INSERT INTO t VALUES (1), (2), (3), (4)");
  auto r = MustExecute(&db_,
                       "SELECT count(*) FROM (SELECT a FROM t WHERE a > 1) q "
                       "WHERE q.a < 4");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
}

TEST_F(DatabaseTest, IndexSpeedsUpAndStaysCorrect) {
  MustExecute(&db_, "CREATE TABLE t (k bigint, v varchar)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i % 100) + ", 'v" + std::to_string(i) +
              "')";
  }
  MustExecute(&db_, insert);
  auto before = MustExecute(&db_, "SELECT count(*) FROM t WHERE k = 42");
  MustExecute(&db_, "CREATE INDEX t_k ON t (k)");
  auto after = MustExecute(&db_, "SELECT count(*) FROM t WHERE k = 42");
  EXPECT_EQ(before.rows[0][0].AsInt64(), after.rows[0][0].AsInt64());
  EXPECT_EQ(after.rows[0][0].AsInt64(), 5);
}

TEST_F(DatabaseTest, IndexBackfillCoversExistingRows) {
  MustExecute(&db_, "CREATE TABLE t (k bigint)");
  MustExecute(&db_, "INSERT INTO t VALUES (1), (2)");
  MustExecute(&db_, "CREATE INDEX t_k ON t (k)");
  MustExecute(&db_, "INSERT INTO t VALUES (3)");
  auto r = MustExecute(&db_, "SELECT count(*) FROM t WHERE k >= 1");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
}

TEST_F(DatabaseTest, ErrorsCarryUsefulMessages) {
  auto missing = db_.Execute("SELECT x FROM nope");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto parse = db_.Execute("SELEKT 1");
  EXPECT_EQ(parse.status().code(), StatusCode::kParseError);
  auto empty = db_.Execute("   ");
  EXPECT_FALSE(empty.ok());
}

TEST_F(DatabaseTest, QueryResultMessages) {
  EXPECT_EQ(MustExecute(&db_, "CREATE TABLE t (a bigint)").message,
            "CREATE TABLE");
  EXPECT_EQ(MustExecute(&db_, "INSERT INTO t VALUES (1), (2)").message,
            "INSERT 2");
  EXPECT_EQ(MustExecute(&db_, "SELECT a FROM t").message, "SELECT 2");
}

TEST_F(DatabaseTest, Example1DdlFromPaperWorksVerbatim) {
  MustExecute(&db_,
              "CREATE STREAM url_stream ("
              "  url varchar(1024),"
              "  atime timestamp CQTIME USER,"
              "  client_ip varchar(50)"
              ")");
  auto* info = db_.catalog()->GetStream("url_stream");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->cqtime_column, 1u);
}

TEST_F(DatabaseTest, BigintOverflowFailsTheStatementInsteadOfTheServer) {
  MustExecute(&db_, "CREATE TABLE t (v bigint, d bigint)");
  MustExecute(&db_,
              "INSERT INTO t VALUES (-9223372036854775807 - 1, -1), "
              "(9223372036854775807, 1)");
  // INT64_MIN / -1 used to end the process with SIGFPE.
  for (const char* sql :
       {"SELECT v / d FROM t", "SELECT (-9223372036854775807 - 1) / -1",
        "SELECT 9223372036854775807 * 2", "SELECT -v FROM t WHERE d < 0",
        "SELECT 99999999999999999999"}) {
    EXPECT_FALSE(db_.Execute(sql).ok()) << sql;
  }
  auto mod = MustExecute(&db_, "SELECT v % d FROM t ORDER BY d");
  ASSERT_EQ(mod.rows.size(), 2u);
  EXPECT_EQ(mod.rows[0][0].AsInt64(), 0);
  MustExecute(&db_, "INSERT INTO t VALUES (1, 2)");
  auto sum = db_.Execute("SELECT sum(v) FROM t WHERE d > 0");
  ASSERT_FALSE(sum.ok());
  EXPECT_NE(sum.status().message().find("bigint out of range"),
            std::string::npos);
}

TEST_F(DatabaseTest, SharedSumOverflowFailsTheIngest) {
  MustExecute(&db_, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  MustExecute(&db_,
              "CREATE STREAM totals AS SELECT sum(v) AS n FROM s "
              "<VISIBLE '1 minute'>");
  const int64_t t0 = 1'000'000'000'000;
  Status st =
      db_.Ingest("s", {Row{Value::Int64(INT64_MAX), Value::Timestamp(t0)},
                       Row{Value::Int64(1), Value::Timestamp(t0 + 1)}});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bigint out of range"), std::string::npos);
}

}  // namespace
}  // namespace streamrel::engine
