// Crash/restart recovery: WAL replay rebuilds tables; the paper's
// rebuild-from-active-tables strategy resumes CQs from channel watermarks
// with no re-emission and no loss; checkpoint recovery restores window
// operator state directly.

#include "stream/recovery.h"

#include <gtest/gtest.h>

#include "common/time.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

const char* kDdl =
    "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
    "CREATE STREAM per_min AS SELECT url, count(*) AS c, cq_close(*) AS w "
    "FROM s <VISIBLE '1 minute'> GROUP BY url;"
    "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
    "CREATE CHANNEL ch FROM per_min INTO archive APPEND";

Row Click(const std::string& url, int64_t ts) {
  return Row{Value::String(url), Value::Timestamp(ts)};
}

/// "Restarts" the database: a fresh engine over the same disk + WAL, with
/// the application re-running its DDL (our catalog is not self-persisting;
/// DDL re-execution is the documented bootstrap).
std::unique_ptr<engine::Database> Restart(engine::Database* old) {
  auto fresh = std::make_unique<engine::Database>(old->disk(), old->wal());
  MustExecute(fresh.get(), kDdl);
  return fresh;
}

TEST(RecoveryTest, WalReplayRebuildsTables) {
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint, b varchar)");
  MustExecute(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  MustExecute(&db, "INSERT INTO t VALUES (3, 'z')");

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, "CREATE TABLE t (a bigint, b varchar)");
  auto replay = fresh.RecoverFromWal();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->rows_inserted, 3);

  auto rows = MustExecute(&fresh, "SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows[2][1].AsString(), "z");
}

TEST(RecoveryTest, UncommittedTransactionsRolledBack) {
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint)");
  MustExecute(&db, "INSERT INTO t VALUES (1)");
  // Simulate a crash mid-transaction: write Begin+Insert but no Commit.
  storage::WalRecord begin;
  begin.type = storage::WalRecordType::kBegin;
  begin.txn_id = 9999;
  ASSERT_TRUE(db.wal()->Append(begin).ok());
  storage::WalRecord insert;
  insert.type = storage::WalRecordType::kInsert;
  insert.txn_id = 9999;
  insert.object_name = "t";
  insert.rows = {{Value::Int64(666)}};
  ASSERT_TRUE(db.wal()->Append(insert).ok());

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, "CREATE TABLE t (a bigint)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto rows = MustExecute(&fresh, "SELECT a FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt64(), 1);
}

TEST(RecoveryTest, DeletesReplayed) {
  engine::Database db;
  MustExecute(&db, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
                   "CREATE STREAM latest AS SELECT count(*) AS c FROM s "
                   "<VISIBLE '1 minute'>;"
                   "CREATE TABLE cur (c bigint);"
                   "CREATE CHANNEL ch FROM latest INTO cur REPLACE");
  ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(1),
                                  Value::Timestamp(10 * kSec)}})
                  .ok());
  ASSERT_TRUE(db.AdvanceTime("s", 3 * kMin).ok());
  // REPLACE mode: only the last (empty) window's single count row remains.
  auto before = MustExecute(&db, "SELECT c FROM cur");
  ASSERT_EQ(before.rows.size(), 1u);
  EXPECT_EQ(before.rows[0][0].AsInt64(), 0);

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
                      "CREATE STREAM latest AS SELECT count(*) AS c FROM s "
                      "<VISIBLE '1 minute'>;"
                      "CREATE TABLE cur (c bigint);"
                      "CREATE CHANNEL ch FROM latest INTO cur REPLACE");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto after = MustExecute(&fresh, "SELECT c FROM cur");
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0].AsInt64(), 0);
}

// One batch record per statement or close: replaying UPDATE (delete the
// old versions, then insert the new ones), DELETE, an explicit
// transaction, a rolled-back one and a REPLACE channel rebuilds exactly
// the live tables, through their indexes too.
TEST(RecoveryTest, UpdateDeleteAndReplaceReplayToTheLiveTables) {
  const std::string ddl =
      "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
      "CREATE STREAM latest AS SELECT count(*) AS n, sum(v) AS total "
      "FROM s <VISIBLE '1 minute'>;"
      "CREATE TABLE cur (n bigint, total bigint);"
      "CREATE CHANNEL ch FROM latest INTO cur REPLACE;"
      "CREATE TABLE t (a bigint, b varchar);"
      "CREATE INDEX t_a ON t (a)";
  engine::Database db;
  MustExecute(&db, ddl);
  MustExecute(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), "
                   "(4, 'w')");
  MustExecute(&db, "UPDATE t SET a = a * 10, b = 'u' WHERE a >= 3");
  MustExecute(&db, "DELETE FROM t WHERE a = 2");
  MustExecute(&db, "BEGIN; INSERT INTO t VALUES (5, 'v'); "
                   "UPDATE t SET b = 'in-txn' WHERE a = 5; "
                   "DELETE FROM t WHERE a = 1; COMMIT");
  MustExecute(&db, "BEGIN; DELETE FROM t WHERE a = 30; ROLLBACK");
  for (int m = 0; m < 3; ++m) {
    for (int i = 0; i <= m; ++i) {
      ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(m * 10 + i),
                                      Value::Timestamp(m * kMin + (i + 1) *
                                                                  kSec)}})
                      .ok());
    }
  }
  ASSERT_TRUE(db.AdvanceTime("s", 3 * kMin).ok());
  MustExecute(&db, "UPDATE t SET a = a + 1 WHERE a = 40");

  const std::vector<std::string> queries = {
      "SELECT a, b FROM t ORDER BY a", "SELECT b FROM t WHERE a = 30",
      "SELECT b FROM t WHERE a = 41", "SELECT b FROM t WHERE a = 5",
      "SELECT a FROM t WHERE a = 1", "SELECT n, total FROM cur"};
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    for (auto& row : RowStrings(MustExecute(&db, q))) {
      expected.push_back(q + " -> " + row);
    }
  }
  EXPECT_EQ(expected.size(), 7u);

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, ddl);
  auto replay = fresh.RecoverFromWal();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<std::string> actual;
  for (const std::string& q : queries) {
    for (auto& row : RowStrings(MustExecute(&fresh, q))) {
      actual.push_back(q + " -> " + row);
    }
  }
  EXPECT_EQ(actual, expected);
  // Rows, not records: the statements' rows in order (the rolled-back
  // DELETE's too), then the REPLACE closes'.
  EXPECT_EQ(replay->rows_inserted, 4 + 2 + 1 + 1 + 1 + 3);
  EXPECT_EQ(replay->rows_deleted, 2 + 1 + 1 + 1 + 1 + 1 + 2);
}

TEST(RecoveryTest, ChannelWatermarkRecovered) {
  engine::Database db;
  MustExecute(&db, kDdl);
  ASSERT_TRUE(db.Ingest("s", {Click("/a", 10 * kSec)}).ok());
  ASSERT_TRUE(db.AdvanceTime("s", 2 * kMin).ok());
  EXPECT_EQ(db.runtime()->GetChannel("ch")->watermark(), 2 * kMin);

  auto fresh = Restart(&db);
  auto replay = fresh->RecoverFromWal();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->channel_watermarks.count("ch"), 1u);
  EXPECT_EQ(replay->channel_watermarks.at("ch"), 2 * kMin);
}

TEST(RecoveryTest, ActiveTableResumeNoDuplicatesNoLoss) {
  // Run to minute 2, "crash", restart, continue to minute 4: the archive
  // must contain each per-minute window exactly once.
  engine::Database db;
  MustExecute(&db, kDdl);
  ASSERT_TRUE(db.Ingest("s", {Click("/a", 10 * kSec),
                              Click("/a", 70 * kSec)})
                  .ok());
  ASSERT_TRUE(db.AdvanceTime("s", 2 * kMin).ok());

  auto fresh = Restart(&db);
  auto replay = fresh->RecoverFromWal();
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(ResumeFromActiveTables(fresh->runtime(), *replay).ok());

  // Continue the stream: data for minutes 3 and 4.
  ASSERT_TRUE(fresh->Ingest("s", {Click("/a", 130 * kSec),
                                  Click("/a", 190 * kSec)})
                  .ok());
  ASSERT_TRUE(fresh->AdvanceTime("s", 4 * kMin).ok());

  auto rows = MustExecute(fresh.get(), "SELECT w, c FROM archive ORDER BY w");
  ASSERT_EQ(rows.rows.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rows.rows[i][0].AsTimestampMicros(),
              static_cast<int64_t>(i + 1) * kMin)
        << "window " << i;
    EXPECT_EQ(rows.rows[i][1].AsInt64(), 1);
  }
}

TEST(RecoveryTest, RecoveredArchiveMatchesUninterruptedRun) {
  // Golden run without a crash.
  engine::Database golden;
  MustExecute(&golden, kDdl);
  for (int m = 0; m < 4; ++m) {
    ASSERT_TRUE(
        golden.Ingest("s", {Click("/a", m * kMin + 10 * kSec)}).ok());
  }
  ASSERT_TRUE(golden.AdvanceTime("s", 4 * kMin).ok());
  auto expected =
      RowStrings(MustExecute(&golden, "SELECT url, c, w FROM archive "
                                      "ORDER BY w"));

  // Crashing run: restart after minute 2.
  engine::Database crashy;
  MustExecute(&crashy, kDdl);
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(
        crashy.Ingest("s", {Click("/a", m * kMin + 10 * kSec)}).ok());
  }
  ASSERT_TRUE(crashy.AdvanceTime("s", 2 * kMin).ok());
  auto fresh = Restart(&crashy);
  auto replay = fresh->RecoverFromWal();
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(ResumeFromActiveTables(fresh->runtime(), *replay).ok());
  for (int m = 2; m < 4; ++m) {
    ASSERT_TRUE(
        fresh->Ingest("s", {Click("/a", m * kMin + 10 * kSec)}).ok());
  }
  ASSERT_TRUE(fresh->AdvanceTime("s", 4 * kMin).ok());
  auto actual = RowStrings(
      MustExecute(fresh.get(), "SELECT url, c, w FROM archive ORDER BY w"));
  EXPECT_EQ(actual, expected);
}

TEST(RecoveryTest, CheckpointRoundTrip) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto cq = db.CreateContinuousQuery(
      "win", "SELECT v FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'>",
      /*allow_shared=*/false);
  ASSERT_TRUE(cq.ok());
  ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(7),
                                  Value::Timestamp(30 * kSec)}})
                  .ok());

  CheckpointManager ckpt(db.runtime(), db.wal().get());
  ASSERT_TRUE(ckpt.WriteCheckpoint().ok());
  EXPECT_EQ(ckpt.checkpoints_written(), 1);
  EXPECT_GT(ckpt.bytes_written(), 0);

  // Restart, recreate the CQ, restore its buffered window state.
  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto cq2 = fresh.CreateContinuousQuery(
      "win", "SELECT v FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'>",
      /*allow_shared=*/false);
  ASSERT_TRUE(cq2.ok());
  CqCapture cap;
  (*cq2)->AddCallback(cap.Callback());
  auto replay = fresh.RecoverFromWal();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->latest_checkpoints.size(), 1u);
  CheckpointManager restore(fresh.runtime(), fresh.wal().get());
  ASSERT_TRUE(restore.RestoreFromCheckpoints(*replay).ok());

  // The pre-crash row at 30s is still visible in the windows that cover it.
  ASSERT_TRUE(fresh.AdvanceTime("s", 2 * kMin).ok());
  ASSERT_EQ(cap.batches.size(), 2u);
  EXPECT_EQ(cap.batches[0].rows.size(), 1u);  // window [-1min, 1min)
  EXPECT_EQ(cap.batches[1].rows.size(), 1u);  // window [0, 2min)
}

TEST(RecoveryTest, VacuumedReplaceChannelRecoversExactly) {
  // REPLACE churn + mid-flight VACUUM + more churn, then crash: replay must
  // reproduce the exact table contents (the kVacuum barrier keeps RowIds
  // aligned between the live run and the replayed run).
  const char* ddl =
      "CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
      "CREATE STREAM agg AS SELECT k, count(*) AS c FROM s "
      "<VISIBLE '1 minute'> GROUP BY k;"
      "CREATE TABLE board (k bigint, c bigint);"
      "CREATE CHANNEL ch FROM agg INTO board REPLACE";
  engine::Database db;
  MustExecute(&db, ddl);
  for (int m = 0; m < 9; ++m) {
    ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(m % 2),
                                    Value::Timestamp(m * kMin + kSec)}})
                    .ok());
    ASSERT_TRUE(db.AdvanceTime("s", (m + 1) * kMin).ok());
    if (m == 4) MustExecute(&db, "VACUUM board");
  }
  auto expected = RowStrings(MustExecute(&db, "SELECT k, c FROM board"));

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, ddl);
  auto replay = fresh.RecoverFromWal();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(ResumeFromActiveTables(fresh.runtime(), *replay).ok());
  auto actual = RowStrings(MustExecute(&fresh, "SELECT k, c FROM board"));
  EXPECT_EQ(actual, expected);
}

TEST(RecoveryTest, ReplayIntoMissingTableFails) {
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint)");
  MustExecute(&db, "INSERT INTO t VALUES (1)");
  engine::Database fresh(db.disk(), db.wal());
  // Table not recreated: replay reports the problem.
  auto replay = fresh.RecoverFromWal();
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace streamrel::stream
