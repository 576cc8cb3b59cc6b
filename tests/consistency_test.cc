// Window consistency (paper Section 4): a continuous query that joins a
// stream with tables sees table updates only on window boundaries, via
// commit-time MVCC snapshots taken as of each window close.

#include <gtest/gtest.h>

#include "common/time.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

class WindowConsistencyTest : public ::testing::Test {
 protected:
  WindowConsistencyTest() {
    MustExecute(&db_,
                "CREATE STREAM clicks (page varchar, ts timestamp CQTIME "
                "USER)");
    MustExecute(&db_, "CREATE TABLE labels (page varchar, label varchar)");
  }

  void Click(const std::string& page, int64_t ts) {
    ASSERT_TRUE(
        db_.Ingest("clicks", {Row{Value::String(page), Value::Timestamp(ts)}})
            .ok());
  }

  engine::Database db_;
  CqCapture capture_;
};

TEST_F(WindowConsistencyTest, StreamTableJoinSeesCommittedDimension) {
  MustExecute(&db_, "INSERT INTO labels VALUES ('/a', 'home')");
  auto cq = db_.CreateContinuousQuery(
      "enrich",
      "SELECT c.page, l.label FROM clicks <VISIBLE '1 minute'> c, labels l "
      "WHERE c.page = l.page");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  (*cq)->AddCallback(capture_.Callback());
  Click("/a", 10 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("clicks", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  ASSERT_EQ(capture_.batches[0].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[0].rows[0][1].AsString(), "home");
}

TEST_F(WindowConsistencyTest, TableUpdateVisibleOnlyAtNextBoundary) {
  auto cq = db_.CreateContinuousQuery(
      "enrich",
      "SELECT c.page, l.label FROM clicks <VISIBLE '1 minute'> c, labels l "
      "WHERE c.page = l.page");
  ASSERT_TRUE(cq.ok());
  (*cq)->AddCallback(capture_.Callback());

  // Window 1 contains a click, but the label row commits at logical time
  // 90s — after the window-1 boundary (60s). The logical clock is driven by
  // the stream watermark, so advance it first.
  Click("/a", 10 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("clicks", 90 * kSec).ok());
  MustExecute(&db_, "INSERT INTO labels VALUES ('/a', 'late')");

  Click("/a", 100 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("clicks", 2 * kMin).ok());

  ASSERT_EQ(capture_.batches.size(), 2u);
  // Window closing at 60s: snapshot as of 60s — the label (commit time 90s)
  // is NOT visible, so the join produced nothing.
  EXPECT_TRUE(capture_.batches[0].rows.empty());
  // Window closing at 120s: snapshot as of 120s — the label is visible.
  ASSERT_EQ(capture_.batches[1].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[1].rows[0][1].AsString(), "late");
}

TEST_F(WindowConsistencyTest, ActiveTableJoinSeesOnlyClosedWindows) {
  // Example 5's structure: compare the current window against the archive;
  // the archive must contain exactly the windows that closed strictly
  // before this one.
  MustExecute(&db_,
              "CREATE STREAM per_min AS SELECT count(*) AS c, cq_close(*) "
              "AS w FROM clicks <VISIBLE '1 minute'>");
  MustExecute(&db_, "CREATE TABLE hist (c bigint, w timestamp)");
  MustExecute(&db_, "CREATE CHANNEL ch FROM per_min INTO hist APPEND");

  auto cq = db_.CreateContinuousQuery(
      "compare",
      "SELECT n.c, h.c FROM "
      "(SELECT c, w FROM per_min <SLICES 1 WINDOWS>) n, hist h "
      "WHERE n.w - interval '1 minute' = h.w");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  (*cq)->AddCallback(capture_.Callback());

  // Three minutes with 1, 2, 3 clicks.
  Click("/a", 10 * kSec);
  Click("/a", 70 * kSec);
  Click("/a", 80 * kSec);
  Click("/a", 130 * kSec);
  Click("/a", 140 * kSec);
  Click("/a", 150 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("clicks", 3 * kMin).ok());

  // Minute 1 has no predecessor; minutes 2 and 3 compare against history.
  ASSERT_EQ(capture_.batches.size(), 3u);
  EXPECT_TRUE(capture_.batches[0].rows.empty());
  ASSERT_EQ(capture_.batches[1].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[1].rows[0][0].AsInt64(), 2);  // current
  EXPECT_EQ(capture_.batches[1].rows[0][1].AsInt64(), 1);  // previous
  ASSERT_EQ(capture_.batches[2].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[2].rows[0][0].AsInt64(), 3);
  EXPECT_EQ(capture_.batches[2].rows[0][1].AsInt64(), 2);
}

TEST_F(WindowConsistencyTest, ChannelCommitTimeIsWindowClose) {
  MustExecute(&db_,
              "CREATE STREAM per_min AS SELECT count(*) AS c, cq_close(*) "
              "AS w FROM clicks <VISIBLE '1 minute'>");
  MustExecute(&db_, "CREATE TABLE hist (c bigint, w timestamp)");
  MustExecute(&db_, "CREATE CHANNEL ch FROM per_min INTO hist APPEND");
  Click("/a", 10 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("clicks", kMin).ok());

  // An as-of snapshot one microsecond before the close must not see the
  // row; at the close it must.
  auto* table = db_.catalog()->GetTable("hist");
  auto count_asof = [&](int64_t t) {
    int n = 0;
    EXPECT_TRUE(table->heap
                    ->Scan(*db_.txns(), db_.txns()->SnapshotAsOf(t),
                           storage::kInvalidTxn,
                           [&](storage::RowId,
                               const storage::HeapTable::RowMeta&, Row&&) {
                             ++n;
                             return true;
                           })
                    .ok());
    return n;
  };
  EXPECT_EQ(count_asof(kMin - 1), 0);
  EXPECT_EQ(count_asof(kMin), 1);
}

TEST_F(WindowConsistencyTest, SnapshotQueriesUseCurrentSnapshot) {
  MustExecute(&db_, "INSERT INTO labels VALUES ('/a', 'v1')");
  auto r1 = MustExecute(&db_, "SELECT count(*) FROM labels");
  EXPECT_EQ(r1.rows[0][0].AsInt64(), 1);
  MustExecute(&db_, "INSERT INTO labels VALUES ('/b', 'v2')");
  auto r2 = MustExecute(&db_, "SELECT count(*) FROM labels");
  EXPECT_EQ(r2.rows[0][0].AsInt64(), 2);
}

}  // namespace
}  // namespace streamrel
