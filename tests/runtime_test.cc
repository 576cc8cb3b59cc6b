#include "stream/runtime.h"

#include <gtest/gtest.h>

#include "common/time.h"
#include "exec/column_batch.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    MustExecute(&db_,
                "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  }

  Row R(int64_t v, int64_t ts) {
    return Row{Value::Int64(v), Value::Timestamp(ts)};
  }

  engine::Database db_;
};

// Bad rows no longer fail the whole batch: they are diverted to the
// stream's dead-letter quarantine and the rest of the batch proceeds.
TEST_F(RuntimeTest, IngestQuarantinesArityMismatch) {
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(1)}}).ok());
  auto counters = db_.runtime()->overload_counters("s");
  EXPECT_EQ(counters.rows_quarantined, 1);
  EXPECT_EQ(counters.rows_admitted, 0);
  // The dead-letter stream now exists; a subscriber sees the next capture.
  CqCapture cap;
  ASSERT_TRUE(db_.runtime()
                  ->SubscribeStream(StreamRuntime::QuarantineName("s"),
                                    cap.Callback())
                  .ok());
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(2)}}).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  ASSERT_EQ(cap.batches[0].rows.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][1].AsString(), "arity");
}

TEST_F(RuntimeTest, IngestQuarantinesOutOfOrderRows) {
  ASSERT_TRUE(db_.Ingest("s", {R(1, 100)}).ok());
  // A row behind the watermark is quarantined as "late", not an error, and
  // does not disturb the watermark.
  ASSERT_TRUE(db_.Ingest("s", {R(2, 50)}).ok());
  EXPECT_EQ(db_.runtime()->overload_counters("s").rows_quarantined, 1);
  EXPECT_EQ(db_.runtime()->watermark("s"), 100);
  // Equal timestamps are accepted.
  EXPECT_TRUE(db_.Ingest("s", {R(3, 100)}).ok());
  EXPECT_EQ(db_.runtime()->overload_counters("s").rows_admitted, 2);
}

TEST_F(RuntimeTest, IngestQuarantinesNullCqtime) {
  ASSERT_TRUE(db_.Ingest("s", {Row{Value::Int64(1), Value::Null()}}).ok());
  auto counters = db_.runtime()->overload_counters("s");
  EXPECT_EQ(counters.rows_quarantined, 1);
  EXPECT_EQ(counters.rows_admitted, 0);
}

TEST_F(RuntimeTest, QuarantineMixedBatchKeepsGoodRows) {
  CqCapture cap;
  ASSERT_TRUE(db_.runtime()->SubscribeStream("s", cap.Callback()).ok());
  ASSERT_TRUE(db_.Ingest("s", {R(1, 100), Row{Value::Int64(9)},
                               R(2, 200)})
                  .ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  ASSERT_EQ(cap.batches[0].rows.size(), 2u);
  auto counters = db_.runtime()->overload_counters("s");
  EXPECT_EQ(counters.rows_admitted, 2);
  EXPECT_EQ(counters.rows_quarantined, 1);
}

TEST_F(RuntimeTest, IngestIntoDerivedStreamRejected) {
  MustExecute(&db_, "CREATE STREAM d AS SELECT count(*) FROM s "
                    "<VISIBLE '1 minute'>");
  Status s = db_.Ingest("d", {Row{Value::Int64(1)}});
  EXPECT_FALSE(s.ok());
}

TEST_F(RuntimeTest, UnknownStreamRejected) {
  EXPECT_FALSE(db_.Ingest("ghost", {R(1, 1)}).ok());
}

TEST_F(RuntimeTest, SystemCqtimeStamping) {
  MustExecute(&db_,
              "CREATE STREAM sys (ts timestamp CQTIME SYSTEM, v bigint)");
  // Without an ingest time: error.
  EXPECT_FALSE(
      db_.Ingest("sys", {Row{Value::Null(), Value::Int64(1)}}).ok());
  // With one: the engine stamps the CQTIME column.
  CqCapture cap;
  ASSERT_TRUE(db_.runtime()->SubscribeStream("sys", cap.Callback()).ok());
  ASSERT_TRUE(db_.Ingest("sys", {Row{Value::Null(), Value::Int64(1)}},
                         /*system_time=*/123 * kSec)
                  .ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsTimestampMicros(), 123 * kSec);
}

TEST_F(RuntimeTest, WatermarkTracksIngest) {
  EXPECT_EQ(db_.runtime()->watermark("s"), INT64_MIN);
  ASSERT_TRUE(db_.Ingest("s", {R(1, 42 * kSec)}).ok());
  EXPECT_EQ(db_.runtime()->watermark("s"), 42 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  EXPECT_EQ(db_.runtime()->watermark("s"), kMin);
}

TEST_F(RuntimeTest, HeartbeatClosesWindowsWithoutData) {
  auto cq = db_.CreateContinuousQuery(
      "c", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok());
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", 3 * kMin).ok());
  ASSERT_EQ(cap.batches.size(), 3u);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 1);
  EXPECT_EQ(cap.batches[1].rows[0][0].AsInt64(), 0);
}

TEST_F(RuntimeTest, DropCqStopsDelivery) {
  auto cq = db_.CreateContinuousQuery(
      "c", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok());
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  ASSERT_TRUE(db_.DropContinuousQuery("c").ok());
  ASSERT_TRUE(db_.AdvanceTime("s", 2 * kMin).ok());
  EXPECT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(db_.runtime()->GetCq("c"), nullptr);
}

TEST_F(RuntimeTest, DuplicateCqNameRejected) {
  ASSERT_TRUE(db_.CreateContinuousQuery(
                    "c", "SELECT count(*) FROM s <VISIBLE '1 minute'>")
                  .ok());
  auto dup = db_.CreateContinuousQuery(
      "C", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(RuntimeTest, DerivedStreamCascade) {
  // s -> per-minute counts -> per-2-minute sums over the derived stream.
  MustExecute(&db_,
              "CREATE STREAM per_min AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>");
  auto cq = db_.CreateContinuousQuery(
      "rollup",
      "SELECT sum(c) FROM per_min <VISIBLE '2 minutes'>");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_.Ingest("s", {R(i, i * kMin + kSec)}).ok());
  }
  ASSERT_TRUE(db_.AdvanceTime("s", 4 * kMin).ok());
  ASSERT_GE(cap.batches.size(), 1u);
  // Each 2-minute window over the derived stream sums two 1-minute counts.
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 2);
}

TEST_F(RuntimeTest, SlicesWindowOverDerivedStream) {
  MustExecute(&db_,
              "CREATE STREAM per_min AS SELECT count(*) AS c, cq_close(*) "
              "AS w FROM s <VISIBLE '1 minute'>");
  auto cq = db_.CreateContinuousQuery(
      "pass", "SELECT c, w FROM per_min <SLICES 1 WINDOWS>");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CqCapture cap;
  (*cq)->AddCallback(cap.Callback());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec), R(2, 2 * kSec)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  ASSERT_EQ(cap.batches[0].rows.size(), 1u);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 2);
}

TEST_F(RuntimeTest, ClientSubscriptionOnDerivedStream) {
  MustExecute(&db_,
              "CREATE STREAM per_min AS SELECT count(*) AS c FROM s "
              "<VISIBLE '1 minute'>");
  CqCapture cap;
  ASSERT_TRUE(db_.runtime()->SubscribeStream("per_min", cap.Callback()).ok());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].close, kMin);
}

TEST_F(RuntimeTest, MultipleIndependentStreams) {
  MustExecute(&db_,
              "CREATE STREAM s2 (v bigint, ts timestamp CQTIME USER)");
  auto c1 = db_.CreateContinuousQuery(
      "c1", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
  auto c2 = db_.CreateContinuousQuery(
      "c2", "SELECT count(*) FROM s2 <VISIBLE '1 minute'>");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  CqCapture cap1, cap2;
  (*c1)->AddCallback(cap1.Callback());
  (*c2)->AddCallback(cap2.Callback());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  EXPECT_EQ(cap1.batches.size(), 1u);
  EXPECT_TRUE(cap2.batches.empty());  // s2 untouched
}

TEST_F(RuntimeTest, CqNamesListing) {
  ASSERT_TRUE(db_.CreateContinuousQuery(
                    "alpha", "SELECT count(*) FROM s <VISIBLE '1 minute'>")
                  .ok());
  auto names = db_.runtime()->CqNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "alpha");
}

TEST_F(RuntimeTest, RowsIngestedCounter) {
  ASSERT_TRUE(db_.Ingest("s", {R(1, 1), R(2, 2), R(3, 3)}).ok());
  EXPECT_EQ(db_.runtime()->rows_ingested(), 3);
}

// Validation runs once per row, in arrival order, whatever else is
// attached to the stream: a wrong-arity row and a late row quarantine in
// order, each stamped with the watermark of the rows admitted before it.
TEST_F(RuntimeTest, TornAndLateRowsQuarantineInArrivalOrder) {
  auto cq = db_.CreateContinuousQuery(
      "c", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok());
  ASSERT_TRUE((*cq)->is_shared());
  ASSERT_TRUE(db_.runtime()->EnsureQuarantineStream("s").ok());
  CqCapture dead;
  ASSERT_TRUE(db_.runtime()
                  ->SubscribeStream(StreamRuntime::QuarantineName("s"),
                                    dead.Callback())
                  .ok());
  ASSERT_TRUE(
      db_.Ingest("s", {R(1, 100), Row{Value::Int64(9)}, R(2, 200), R(3, 50)})
          .ok());
  std::vector<Row> rows;
  for (const CqCapture::Batch& batch : dead.batches) {
    rows.insert(rows.end(), batch.rows.begin(), batch.rows.end());
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsTimestampMicros(), 100);
  EXPECT_EQ(rows[0][1].AsString(), "arity");
  EXPECT_EQ(rows[0][2].AsString(),
            "row arity 1 does not match stream 's' (2 columns)");
  EXPECT_EQ(rows[1][0].AsTimestampMicros(), 200);
  EXPECT_EQ(rows[1][1].AsString(), "late");
  EXPECT_EQ(rows[1][2].AsString(), "ts 50 is behind stream watermark 200");
  auto counters = db_.runtime()->overload_counters("s");
  EXPECT_EQ(counters.rows_admitted, 2);
  EXPECT_EQ(counters.rows_quarantined, 2);
}

// A ColumnBatch of the wrong width is all torn: every row quarantines for
// arity, exactly as the same rows would from a row vector.
TEST_F(RuntimeTest, WrongWidthColumnBatchQuarantinesEveryRow) {
  ASSERT_TRUE(db_.runtime()->EnsureQuarantineStream("s").ok());
  CqCapture dead;
  ASSERT_TRUE(db_.runtime()
                  ->SubscribeStream(StreamRuntime::QuarantineName("s"),
                                    dead.Callback())
                  .ok());
  exec::ColumnBatch batch(3);
  for (int64_t v : {1, 2}) {
    batch.AppendRow(Row{Value::Int64(v), Value::Timestamp(v), Value::Null()});
  }
  ASSERT_TRUE(db_.Ingest("s", std::move(batch)).ok());
  ASSERT_EQ(dead.batches.size(), 2u);
  for (const CqCapture::Batch& b : dead.batches) {
    ASSERT_EQ(b.rows.size(), 1u);
    EXPECT_EQ(b.rows[0][1].AsString(), "arity");
    EXPECT_EQ(b.rows[0][2].AsString(),
              "row arity 3 does not match stream 's' (2 columns)");
  }
  EXPECT_EQ(db_.runtime()->overload_counters("s").rows_quarantined, 2);
  EXPECT_EQ(db_.runtime()->watermark("s"), INT64_MIN);
}

// A first batch whose rows are all quarantined leaves the watermark unset,
// and slice eviction waits for a real one (INT64_MIN - VISIBLE would
// overflow), whether the batch arrives as rows or as a ColumnBatch.
TEST(RuntimeEvictionTest, AllQuarantinedFirstBatchLeavesWatermarkUnset) {
  for (bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "ColumnBatch" : "row vector");
    engine::Database db;
    MustExecute(&db, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
    auto cq = db.CreateContinuousQuery(
        "c", "SELECT count(*) FROM s <VISIBLE '1 minute'>");
    ASSERT_TRUE(cq.ok());
    ASSERT_TRUE((*cq)->is_shared());
    CqCapture cap;
    (*cq)->AddCallback(cap.Callback());
    const std::vector<Row> nulls = {Row{Value::Int64(1), Value::Null()},
                                    Row{Value::Int64(2), Value::Null()}};
    if (columnar) {
      exec::ColumnBatch batch(2);
      for (const Row& row : nulls) batch.AppendRow(row);
      ASSERT_TRUE(db.Ingest("s", std::move(batch)).ok());
    } else {
      ASSERT_TRUE(db.Ingest("s", nulls).ok());
    }
    EXPECT_EQ(db.runtime()->watermark("s"), INT64_MIN);
    EXPECT_EQ(db.runtime()->overload_counters("s").rows_quarantined, 2);
    ASSERT_TRUE(
        db.Ingest("s", {Row{Value::Int64(3), Value::Timestamp(kSec)}}).ok());
    ASSERT_TRUE(db.AdvanceTime("s", kMin).ok());
    ASSERT_EQ(cap.batches.size(), 1u);
    EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 1);
  }
}

// Heartbeats drive raw streams only. A derived stream's clock is its
// defining query's window closes; advancing it by hand would put its
// watermark past the next close the query publishes.
TEST_F(RuntimeTest, AdvanceTimeOnDerivedStreamRejected) {
  MustExecute(&db_, "CREATE STREAM d AS SELECT count(*) FROM s "
                    "<VISIBLE '10 seconds'>");
  const Status ingest = db_.Ingest("d", {Row{Value::Int64(1)}});
  const Status advance = db_.AdvanceTime("d", kMicrosPerHour);
  ASSERT_FALSE(advance.ok());
  EXPECT_EQ(advance.ToString(), ingest.ToString());
  CqCapture cap;
  ASSERT_TRUE(db_.runtime()->SubscribeStream("d", cap.Callback()).ok());
  ASSERT_TRUE(db_.Ingest("s", {R(1, kSec), R(2, 11 * kSec)}).ok());
  ASSERT_EQ(cap.batches.size(), 1u);
  EXPECT_EQ(cap.batches[0].close, 10 * kSec);
  EXPECT_EQ(cap.batches[0].rows[0][0].AsInt64(), 1);
}

}  // namespace
}  // namespace streamrel::stream
