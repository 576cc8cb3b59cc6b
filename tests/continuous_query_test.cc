#include "stream/continuous_query.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/time.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

/// Fixture: a url_stream plus helpers to drive it and capture CQ output.
class ContinuousQueryTest : public ::testing::Test {
 protected:
  ContinuousQueryTest() {
    MustExecute(&db_,
                "CREATE STREAM url_stream (url varchar, "
                "atime timestamp CQTIME USER, bytes bigint)");
  }

  ContinuousQuery* MustCreateCq(const std::string& name,
                                const std::string& sql,
                                bool allow_shared = true) {
    auto r = db_.CreateContinuousQuery(name, sql, allow_shared);
    EXPECT_TRUE(r.ok()) << sql << "\n -> " << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  void Send(const std::string& url, int64_t ts, int64_t bytes = 100) {
    ASSERT_TRUE(db_.Ingest("url_stream",
                           {Row{Value::String(url), Value::Timestamp(ts),
                                Value::Int64(bytes)}})
                    .ok());
  }

  engine::Database db_;
  CqCapture capture_;
};

TEST_F(ContinuousQueryTest, SimpleAggregateUsesSharedPath) {
  ContinuousQuery* cq = MustCreateCq(
      "counts",
      "SELECT url, count(*) FROM url_stream <VISIBLE '1 minute'> GROUP BY "
      "url");
  ASSERT_NE(cq, nullptr);
  EXPECT_TRUE(cq->is_shared());
  cq->AddCallback(capture_.Callback());

  Send("/a", 10 * kSec);
  Send("/a", 20 * kSec);
  Send("/b", 30 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());

  ASSERT_EQ(capture_.batches.size(), 1u);
  EXPECT_EQ(capture_.batches[0].close, kMin);
  EXPECT_EQ(capture_.batches[0].rows.size(), 2u);
}

TEST_F(ContinuousQueryTest, GenericPathWhenSharedDisabled) {
  ContinuousQuery* cq = MustCreateCq(
      "counts_generic",
      "SELECT url, count(*) FROM url_stream <VISIBLE '1 minute'> GROUP BY "
      "url",
      /*allow_shared=*/false);
  ASSERT_NE(cq, nullptr);
  EXPECT_FALSE(cq->is_shared());
}

TEST_F(ContinuousQueryTest, SharedAndGenericAgree) {
  const std::string sql =
      "SELECT url, count(*) AS c, sum(bytes) AS s FROM "
      "url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'> "
      "GROUP BY url ORDER BY c DESC, url";
  ContinuousQuery* shared = MustCreateCq("shared", sql, true);
  ContinuousQuery* generic = MustCreateCq("generic", sql, false);
  ASSERT_TRUE(shared->is_shared());
  ASSERT_FALSE(generic->is_shared());
  CqCapture cap_shared, cap_generic;
  shared->AddCallback(cap_shared.Callback());
  generic->AddCallback(cap_generic.Callback());

  int64_t ts = 0;
  const char* urls[] = {"/a", "/b", "/c", "/a", "/b", "/a"};
  for (int i = 0; i < 240; ++i) {
    ts += 997000;  // ~1s, deliberately not aligned
    Send(urls[i % 6], ts, (i * 13) % 100);
  }
  ASSERT_TRUE(db_.AdvanceTime("url_stream", ts + 2 * kMin).ok());

  ASSERT_EQ(cap_shared.batches.size(), cap_generic.batches.size());
  for (size_t i = 0; i < cap_shared.batches.size(); ++i) {
    EXPECT_EQ(cap_shared.batches[i].close, cap_generic.batches[i].close);
    ASSERT_EQ(cap_shared.batches[i].rows.size(),
              cap_generic.batches[i].rows.size())
        << "window " << i;
    for (size_t j = 0; j < cap_shared.batches[i].rows.size(); ++j) {
      EXPECT_EQ(RowToString(cap_shared.batches[i].rows[j]),
                RowToString(cap_generic.batches[i].rows[j]));
    }
  }
}

TEST_F(ContinuousQueryTest, TopKWithOrderLimit) {
  ContinuousQuery* cq = MustCreateCq(
      "topk",
      "SELECT url, count(*) url_count FROM url_stream <VISIBLE '1 minute'> "
      "GROUP BY url ORDER BY url_count DESC LIMIT 2");
  cq->AddCallback(capture_.Callback());
  for (int i = 0; i < 5; ++i) Send("/hot", (i + 1) * kSec);
  for (int i = 0; i < 3; ++i) Send("/warm", (10 + i) * kSec);
  Send("/cold", 20 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  const auto& rows = capture_.batches[0].rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "/hot");
  EXPECT_EQ(rows[0][1].AsInt64(), 5);
  EXPECT_EQ(rows[1][0].AsString(), "/warm");
}

TEST_F(ContinuousQueryTest, HavingFilter) {
  ContinuousQuery* cq = MustCreateCq(
      "busy",
      "SELECT url, count(*) FROM url_stream <VISIBLE '1 minute'> "
      "GROUP BY url HAVING count(*) >= 2");
  cq->AddCallback(capture_.Callback());
  Send("/a", 1 * kSec);
  Send("/a", 2 * kSec);
  Send("/b", 3 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  ASSERT_EQ(capture_.batches[0].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsString(), "/a");
}

TEST_F(ContinuousQueryTest, WhereFilterPreAggregation) {
  ContinuousQuery* cq = MustCreateCq(
      "big_only",
      "SELECT count(*) FROM url_stream <VISIBLE '1 minute'> "
      "WHERE bytes > 500");
  cq->AddCallback(capture_.Callback());
  Send("/a", 1 * kSec, 1000);
  Send("/a", 2 * kSec, 10);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsInt64(), 1);
}

TEST_F(ContinuousQueryTest, CqCloseColumn) {
  ContinuousQuery* cq = MustCreateCq(
      "with_close",
      "SELECT count(*), cq_close(*) FROM url_stream <VISIBLE '1 minute'>");
  cq->AddCallback(capture_.Callback());
  Send("/a", 1 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", 2 * kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 2u);
  EXPECT_EQ(capture_.batches[0].rows[0][1].AsTimestampMicros(), kMin);
  EXPECT_EQ(capture_.batches[1].rows[0][1].AsTimestampMicros(), 2 * kMin);
  // Empty window still emits the scalar aggregate row with count 0.
  EXPECT_EQ(capture_.batches[1].rows[0][0].AsInt64(), 0);
}

TEST_F(ContinuousQueryTest, NonAggregateCqIsGeneric) {
  ContinuousQuery* cq = MustCreateCq(
      "raw_pass",
      "SELECT url, bytes FROM url_stream <VISIBLE '1 minute'> "
      "WHERE bytes > 50");
  EXPECT_FALSE(cq->is_shared());
  cq->AddCallback(capture_.Callback());
  Send("/a", 1 * kSec, 100);
  Send("/b", 2 * kSec, 10);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  ASSERT_EQ(capture_.batches[0].rows.size(), 1u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsString(), "/a");
}

TEST_F(ContinuousQueryTest, RowWindowCqIsGeneric) {
  ContinuousQuery* cq = MustCreateCq(
      "per_100",
      "SELECT count(*) FROM url_stream <VISIBLE 4 ROWS ADVANCE 4 ROWS>");
  EXPECT_FALSE(cq->is_shared());
  cq->AddCallback(capture_.Callback());
  for (int i = 1; i <= 8; ++i) Send("/a", i * kSec);
  ASSERT_EQ(capture_.batches.size(), 2u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsInt64(), 4);
}

TEST_F(ContinuousQueryTest, SnapshotQueryRejected) {
  MustExecute(&db_, "CREATE TABLE t (a bigint)");
  auto r = db_.CreateContinuousQuery("nope", "SELECT a FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ContinuousQueryTest, EmitWatermarkSuppressesDelivery) {
  ContinuousQuery* cq = MustCreateCq(
      "suppressed",
      "SELECT count(*) FROM url_stream <VISIBLE '1 minute'>");
  cq->AddCallback(capture_.Callback());
  cq->SetEmitWatermark(2 * kMin);
  Send("/a", 1 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", 3 * kMin).ok());
  // Windows at 1min and 2min evaluated but suppressed; only 3min delivered.
  ASSERT_EQ(capture_.batches.size(), 1u);
  EXPECT_EQ(capture_.batches[0].close, 3 * kMin);
  EXPECT_EQ(cq->windows_evaluated(), 3);
}

TEST_F(ContinuousQueryTest, SharingAcrossCqs) {
  ContinuousQuery* a = MustCreateCq(
      "m1",
      "SELECT url, count(*) FROM url_stream <VISIBLE '1 minute'> GROUP BY "
      "url");
  ContinuousQuery* b = MustCreateCq(
      "m2",
      "SELECT url, sum(bytes), count(*) FROM url_stream "
      "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url");
  ASSERT_TRUE(a->is_shared());
  ASSERT_TRUE(b->is_shared());
  // Same (stream, slice=1min, filter, group) signature: one pipeline.
  EXPECT_EQ(db_.runtime(), db_.runtime());  // both registered in runtime
  CqCapture cap_a, cap_b;
  a->AddCallback(cap_a.Callback());
  b->AddCallback(cap_b.Callback());
  for (int m = 0; m < 6; ++m) {
    Send("/x", m * kMin + kSec, 10);
  }
  ASSERT_TRUE(db_.AdvanceTime("url_stream", 6 * kMin).ok());
  ASSERT_EQ(cap_a.batches.size(), 6u);
  ASSERT_EQ(cap_b.batches.size(), 6u);
  // a sees 1 row/min; b's 5-minute window at close=6min covers minutes 1-5.
  EXPECT_EQ(cap_a.batches[5].rows[0][1].AsInt64(), 1);
  EXPECT_EQ(cap_b.batches[5].rows[0][2].AsInt64(), 5);
  EXPECT_EQ(cap_b.batches[5].rows[0][1].AsInt64(), 50);
}

TEST_F(ContinuousQueryTest, OrderByExpressionOverAggregates) {
  // ORDER BY an expression combining aggregates (avg bytes per hit) —
  // a hidden sort column computed over the shared pipeline's groups.
  ContinuousQuery* cq = MustCreateCq(
      "rate",
      "SELECT url, sum(bytes) AS b, count(*) AS c FROM url_stream "
      "<VISIBLE '1 minute'> GROUP BY url ORDER BY sum(bytes) / count(*) "
      "DESC");
  ASSERT_TRUE(cq->is_shared());
  cq->AddCallback(capture_.Callback());
  Send("/low", 1 * kSec, 10);
  Send("/low", 2 * kSec, 10);
  Send("/high", 3 * kSec, 1000);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  ASSERT_EQ(capture_.batches[0].rows.size(), 2u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsString(), "/high");
}

TEST_F(ContinuousQueryTest, DistinctCqUsesGenericPath) {
  ContinuousQuery* cq = MustCreateCq(
      "uniq",
      "SELECT DISTINCT url FROM url_stream <VISIBLE '1 minute'>");
  EXPECT_FALSE(cq->is_shared());
  cq->AddCallback(capture_.Callback());
  Send("/a", 1 * kSec);
  Send("/a", 2 * kSec);
  Send("/b", 3 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("url_stream", kMin).ok());
  ASSERT_EQ(capture_.batches[0].rows.size(), 2u);
}

TEST_F(ContinuousQueryTest, SumOfIntervalsAggregates) {
  // The value system's interval arithmetic flows through sum().
  MustExecute(&db_,
              "CREATE STREAM spans (d interval, ts timestamp CQTIME USER)");
  auto cq = db_.CreateContinuousQuery(
      "total_time", "SELECT sum(d) FROM spans <VISIBLE '1 minute'>");
  ASSERT_TRUE(cq.ok());
  (*cq)->AddCallback(capture_.Callback());
  ASSERT_TRUE(db_.Ingest("spans", {Row{Value::Interval(30 * kSec),
                                       Value::Timestamp(kSec)},
                                   Row{Value::Interval(45 * kSec),
                                       Value::Timestamp(2 * kSec)}})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("spans", kMin).ok());
  ASSERT_EQ(capture_.batches.size(), 1u);
  EXPECT_EQ(capture_.batches[0].rows[0][0].AsIntervalMicros(), 75 * kSec);
}

TEST_F(ContinuousQueryTest, OutputSchemaNamed) {
  ContinuousQuery* cq = MustCreateCq(
      "named",
      "SELECT url, count(*) AS hits FROM url_stream <VISIBLE '1 minute'> "
      "GROUP BY url");
  ASSERT_EQ(cq->output_schema().num_columns(), 2u);
  EXPECT_EQ(cq->output_schema().column(0).name, "url");
  EXPECT_EQ(cq->output_schema().column(1).name, "hits");
}

// --- one meaning per CQ, whichever strategy runs it --------------------------

/// Creates `sqls` as CQs c0, c1, ... on a fresh stream s, ingests six rows
/// inside the first minute in two calls and closes the minute. Returns
/// every CREATE, Ingest and AdvanceTime result and every delivered row as
/// transcript lines; `shared` receives each created CQ's strategy.
std::vector<std::string> RunBothWays(const std::vector<std::string>& sqls,
                                     bool allow_shared,
                                     std::vector<bool>* shared) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (k varchar, ts timestamp CQTIME USER, "
              "v bigint)");
  std::vector<std::string> out;
  for (size_t i = 0; i < sqls.size(); ++i) {
    const std::string name = "c" + std::to_string(i);
    auto cq = db.CreateContinuousQuery(name, sqls[i], allow_shared);
    out.push_back("create " + name + ": " + cq.status().ToString());
    if (!cq.ok()) continue;
    shared->push_back((*cq)->is_shared());
    (*cq)->AddCallback([&out, name](int64_t close,
                                    const std::vector<Row>& rows) {
      out.push_back(name + "@" + std::to_string(close) +
                    " n=" + std::to_string(rows.size()));
      for (const Row& row : rows) out.push_back("  " + RowToString(row));
      return Status::OK();
    });
  }
  const char* keys[] = {"a", "b", "a", "c", "b", "a"};
  for (int half = 0; half < 2; ++half) {
    std::vector<Row> rows;
    for (int i = 3 * half; i < 3 * half + 3; ++i) {
      rows.push_back(Row{Value::String(keys[i]),
                         Value::Timestamp((i + 1) * 5 * kSec),
                         Value::Int64(i + 1)});
    }
    out.push_back("ingest: " + db.Ingest("s", rows).ToString());
  }
  out.push_back("advance: " + db.AdvanceTime("s", kMin).ToString());
  return out;
}

struct BothWays {
  std::vector<std::string> transcript;  // equal under both strategies
  std::vector<bool> shared;  // each created CQ's strategy, allow_shared
};

/// Runs `sqls` with allow_shared true and false and requires identical
/// transcripts.
BothWays ExpectSameBothWays(const std::vector<std::string>& sqls) {
  BothWays with;
  std::vector<bool> unshared;
  with.transcript = RunBothWays(sqls, true, &with.shared);
  EXPECT_EQ(with.transcript, RunBothWays(sqls, false, &unshared));
  for (bool s : unshared) EXPECT_FALSE(s);
  return with;
}

bool Has(const std::vector<std::string>& transcript,
         const std::string& line) {
  return std::find(transcript.begin(), transcript.end(), line) !=
         transcript.end();
}

TEST(CqStrategyAgreementTest, GroupByOrdinalOutOfRangeIsRejected) {
  const BothWays r = ExpectSameBothWays(
      {"SELECT count(*) FROM s <VISIBLE '1 minute'> GROUP BY 2"});
  EXPECT_TRUE(r.shared.empty());
  EXPECT_NE(r.transcript[0].find("GROUP BY ordinal out of range"),
            std::string::npos)
      << r.transcript[0];
}

TEST(CqStrategyAgreementTest, NowBeforeAggregationReadsTheClose) {
  const BothWays r = ExpectSameBothWays(
      {"SELECT count(*) FROM s <VISIBLE '1 minute'> WHERE ts < now()",
       "SELECT k, max(now()) FROM s <VISIBLE '1 minute'> GROUP BY k"});
  EXPECT_EQ(r.shared, (std::vector<bool>{false, false}));
  EXPECT_TRUE(Has(r.transcript, "  (6)"));
}

TEST(CqStrategyAgreementTest, CqCloseInAggregateArgumentKeepsIngestWorking) {
  const BothWays r = ExpectSameBothWays(
      {"SELECT count(*) FROM s <VISIBLE '1 minute'>",
       "SELECT k, max(cq_close(*)) FROM s <VISIBLE '1 minute'> GROUP BY k"});
  EXPECT_EQ(r.shared, (std::vector<bool>{true, false}));
  EXPECT_EQ(std::count(r.transcript.begin(), r.transcript.end(),
                       "ingest: OK"),
            2);
  EXPECT_TRUE(Has(r.transcript, "c0@60000000 n=1"));
  EXPECT_TRUE(Has(r.transcript, "c1@60000000 n=3"));
}

// Sharing is decided on the plan: an aggregate over the stream shares
// whatever unary operators sit above it, an enclosing query's included.
TEST(CqStrategyAgreementTest, OperatorsAboveTheAggregateShare) {
  const BothWays r = ExpectSameBothWays(
      {"SELECT k, n FROM (SELECT k, count(*) AS n, sum(v) AS t "
       "FROM s <VISIBLE '1 minute'> GROUP BY k) AS w "
       "WHERE n > 1 ORDER BY t DESC",
       "SELECT DISTINCT count(*) FROM s <VISIBLE '1 minute'> GROUP BY k"});
  EXPECT_EQ(r.shared, (std::vector<bool>{true, true}));
}

}  // namespace
}  // namespace streamrel::stream
