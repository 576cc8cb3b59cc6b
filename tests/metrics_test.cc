#include "stream/metrics.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/time.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

// --- metric primitives -------------------------------------------------------

TEST(HistogramTest, BucketsMinMaxAndPercentiles) {
  Histogram h({10, 100});
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  h.Record(5);
  h.Record(50);
  h.Record(500);  // overflow bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 555);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 500);
  // Rank q * n, interpolated linearly inside its bucket between the
  // edges clipped to the observed [min, max]: bucket 0 spans [5, 10],
  // bucket 1 (10, 100], the overflow bucket (100, 500].
  EXPECT_EQ(h.Percentile(0.33), 10);   // rank 0.99: 5 + 5 * 0.99 = 9.95
  EXPECT_EQ(h.Percentile(0.66), 98);   // rank 1.98: 10 + 90 * 0.98 = 98.2
  EXPECT_EQ(h.Percentile(0.99), 488);  // rank 2.97: 100 + 400 * 0.97
  EXPECT_EQ(h.Percentile(0.5), 55);    // rank 1.5: 10 + 90 * 0.5
  EXPECT_EQ(h.Percentile(0.0), 5);     // the min
  EXPECT_EQ(h.Percentile(1.0), 500);   // the max

  // Values inside one bucket no longer all read as its bound.
  Histogram latency(Histogram::LatencyMicrosBounds());
  latency.Record(1234);
  EXPECT_EQ(latency.Percentile(0.5), 1234);  // a lone sample reads itself
  for (int64_t v = 1100; v <= 2000; v += 100) latency.Record(v);
  // 11 samples in (1000, 2500], clipped to [1100, 2000]: rank 5.5.
  EXPECT_EQ(latency.Percentile(0.5), 1550);  // 1100 + 900 * 5.5 / 11
}

TEST(MetricsRegistryTest, SnapshotAndRemoveObject) {
  MetricsRegistry registry;
  registry.GetCounter("cq", "a", "rows")->Add(7);
  registry.GetGauge("cq", "a", "level")->Set(3);
  registry.GetCounter("cq", "b", "rows")->Add(1);
  registry.GetWatermarkGauge("stream", "s", "watermark");

  auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // Deterministic (scope, name, metric) order.
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].metric, "level");
  EXPECT_EQ(samples[1].metric, "rows");
  EXPECT_EQ(samples[1].value, 7);
  // Unset watermark gauges flag themselves for NULL rendering.
  EXPECT_TRUE(samples[3].is_timestamp);
  EXPECT_EQ(samples[3].value, INT64_MIN);

  registry.RemoveObject("cq", "a");
  EXPECT_EQ(registry.Snapshot().size(), 2u);
  // Cells for other objects are untouched.
  EXPECT_EQ(registry.GetCounter("cq", "b", "rows")->value(), 1);
}

TEST(MetricsRegistryTest, HistogramExpandsIntoSamples) {
  MetricsRegistry registry;
  registry.GetHistogram("cq", "q", "eval_micros")->Record(40);
  auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 7u);
  EXPECT_EQ(samples[0].metric, "eval_micros_count");
  EXPECT_EQ(samples[0].value, 1);
  EXPECT_EQ(samples[1].metric, "eval_micros_total");
  EXPECT_EQ(samples[1].value, 40);
}

// --- SHOW STATS end to end ---------------------------------------------------

/// Finds one metric value in a SHOW STATS result; nullopt when absent,
/// INT64_MIN stands in for NULL.
std::optional<int64_t> Metric(const engine::QueryResult& result,
                              const std::string& scope,
                              const std::string& name,
                              const std::string& metric) {
  for (const Row& row : result.rows) {
    if (row[0].AsString() == scope && row[1].AsString() == name &&
        row[2].AsString() == metric) {
      return row[3].is_null() ? INT64_MIN : row[3].AsInt64();
    }
  }
  return std::nullopt;
}

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() {
    MustExecute(&db_,
                "CREATE STREAM s (url varchar, ts timestamp CQTIME USER)");
    MustExecute(&db_,
                "CREATE TABLE raw_archive (url varchar, ts timestamp)");
  }

  void IngestSeconds(const std::vector<int64_t>& secs) {
    std::vector<Row> rows;
    for (int64_t t : secs) {
      rows.push_back(
          Row{Value::String("/p" + std::to_string(t % 3)),
              Value::Timestamp(t * kSec)});
    }
    ASSERT_TRUE(db_.Ingest("s", rows).ok());
  }

  engine::Database db_;
};

TEST_F(MetricsTest, ShowStatsMatchesGroundTruth) {
  // Two CQs with the same (stream, slice, filter, group) signature share
  // one slice aggregator; a raw channel archives every ingested row.
  auto cq1 = db_.CreateContinuousQuery(
      "cq1", "SELECT url, count(*) FROM s <VISIBLE '1 minute'> GROUP BY url");
  ASSERT_TRUE(cq1.ok());
  auto cq2 = db_.CreateContinuousQuery(
      "cq2",
      "SELECT url, count(*) AS c FROM s "
      "<VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url");
  ASSERT_TRUE(cq2.ok());
  ASSERT_TRUE((*cq1)->is_shared());
  ASSERT_TRUE((*cq2)->is_shared());
  MustExecute(&db_, "CREATE CHANNEL raw_ch FROM s INTO raw_archive APPEND");

  IngestSeconds({10, 20, 30, 70, 80});
  ASSERT_TRUE(db_.AdvanceTime("s", 2 * kMin).ok());

  auto stats = MustExecute(&db_, "SHOW STATS");
  ASSERT_EQ(stats.schema.num_columns(), 4u);

  // Stream-level ingest accounting.
  EXPECT_EQ(Metric(stats, "stream", "s", "rows_ingested"), 5);
  EXPECT_EQ(Metric(stats, "stream", "s", "watermark"), 2 * kMin);
  EXPECT_EQ(Metric(stats, "stream", "s", "cq_subscriptions"), 2);
  EXPECT_EQ(Metric(stats, "stream", "s", "channels"), 1);
  EXPECT_EQ(Metric(stats, "engine", "runtime", "rows_ingested"), 5);
  EXPECT_EQ(Metric(stats, "engine", "runtime", "cqs_shared"), 2);
  EXPECT_EQ(Metric(stats, "engine", "runtime", "shared_pipelines"), 1);

  // The one shared aggregator absorbed each row once for both CQs.
  std::string agg_name;
  for (const Row& row : stats.rows) {
    if (row[0].AsString() == "aggregator" &&
        row[2].AsString() == "member_cqs") {
      agg_name = row[1].AsString();
      EXPECT_EQ(row[3].AsInt64(), 2);
    }
  }
  ASSERT_FALSE(agg_name.empty());
  EXPECT_EQ(Metric(stats, "aggregator", agg_name, "rows_absorbed"), 5);

  // Per-CQ counters agree with the CQ objects themselves.
  EXPECT_EQ(Metric(stats, "cq", "cq1", "windows_closed"),
            (*cq1)->windows_evaluated());
  EXPECT_EQ(Metric(stats, "cq", "cq1", "rows_emitted"),
            (*cq1)->rows_emitted());
  EXPECT_EQ(Metric(stats, "cq", "cq2", "windows_closed"),
            (*cq2)->windows_evaluated());
  EXPECT_GT(*Metric(stats, "cq", "cq1", "windows_closed"), 0);
  EXPECT_EQ(Metric(stats, "cq", "cq1", "eval_micros_count"),
            (*cq1)->windows_evaluated());

  // Channel persistence counters agree with the channel and the table.
  Channel* ch = db_.runtime()->GetChannel("raw_ch");
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(Metric(stats, "channel", "raw_ch", "rows_persisted"),
            ch->rows_persisted());
  EXPECT_EQ(Metric(stats, "channel", "raw_ch", "batches_persisted"),
            ch->batches_persisted());
  EXPECT_EQ(Metric(stats, "channel", "raw_ch", "commit_watermark"),
            ch->watermark());
  auto archived = MustExecute(&db_, "SELECT count(*) FROM raw_archive");
  EXPECT_EQ(archived.rows[0][0].AsInt64(),
            *Metric(stats, "channel", "raw_ch", "rows_persisted"));

  // WAL totals ride along in the engine scope.
  EXPECT_EQ(Metric(stats, "engine", "wal", "records"),
            db_.wal()->record_count());
}

TEST_F(MetricsTest, ShowStatsForFiltersToOneObject) {
  auto cq = db_.CreateContinuousQuery(
      "cq1", "SELECT url, count(*) FROM s <VISIBLE '1 minute'> GROUP BY url");
  ASSERT_TRUE(cq.ok());
  MustExecute(&db_, "CREATE CHANNEL raw_ch FROM s INTO raw_archive APPEND");
  IngestSeconds({10, 20});

  auto for_cq = MustExecute(&db_, "SHOW STATS FOR CQ cq1");
  ASSERT_FALSE(for_cq.rows.empty());
  for (const Row& row : for_cq.rows) {
    EXPECT_EQ(row[0].AsString(), "cq");
    EXPECT_EQ(row[1].AsString(), "cq1");
  }

  auto for_stream = MustExecute(&db_, "SHOW STATS FOR STREAM s");
  ASSERT_FALSE(for_stream.rows.empty());
  for (const Row& row : for_stream.rows) EXPECT_EQ(row[0].AsString(), "stream");
  EXPECT_EQ(Metric(for_stream, "stream", "s", "rows_ingested"), 2);

  auto for_channel = MustExecute(&db_, "SHOW STATS FOR CHANNEL raw_ch");
  ASSERT_FALSE(for_channel.rows.empty());
  for (const Row& row : for_channel.rows) {
    EXPECT_EQ(row[0].AsString(), "channel");
  }

  auto missing = db_.Execute("SHOW STATS FOR CQ ghost");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(db_.Execute("SHOW STATS FOR STREAM ghost").ok());
  EXPECT_FALSE(db_.Execute("SHOW STATS FOR CHANNEL ghost").ok());
  EXPECT_FALSE(db_.Execute("SHOW STATS FOR TABLE t").ok());  // parse error
}

TEST_F(MetricsTest, UnsetWatermarksRenderAsNull) {
  auto stats = MustExecute(&db_, "SHOW STATS FOR STREAM s");
  // No rows ingested: the watermark gauge is unset and must be NULL, not
  // INT64_MIN.
  bool found = false;
  for (const Row& row : stats.rows) {
    if (row[2].AsString() == "watermark") {
      EXPECT_TRUE(row[3].is_null());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, DropCqRemovesItsMetrics) {
  auto cq = db_.CreateContinuousQuery(
      "cq1", "SELECT url, count(*) FROM s <VISIBLE '1 minute'> GROUP BY url");
  ASSERT_TRUE(cq.ok());
  IngestSeconds({10});
  ASSERT_TRUE(db_.DropContinuousQuery("cq1").ok());
  auto stats = MustExecute(&db_, "SHOW STATS");
  for (const Row& row : stats.rows) {
    EXPECT_FALSE(row[0].AsString() == "cq" && row[1].AsString() == "cq1");
  }
}

TEST_F(MetricsTest, DisabledMetricsSkipIngestAccounting) {
  db_.runtime()->metrics()->set_enabled(false);
  IngestSeconds({10, 20});
  auto stats = MustExecute(&db_, "SHOW STATS FOR STREAM s");
  EXPECT_EQ(Metric(stats, "stream", "s", "rows_ingested"), 0);
  // The runtime's own accounting is unaffected.
  EXPECT_EQ(db_.runtime()->rows_ingested(), 2);
}

TEST_F(MetricsTest, StatsSnapshotStructApi) {
  IngestSeconds({10});
  engine::EngineStats stats = db_.StatsSnapshot();
  EXPECT_FALSE(stats.metrics.empty());
  EXPECT_EQ(stats.wal_records, db_.wal()->record_count());
  EXPECT_GE(stats.wal_bytes, 0);
  bool saw_stream_rows = false;
  for (const auto& sample : stats.metrics) {
    if (sample.scope == "stream" && sample.name == "s" &&
        sample.metric == "rows_ingested") {
      EXPECT_EQ(sample.value, 1);
      saw_stream_rows = true;
    }
  }
  EXPECT_TRUE(saw_stream_rows);
}

}  // namespace
}  // namespace streamrel::stream
