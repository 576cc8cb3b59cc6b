#include "stream/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/time.h"
#include "stream/recovery.h"
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

TEST(HistogramTest, AppendSamplesExpandsIntoSevenRows) {
  Histogram h(Histogram::LatencyMicrosBounds());
  h.Record(40);
  std::vector<MetricSample> samples;
  h.AppendSamples("cq", "q", "eval_micros", &samples);
  ASSERT_EQ(samples.size(), 7u);
  const char* kMetrics[] = {"eval_micros_count", "eval_micros_total",
                            "eval_micros_min",   "eval_micros_max",
                            "eval_micros_p50",   "eval_micros_p95",
                            "eval_micros_p99"};
  const int64_t kValues[] = {1, 40, 40, 40, 40, 40, 40};
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].scope, "cq");
    EXPECT_EQ(samples[i].name, "q");
    EXPECT_EQ(samples[i].metric, kMetrics[i]);
    EXPECT_EQ(samples[i].value, kValues[i]) << kMetrics[i];
    EXPECT_FALSE(samples[i].is_timestamp);
  }
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

// --- one home per number ----------------------------------------------------

/// Re-opens `old`'s disk and WAL in a fresh engine, re-runs `ddl`, replays
/// the WAL and resumes every CQ from its channel's watermark.
std::unique_ptr<engine::Database> RestartFromActiveTables(
    engine::Database* old, const std::string& ddl) {
  auto fresh = std::make_unique<engine::Database>(old->disk(), old->wal());
  MustExecute(fresh.get(), ddl);
  auto replay = fresh->RecoverFromWal();
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) {
    EXPECT_TRUE(ResumeFromActiveTables(fresh->runtime(), *replay).ok());
  }
  return fresh;
}

constexpr char kPerMinuteDdl[] =
    "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
    "CREATE STREAM per_min AS SELECT url, count(*) AS c, cq_close(*) AS w "
    "  FROM s <VISIBLE '1 minute'> GROUP BY url;"
    "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
    "CREATE CHANNEL ch FROM per_min INTO archive APPEND";

Row Click(const std::string& url, int64_t micros) {
  return Row{Value::String(url), Value::Timestamp(micros)};
}

TEST(OneHomeTest, ChannelWatermarkAfterRestartMatchesSysChannels) {
  engine::Database db;
  MustExecute(&db, kPerMinuteDdl);
  for (int m = 0; m < 3; ++m) {
    ASSERT_TRUE(db.Ingest("s", {Click("/a", m * kMin + 10 * kSec)}).ok());
  }
  auto fresh = RestartFromActiveTables(&db, kPerMinuteDdl);

  auto sys = MustExecute(
      fresh.get(), "SELECT watermark FROM sys_channels WHERE name = 'ch'");
  ASSERT_EQ(sys.rows.size(), 1u);
  EXPECT_EQ(sys.rows[0][0].AsTimestampMicros(), 2 * kMin);
  auto stats = MustExecute(fresh.get(), "SHOW STATS FOR CHANNEL ch");
  EXPECT_EQ(Metric(stats, "channel", "ch", "commit_watermark"), 2 * kMin);
}

TEST(OneHomeTest, DroppedStreamsLeaveNoRows) {
  engine::Database db;
  MustExecute(&db, kPerMinuteDdl);
  MustExecute(&db, "CREATE STREAM t (v bigint, ts timestamp CQTIME USER)");
  ASSERT_TRUE(db.Ingest("s", {Click("/a", 10 * kSec), Click("/a", 70 * kSec)})
                  .ok());
  ASSERT_TRUE(db.Ingest("t", {Row{Value::Int64(1), Value::Timestamp(kSec)}})
                  .ok());
  auto before = MustExecute(&db, "SHOW STATS FOR OVERLOAD");
  EXPECT_EQ(Metric(before, "overload", "t", "rows_admitted"), 1);
  EXPECT_EQ(Metric(before, "overload", "per_min", "rows_admitted"), 0);

  MustExecute(&db, "DROP CHANNEL ch");
  MustExecute(&db, "DROP STREAM per_min");
  MustExecute(&db, "DROP STREAM t");
  auto after = MustExecute(&db, "SHOW STATS");
  for (const Row& row : after.rows) {
    const std::string name = row[1].AsString();
    EXPECT_TRUE(name != "per_min" && name != "t" && name != "ch")
        << row[0].AsString() << "/" << name << "/" << row[2].AsString();
  }
  EXPECT_EQ(Metric(after, "overload", "s", "rows_admitted"), 2);
}

TEST(OneHomeTest, FailedCloseCountsTheSameInSysCqsAndShowStats) {
  engine::Database db;
  MustExecute(&db, "CREATE STREAM s (url varchar, ts timestamp CQTIME USER)");
  auto q = db.CreateContinuousQuery(
      "q", "SELECT count(*) / (count(*) - 1) AS x FROM s <VISIBLE '1 minute'>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The 1:00 close divides 2 by 1; the 2:00 close divides 1 by 0.
  ASSERT_TRUE(db.Ingest("s", {Click("/a", 10 * kSec), Click("/a", 20 * kSec),
                              Click("/a", 70 * kSec)})
                  .ok());
  Status failed = db.Ingest("s", {Click("/a", 130 * kSec)});
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("division by zero"), std::string::npos);

  auto sys = MustExecute(&db,
                         "SELECT windows_evaluated, eval_micros FROM sys_cqs "
                         "WHERE name = 'q'");
  ASSERT_EQ(sys.rows.size(), 1u);
  auto stats = MustExecute(&db, "SHOW STATS FOR CQ q");
  EXPECT_EQ(sys.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(Metric(stats, "cq", "q", "windows_closed"), 1);
  EXPECT_EQ(Metric(stats, "cq", "q", "eval_micros_count"), 1);
  EXPECT_EQ((*q)->windows_evaluated(), 1);
  EXPECT_EQ(Metric(stats, "cq", "q", "eval_micros_total"),
            sys.rows[0][1].AsInt64());
}

// The contract: a scripted workload that touches every engine scope, then
// the exact (scope, name, metric) list SHOW STATS returns, in order, and
// the values of its deterministic counters.
TEST(OneHomeTest, ShowStatsContract) {
  constexpr char kDdl[] =
      "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
      "CREATE STREAM per_min AS SELECT url, count(*) AS c, cq_close(*) AS w "
      "  FROM s <VISIBLE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE INDEX archive_w ON archive (w);"
      "CREATE CHANNEL ch FROM per_min INTO archive APPEND";
  engine::Database db;
  MustExecute(&db, kDdl);
  ASSERT_TRUE(db.Ingest("s", {Click("/a", 10 * kSec), Click("/b", 20 * kSec),
                              Click("/a", 70 * kSec), Click("/a", 130 * kSec)})
                  .ok());

  // Restart: the archive holds the 1:00 and 2:00 windows.
  auto fresh = RestartFromActiveTables(&db, kDdl);
  engine::Database& r = *fresh;
  EXPECT_EQ(Metric(MustExecute(&r, "SHOW STATS FOR CHANNEL ch"), "channel",
                   "ch", "commit_watermark"),
            2 * kMin);
  auto shared = r.CreateContinuousQuery(
      "cq_shared",
      "SELECT url, count(*) AS c FROM s <VISIBLE '20 seconds'> GROUP BY url");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE((*shared)->is_shared());
  auto generic = r.CreateContinuousQuery(
      "cq_generic", "SELECT url, ts FROM s <VISIBLE '20 seconds'>");
  ASSERT_TRUE(generic.ok());
  ASSERT_FALSE((*generic)->is_shared());
  auto dropped = r.CreateContinuousQuery(
      "cq_dropped",
      "SELECT count(*) FROM s <VISIBLE '20 seconds'> WHERE url = '/b'");
  ASSERT_TRUE(dropped.ok());

  // The 1:00 row is late and quarantined; the 3:05 row closes per_min's
  // 3:00 window, which the channel persists.
  ASSERT_TRUE(r.Ingest("s", {Click("/a", 125 * kSec), Click("/b", 135 * kSec),
                             Click("/a", 145 * kSec), Click("/a", 60 * kSec),
                             Click("/b", 165 * kSec), Click("/a", 185 * kSec)})
                  .ok());
  MustExecute(&r, "CREATE STREAM t (v bigint, ts timestamp CQTIME USER)");
  ASSERT_TRUE(r.Ingest("t", {Row{Value::Int64(1), Value::Timestamp(kSec)}})
                  .ok());
  MustExecute(&r, "SHOW STATS");
  ASSERT_TRUE(r.DropContinuousQuery("cq_dropped").ok());
  MustExecute(&r, "DROP STREAM t");

  auto stats = MustExecute(&r, "SHOW STATS");
  std::vector<std::string> actual;
  std::map<std::string, int64_t> values;  // INT64_MIN stands in for NULL
  for (const Row& row : stats.rows) {
    actual.push_back(row[0].AsString() + "/" + row[1].AsString() + "/" +
                     row[2].AsString());
    values[actual.back()] = row[3].is_null() ? INT64_MIN : row[3].AsInt64();
  }
  EXPECT_EQ(std::set<std::string>(actual.begin(), actual.end()).size(),
            actual.size());

  // Every triple, in order. Dropped objects (cq_dropped and its pipeline,
  // stream t) have none.
  const std::vector<std::string> kPipeline = {
      "evals_reused", "live_slices",  "member_cqs",   "rows_absorbed",
      "slice_width_micros", "union_calls", "window_merges"};
  const std::vector<std::string> kCq = {
      "emit_watermark",  "eval_micros_count", "eval_micros_total",
      "eval_micros_min", "eval_micros_max",   "eval_micros_p50",
      "eval_micros_p95", "eval_micros_p99",   "is_shared",
      "rows_emitted",    "windows_closed"};
  const std::vector<std::string> kOverload = {
      "blocked_micros", "rows_admitted", "rows_quarantined", "rows_shed"};
  const std::vector<std::string> kStream = {
      "batches_published", "channels",      "client_subscriptions",
      "cq_subscriptions",  "rows_ingested", "rows_published",
      "watermark"};
  std::vector<std::string> expected;
  auto add = [&](const std::string& object,
                 const std::vector<std::string>& metrics) {
    for (const std::string& m : metrics) expected.push_back(object + "/" + m);
  };
  add("aggregator/s|20000000|url#2", kPipeline);
  add("aggregator/s|60000000|url#1", kPipeline);
  add("channel/ch",
      {"batches_persisted", "commit_watermark", "rows_persisted"});
  add("cq/$derived$per_min", kCq);
  add("cq/cq_generic", kCq);
  add("cq/cq_shared", kCq);
  add("engine/disk", {"bytes_read", "bytes_written", "cache_hits",
                      "page_reads", "page_writes", "simulated_io_micros"});
  add("engine/lock",
      {"dml_acquisitions", "dml_contended", "exclusive_acquisitions",
       "exclusive_contended", "exclusive_wait_micros", "shared_acquisitions",
       "shared_contended", "shared_wait_micros", "stream_acquisitions",
       "stream_contended", "sys_acquisitions", "sys_contended"});
  add("engine/runtime", {"channels", "cqs", "cqs_generic", "cqs_shared",
                         "rows_ingested", "shared_pipelines", "streams"});
  add("engine/wal", {"bytes", "records"});
  add("overload/governor",
      {"bytes_aggregator", "bytes_budget", "bytes_held", "bytes_ingest_batch",
       "bytes_net_send_queue", "bytes_peak", "bytes_reorder", "bytes_window"});
  add("overload/per_min", kOverload);
  add("overload/quarantine", {"rows_dropped"});
  add("overload/retry", {"exhausted", "retries"});
  add("overload/s", kOverload);
  add("overload/s.__quarantine", kOverload);
  add("recovery/faults", {"crashes", "fires", "hits"});
  add("recovery/wal", {"corrupt_tails", "midlog_corruptions", "replays",
                       "rows_replayed", "torn_tails", "txns_replayed"});
  add("repl/standby",
      {"applied_bytes", "applied_records", "applies", "apply_errors", "role"});
  add("stream/per_min", kStream);
  add("stream/s", kStream);
  add("stream/s.__quarantine", kStream);
  EXPECT_EQ(actual, expected);

  // The deterministic counters (not timings, byte sizes or lock counts).
  const std::map<std::string, int64_t> kValues = {
      {"aggregator/s|20000000|url#2/evals_reused", 0},
      {"aggregator/s|20000000|url#2/live_slices", 2},
      {"aggregator/s|20000000|url#2/member_cqs", 1},
      {"aggregator/s|20000000|url#2/rows_absorbed", 5},
      {"aggregator/s|20000000|url#2/slice_width_micros", 20 * kSec},
      {"aggregator/s|20000000|url#2/union_calls", 1},
      {"aggregator/s|20000000|url#2/window_merges", 3},
      {"aggregator/s|60000000|url#1/evals_reused", 0},
      {"aggregator/s|60000000|url#1/live_slices", 2},
      {"aggregator/s|60000000|url#1/member_cqs", 1},
      {"aggregator/s|60000000|url#1/rows_absorbed", 5},
      {"aggregator/s|60000000|url#1/slice_width_micros", kMin},
      {"aggregator/s|60000000|url#1/union_calls", 1},
      {"aggregator/s|60000000|url#1/window_merges", 1},
      {"channel/ch/batches_persisted", 1},
      {"channel/ch/commit_watermark", 3 * kMin},
      {"channel/ch/rows_persisted", 2},
      {"cq/$derived$per_min/emit_watermark", 2 * kMin},
      {"cq/$derived$per_min/eval_micros_count", 1},
      {"cq/$derived$per_min/is_shared", 1},
      {"cq/$derived$per_min/rows_emitted", 2},
      {"cq/$derived$per_min/windows_closed", 1},
      {"cq/cq_generic/emit_watermark", INT64_MIN},
      {"cq/cq_generic/eval_micros_count", 3},
      {"cq/cq_generic/is_shared", 0},
      {"cq/cq_generic/rows_emitted", 4},
      {"cq/cq_generic/windows_closed", 3},
      {"cq/cq_shared/emit_watermark", INT64_MIN},
      {"cq/cq_shared/eval_micros_count", 3},
      {"cq/cq_shared/is_shared", 1},
      {"cq/cq_shared/rows_emitted", 4},
      {"cq/cq_shared/windows_closed", 3},
      {"engine/runtime/channels", 1},
      {"engine/runtime/cqs", 3},
      {"engine/runtime/cqs_generic", 1},
      {"engine/runtime/cqs_shared", 2},
      {"engine/runtime/rows_ingested", 7},
      {"engine/runtime/shared_pipelines", 2},
      {"engine/runtime/streams", 3},
      {"overload/governor/bytes_budget", 0},
      {"overload/per_min/blocked_micros", 0},
      {"overload/per_min/rows_admitted", 0},
      {"overload/per_min/rows_quarantined", 0},
      {"overload/per_min/rows_shed", 0},
      {"overload/quarantine/rows_dropped", 0},
      {"overload/retry/exhausted", 0},
      {"overload/retry/retries", 0},
      {"overload/s/blocked_micros", 0},
      {"overload/s/rows_admitted", 5},
      {"overload/s/rows_quarantined", 1},
      {"overload/s/rows_shed", 0},
      {"overload/s.__quarantine/blocked_micros", 0},
      {"overload/s.__quarantine/rows_admitted", 1},
      {"overload/s.__quarantine/rows_quarantined", 0},
      {"overload/s.__quarantine/rows_shed", 0},
      {"recovery/faults/crashes", 0},
      {"recovery/faults/fires", 0},
      {"recovery/faults/hits", 0},
      {"recovery/wal/corrupt_tails", 0},
      {"recovery/wal/midlog_corruptions", 0},
      {"recovery/wal/replays", 1},
      {"recovery/wal/rows_replayed", 3},
      {"recovery/wal/torn_tails", 0},
      {"recovery/wal/txns_replayed", 2},
      {"repl/standby/applied_bytes", 0},
      {"repl/standby/applied_records", 0},
      {"repl/standby/applies", 0},
      {"repl/standby/apply_errors", 0},
      {"repl/standby/role", 0},
      {"stream/per_min/batches_published", 1},
      {"stream/per_min/channels", 1},
      {"stream/per_min/client_subscriptions", 0},
      {"stream/per_min/cq_subscriptions", 0},
      {"stream/per_min/rows_ingested", 0},
      {"stream/per_min/rows_published", 2},
      {"stream/per_min/watermark", 3 * kMin},
      {"stream/s/batches_published", 0},
      {"stream/s/channels", 0},
      {"stream/s/client_subscriptions", 0},
      {"stream/s/cq_subscriptions", 3},
      {"stream/s/rows_ingested", 5},
      {"stream/s/rows_published", 0},
      {"stream/s/watermark", 185 * kSec},
      {"stream/s.__quarantine/batches_published", 0},
      {"stream/s.__quarantine/channels", 0},
      {"stream/s.__quarantine/client_subscriptions", 0},
      {"stream/s.__quarantine/cq_subscriptions", 0},
      {"stream/s.__quarantine/rows_ingested", 1},
      {"stream/s.__quarantine/rows_published", 0},
      {"stream/s.__quarantine/watermark", 145 * kSec},
  };
  for (const auto& [triple, want] : kValues) {
    ASSERT_EQ(values.count(triple), 1u) << triple;
    EXPECT_EQ(values[triple], want) << triple;
  }
}

}  // namespace
}  // namespace streamrel::stream
