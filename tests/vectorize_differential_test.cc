// Vectorized-vs-row-at-a-time differential testing for the columnar ingest
// hot path: the same randomized workload is replayed with VECTORIZE OFF
// (the row-at-a-time oracle) and with VECTORIZE ON, and every observable
// output — each CQ's per-window delivery (close time, row contents, row
// order), channel-fed active-table state, quarantine-stream contents, and
// admission counters — must be byte-identical across the two runs.
// Workloads mix CQTIME USER and CQTIME SYSTEM streams, out-of-order
// arrivals through a reorder-buffer slack, row-vector and columnar
// (ColumnBatch) ingest, malformed rows on both paths (including a
// row-vector batch that mixes good rows with a wrong-arity one), and
// mid-stream VECTORIZE toggles.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/time.h"
#include "exec/column_batch.h"
#include "stream/reorder_buffer.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;

/// Everything observable from one workload run, rendered to strings.
struct Transcript {
  std::vector<std::string> events;   // CQ deliveries, in delivery order
  std::vector<std::string> archive;  // final active-table contents
};

void CaptureCq(engine::Database* db, const std::string& name,
               const std::string& sql, Transcript* out) {
  auto cq = db->CreateContinuousQuery(name, sql);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  (*cq)->AddCallback(
      [out, name](int64_t close, const std::vector<Row>& rows) {
        for (const Row& row : rows) {
          out->events.push_back(name + "@" + std::to_string(close) + ": " +
                                RowToString(row));
        }
        return Status::OK();
      });
}

void CaptureQuarantine(engine::Database* db, const std::string& stream,
                       Transcript* out) {
  ASSERT_TRUE(db->runtime()->EnsureQuarantineStream(stream).ok());
  ASSERT_TRUE(db->runtime()
                  ->SubscribeStream(
                      stream::StreamRuntime::QuarantineName(stream),
                      [out, stream](int64_t, const std::vector<Row>& rows) {
                        for (const Row& row : rows) {
                          out->events.push_back(stream + " quarantine: " +
                                                RowToString(row));
                        }
                        return Status::OK();
                      })
                  .ok());
}

/// Replays the seed's workload. `vectorize` picks the ingest path under
/// test; the OFF run is the row-at-a-time oracle. Void so ASSERT_* can
/// abort the run; check HasFatalFailure() after calling.
void RunWorkload(int seed, bool vectorize, Transcript* transcript) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 29);
  Transcript& out = *transcript;
  engine::Database db;

  MustExecute(&db, vectorize ? "SET VECTORIZE ON" : "SET VECTORIZE OFF");

  MustExecute(&db,
              "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER, "
              "bytes bigint)");
  MustExecute(&db,
              "CREATE STREAM sysload (ts timestamp CQTIME SYSTEM, "
              "host varchar, cpu bigint)");
  // Columnar-only USER-time stream: ingested exclusively via ColumnBatch,
  // with malformed rows that must quarantine identically on both paths.
  MustExecute(&db,
              "CREATE STREAM events (ts timestamp CQTIME USER, kind varchar, "
              "n bigint)");

  // Two CQs sharing one slice pipeline; the second has no ORDER BY, so its
  // group order must reproduce the oracle's first-arrival order (group-id
  // resolution order is part of the vectorized kernels' contract).
  CaptureCq(&db, "cq_url",
            "SELECT url, count(*), sum(bytes), min(bytes), max(bytes) "
            "FROM clicks <VISIBLE '1 minute' ADVANCE '20 seconds'> "
            "GROUP BY url ORDER BY url",
            &out);
  if (::testing::Test::HasFatalFailure()) return;
  CaptureCq(&db, "cq_url_unordered",
            "SELECT url, count(*) "
            "FROM clicks <VISIBLE '1 minute' ADVANCE '20 seconds'> "
            "GROUP BY url",
            &out);
  // Scalar aggregate (no group key) and a filtered CQ whose WHERE clause
  // compiles to a selection-vector kernel.
  CaptureCq(&db, "cq_total",
            "SELECT count(*), sum(bytes) FROM clicks <VISIBLE '1 minute'>",
            &out);
  const int64_t threshold = static_cast<int64_t>(rng() % 800);
  CaptureCq(&db, "cq_big",
            "SELECT url, count(*) FROM clicks <VISIBLE '40 seconds'> "
            "WHERE bytes > " + std::to_string(threshold) +
            " GROUP BY url ORDER BY url",
            &out);
  // A LIKE filter (string kernel) and an avg (merged as sum+count).
  CaptureCq(&db, "cq_host",
            "SELECT host, count(*), sum(cpu), avg(cpu) "
            "FROM sysload <VISIBLE '30 seconds'> "
            "WHERE host LIKE 'h%' GROUP BY host ORDER BY host",
            &out);
  CaptureCq(&db, "cq_events",
            "SELECT kind, count(*), sum(n) "
            "FROM events <VISIBLE '45 seconds' ADVANCE '15 seconds'> "
            "GROUP BY kind ORDER BY kind",
            &out);
  if (::testing::Test::HasFatalFailure()) return;

  // Channel: derived per-minute counts flow into an active table.
  MustExecute(&db,
              "CREATE STREAM url_counts AS SELECT url, count(*) AS c, "
              "cq_close(*) AS w FROM clicks <VISIBLE '1 minute'> "
              "GROUP BY url");
  MustExecute(&db,
              "CREATE TABLE archive (url varchar, c bigint, w timestamp)");
  MustExecute(&db, "CREATE CHANNEL ch FROM url_counts INTO archive APPEND");

  CaptureQuarantine(&db, "clicks", &out);
  CaptureQuarantine(&db, "sysload", &out);
  CaptureQuarantine(&db, "events", &out);
  if (::testing::Test::HasFatalFailure()) return;

  // Clicks arrive nearly ordered; a slack buffer restores order before
  // ingest, exactly as a real collector front-end would.
  const int64_t slack = (10 + static_cast<int64_t>(rng() % 10)) * kSec;
  stream::ReorderBuffer reorder(
      slack, [&db](const std::vector<Row>& ordered) {
        return db.Ingest("clicks", ordered);
      });

  const int n_clicks = 80 + static_cast<int>(rng() % 80);
  const int n_sys_batches = 25 + static_cast<int>(rng() % 20);
  const bool toggle_midstream = rng() % 3 == 0;

  int64_t click_base = 5 * kSec;
  int64_t sys_time = 2 * kSec;
  int64_t event_time = 3 * kSec;
  int sys_sent = 0;
  for (int i = 0; i < n_clicks; ++i) {
    click_base += static_cast<int64_t>(rng() % (4 * kSec));
    int64_t jitter = static_cast<int64_t>(rng() % (8 * kSec));
    int64_t ts = std::max<int64_t>(0, click_base - jitter);
    Row row{Value::String("u" + std::to_string(rng() % 7)),
            Value::Timestamp(ts),
            Value::Int64(static_cast<int64_t>(rng() % 1000))};
    Status pushed = reorder.Push(ts, std::move(row));
    ASSERT_TRUE(pushed.ok()) << pushed.ToString();

    // Malformed rows on the row path: wrong arity, NULL CQTIME, mis-typed
    // CQTIME. Quarantined, never an error, never perturbs admitted output.
    if (rng() % 9 == 0) {
      Row bad;
      switch (rng() % 3) {
        case 0:
          bad = Row{Value::String("torn")};
          break;
        case 1:
          bad = Row{Value::String("u1"), Value::Null(), Value::Int64(1)};
          break;
        default:
          bad = Row{Value::String("u2"), Value::String("not-a-time"),
                    Value::Int64(2)};
          break;
      }
      Status st = db.Ingest("clicks", {std::move(bad)});
      ASSERT_TRUE(st.ok()) << st.ToString();
    }

    // System-time batches alternate row-vector and columnar ingest; the
    // two forms must be indistinguishable downstream. Some row-vector
    // batches carry a wrong-arity row between good rows: the whole batch
    // then takes the row body, and the torn row quarantines in place.
    if (rng() % 3 == 0 && sys_sent < n_sys_batches) {
      sys_time += static_cast<int64_t>(rng() % (3 * kSec));
      const int batch_rows = 1 + static_cast<int>(rng() % 4);
      const bool columnar = rng() % 2 == 0;
      std::vector<Row> batch;
      for (int b = 0; b < batch_rows; ++b) {
        batch.push_back(Row{Value::Null(),
                            Value::String("h" + std::to_string(rng() % 4)),
                            Value::Int64(static_cast<int64_t>(rng() % 100))});
      }
      const bool torn = !columnar && batch_rows >= 2 && rng() % 3 == 0;
      if (torn) {
        const auto at = 1 + static_cast<int>(rng() % (batch_rows - 1));
        batch.insert(batch.begin() + at,
                     Row{Value::String("torn-h"), Value::Int64(1)});
      }
      const int64_t fallbacks = db.runtime()->vectorize_fallbacks();
      Status st;
      if (columnar) {
        exec::ColumnBatch cb(3);
        cb.Reserve(batch.size());
        for (const Row& r : batch) cb.AppendRow(r);
        st = db.Ingest("sysload", std::move(cb), sys_time);
      } else {
        st = db.Ingest("sysload", batch, sys_time);
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (torn && db.runtime()->vectorize()) {
        // The partly good batch took the row body whole.
        EXPECT_EQ(db.runtime()->vectorize_fallbacks(), fallbacks + 1);
      }
      ++sys_sent;
    }

    // Columnar USER-time batches with embedded malformed rows: NULL
    // CQTIME, mis-typed CQTIME, and late (pre-watermark) rows all divert
    // to the quarantine stream from inside the columnar pass.
    if (rng() % 4 == 0) {
      event_time += static_cast<int64_t>(rng() % (5 * kSec));
      exec::ColumnBatch cb(3);
      const int batch_rows = 1 + static_cast<int>(rng() % 5);
      int64_t t = event_time;
      for (int b = 0; b < batch_rows; ++b) {
        const uint32_t shape = rng() % 8;
        if (shape == 0) {
          cb.AppendNull(0);
        } else if (shape == 1) {
          cb.AppendString(0, "bogus");
        } else if (shape == 2) {
          cb.AppendTimestamp(0, std::max<int64_t>(0, t - 90 * kSec));
        } else {
          t += static_cast<int64_t>(rng() % kSec);
          cb.AppendTimestamp(0, t);
        }
        cb.AppendString(1, "k" + std::to_string(rng() % 3));
        cb.AppendInt64(2, static_cast<int64_t>(rng() % 50));
        cb.CommitRow();
      }
      event_time = t;
      Status st = db.Ingest("events", std::move(cb));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }

    // Mid-stream toggle on some seeds: flipping VECTORIZE while pipelines
    // hold live window state must be transcript-invisible.
    if (toggle_midstream && i == n_clicks / 2) {
      MustExecute(&db, vectorize ? "SET VECTORIZE OFF" : "SET VECTORIZE ON");
    }
    if (toggle_midstream && i == (2 * n_clicks) / 3) {
      MustExecute(&db, vectorize ? "SET VECTORIZE ON" : "SET VECTORIZE OFF");
    }
  }
  ASSERT_TRUE(reorder.Flush().ok());

  // Close every trailing window on all three streams.
  const int64_t end = click_base + 2 * kMicrosPerMinute;
  ASSERT_TRUE(db.AdvanceTime("clicks", end).ok());
  ASSERT_TRUE(db.AdvanceTime("sysload", sys_time + kMicrosPerMinute).ok());
  ASSERT_TRUE(db.AdvanceTime("events", event_time + kMicrosPerMinute).ok());

  out.archive =
      RowStrings(MustExecute(&db, "SELECT url, c, w FROM archive "
                                  "ORDER BY w, url"));

  // Admission accounting is part of the observable surface too.
  for (const char* stream : {"clicks", "sysload", "events"}) {
    auto counters = db.runtime()->overload_counters(stream);
    out.events.push_back(
        std::string(stream) +
        " admitted=" + std::to_string(counters.rows_admitted) +
        " quarantined=" + std::to_string(counters.rows_quarantined) +
        " shed=" + std::to_string(counters.rows_shed));
  }

  // The run under test must actually exercise the columnar path:
  // VECTORIZE ON runs vectorize every eligible batch.
  if (vectorize && !toggle_midstream) {
    EXPECT_GT(db.runtime()->vectorized_batches(), 0);
    EXPECT_GT(db.runtime()->vectorized_rows(), 0);
  }
  if (!vectorize && !toggle_midstream) {
    EXPECT_EQ(db.runtime()->vectorized_batches(), 0);
  }
}

class VectorizeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(VectorizeDifferentialTest, VectorizedAndRowRunsAgree) {
  const int seed = GetParam();
  SCOPED_TRACE("failing seed: " + std::to_string(seed));
  Transcript oracle;
  RunWorkload(seed, /*vectorize=*/false, &oracle);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(oracle.events.empty());
  Transcript vectorized;
  RunWorkload(seed, /*vectorize=*/true, &vectorized);
  if (HasFatalFailure()) return;
  EXPECT_EQ(oracle.events, vectorized.events);
  EXPECT_EQ(oracle.archive, vectorized.archive);
}

// 200 seeds: the acceptance bar for the vectorized hot path. Each seed
// varies row counts, timestamps, reorder slack, filter thresholds, the
// row/columnar ingest mix, malformed-row shapes, and whether VECTORIZE is
// toggled mid-stream.
INSTANTIATE_TEST_SUITE_P(Seeds, VectorizeDifferentialTest,
                         ::testing::Range(0, 200));

TEST(SetVectorizeTest, ParsesTogglesAndRejectsGarbage) {
  engine::Database db;
  EXPECT_TRUE(db.runtime()->vectorize()) << "vectorize must default ON";
  MustExecute(&db, "SET VECTORIZE OFF");
  EXPECT_FALSE(db.runtime()->vectorize());
  MustExecute(&db, "SET VECTORIZE ON");
  EXPECT_TRUE(db.runtime()->vectorize());
  EXPECT_FALSE(db.Execute("SET VECTORIZE MAYBE").ok());
  EXPECT_FALSE(db.Execute("SET VECTORIZE 1").ok());
}

TEST(SetVectorizeTest, CountersSurfaceInShowStats) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (url varchar, ts timestamp CQTIME USER)");
  auto cq = db.CreateContinuousQuery(
      "c", "SELECT url, count(*) FROM s <VISIBLE '1 minute'> GROUP BY url");
  ASSERT_TRUE(cq.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Ingest("s", {Row{Value::String("u" + std::to_string(i % 5)),
                                    Value::Timestamp(i * kSec)}})
                    .ok());
  }
  EXPECT_GT(db.runtime()->vectorized_batches(), 0);
  EXPECT_GT(db.runtime()->vectorized_rows(), 0);

  auto stats = MustExecute(&db, "SHOW STATS");
  bool saw_enabled = false, saw_batches = false, saw_rows = false,
       saw_fallbacks = false;
  for (const Row& row : stats.rows) {
    if (row[0].AsString() != "engine" ||
        row[1].AsString() != "vectorize") {
      continue;
    }
    if (row[2].AsString() == "enabled") {
      saw_enabled = true;
      EXPECT_EQ(row[3].AsInt64(), 1);
    }
    if (row[2].AsString() == "batches") {
      saw_batches = true;
      EXPECT_EQ(row[3].AsInt64(), db.runtime()->vectorized_batches());
    }
    if (row[2].AsString() == "rows") {
      saw_rows = true;
      EXPECT_EQ(row[3].AsInt64(), 40);
    }
    if (row[2].AsString() == "fallbacks") saw_fallbacks = true;
  }
  EXPECT_TRUE(saw_enabled);
  EXPECT_TRUE(saw_batches);
  EXPECT_TRUE(saw_rows);
  EXPECT_TRUE(saw_fallbacks);

  // A raw-row feed (sliding count window) makes the stream ineligible; the
  // attempt is counted as a fallback, and the output is unchanged.
  auto sliding = db.CreateContinuousQuery(
      "c2", "SELECT count(*) FROM s <VISIBLE 10 ROWS ADVANCE 10 ROWS>");
  ASSERT_TRUE(sliding.ok());
  const int64_t before = db.runtime()->vectorize_fallbacks();
  ASSERT_TRUE(db.Ingest("s", {Row{Value::String("u0"),
                                  Value::Timestamp(100 * kSec)}})
                  .ok());
  EXPECT_GT(db.runtime()->vectorize_fallbacks(), before);
}

}  // namespace
}  // namespace streamrel
