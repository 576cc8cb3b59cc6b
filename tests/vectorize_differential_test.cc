// Differential testing for the columnar ingest hot path: the same
// randomized workload is replayed with every CQ on the shared strategy
// (batch-at-a-time slice absorption, windows replayed from the timestamp
// array) and with the same SQL created allow_shared=false (the generic
// evaluator, which buffers each admitted row and re-evaluates the full
// plan at every close). Every observable output — each CQ's per-window
// delivery (close time, row contents, row order), channel-fed
// active-table state, quarantine-stream contents, and admission counters
// — must be byte-identical across the two runs. Workloads mix CQTIME USER
// and CQTIME SYSTEM streams, out-of-order arrivals through a
// reorder-buffer slack, row-vector and columnar (ColumnBatch) ingest,
// malformed rows in both forms (including a row-vector batch that mixes
// good rows with a wrong-arity one), and on some seeds a generic CQ that
// is created and dropped mid-stream, which switches the shared run's
// stream between batch steps and per-row steps.

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
               const std::string& sql, bool shared, Transcript* out) {
  auto cq = db->CreateContinuousQuery(name, sql, shared);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_EQ((*cq)->is_shared(), shared) << sql;
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

/// Replays the seed's workload. `shared` picks the strategy of the
/// captured CQs: the run under test shares, the reference creates the
/// same SQL allow_shared=false. Void so ASSERT_* can abort the run; check
/// HasFatalFailure() after calling.
void RunWorkload(int seed, bool shared, Transcript* transcript) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 29);
  Transcript& out = *transcript;
  engine::Database db;

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
  // group order must reproduce the reference's first-arrival order
  // (group-id resolution order is part of the batch kernels' contract).
  CaptureCq(&db, "cq_url",
            "SELECT url, count(*), sum(bytes), min(bytes), max(bytes) "
            "FROM clicks <VISIBLE '1 minute' ADVANCE '20 seconds'> "
            "GROUP BY url ORDER BY url",
            shared, &out);
  if (::testing::Test::HasFatalFailure()) return;
  CaptureCq(&db, "cq_url_unordered",
            "SELECT url, count(*) "
            "FROM clicks <VISIBLE '1 minute' ADVANCE '20 seconds'> "
            "GROUP BY url",
            shared, &out);
  // Scalar aggregate (no group key) and a filtered CQ whose WHERE clause
  // compiles to a selection-vector kernel.
  CaptureCq(&db, "cq_total",
            "SELECT count(*), sum(bytes) FROM clicks <VISIBLE '1 minute'>",
            shared, &out);
  const int64_t threshold = static_cast<int64_t>(rng() % 800);
  CaptureCq(&db, "cq_big",
            "SELECT url, count(*) FROM clicks <VISIBLE '40 seconds'> "
            "WHERE bytes > " + std::to_string(threshold) +
            " GROUP BY url ORDER BY url",
            shared, &out);
  // A LIKE filter (string kernel) and an avg (merged as sum+count).
  CaptureCq(&db, "cq_host",
            "SELECT host, count(*), sum(cpu), avg(cpu) "
            "FROM sysload <VISIBLE '30 seconds'> "
            "WHERE host LIKE 'h%' GROUP BY host ORDER BY host",
            shared, &out);
  CaptureCq(&db, "cq_events",
            "SELECT kind, count(*), sum(n) "
            "FROM events <VISIBLE '45 seconds' ADVANCE '15 seconds'> "
            "GROUP BY kind ORDER BY kind",
            shared, &out);
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
  // On some seeds a generic CQ (a time window or a ROWS window) lives on
  // clicks for the middle third of the run, in both runs alike.
  const uint32_t midstream = rng() % 6;
  const char* mid_sql =
      midstream == 0
          ? "SELECT url, count(*), max(bytes) FROM clicks "
            "<VISIBLE '30 seconds' ADVANCE '10 seconds'> "
            "GROUP BY url ORDER BY url"
          : "SELECT count(*), sum(bytes) FROM clicks "
            "<VISIBLE 5 ROWS ADVANCE 3 ROWS>";

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
    // batches carry a wrong-arity row between good rows: it is kept torn
    // in the batch and quarantines in place.
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

    // While the mid-stream generic CQ lives, the shared run's clicks
    // ingest steps every row; the pipelines still absorb each run of rows
    // between shared closes in one call. Its own deliveries are part of
    // the transcript.
    if (midstream < 2 && i == n_clicks / 3) {
      CaptureCq(&db, "cq_mid", mid_sql, /*shared=*/false, &out);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (midstream < 2 && i == (2 * n_clicks) / 3) {
      ASSERT_TRUE(db.DropContinuousQuery("cq_mid").ok());
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
}

class VectorizeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(VectorizeDifferentialTest, SharedRunMatchesGenericReference) {
  const int seed = GetParam();
  SCOPED_TRACE("failing seed: " + std::to_string(seed));
  Transcript reference;
  RunWorkload(seed, /*shared=*/false, &reference);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(reference.events.empty());
  Transcript shared;
  RunWorkload(seed, /*shared=*/true, &shared);
  if (HasFatalFailure()) return;
  EXPECT_EQ(reference.events, shared.events);
  EXPECT_EQ(reference.archive, shared.archive);
}

// 200 seeds: the acceptance bar for the columnar hot path. Each seed
// varies row counts, timestamps, reorder slack, filter thresholds, the
// row/columnar ingest mix, malformed-row shapes, and whether (and which)
// generic CQ joins clicks mid-stream.
INSTANTIATE_TEST_SUITE_P(Seeds, VectorizeDifferentialTest,
                         ::testing::Range(0, 200));

// A ROWS window beside a shared CQ: the ROWS CQ sees every row of a batch
// at its own step (a close every ADVANCE rows, stamped with the newest
// row's time) while the shared pipeline absorbs the batch whole.
TEST(RowFedSubscriptionTest, RowsWindowSeesEveryRowOfOneBatch) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (url varchar, ts timestamp CQTIME USER)");
  Transcript out;
  CaptureCq(&db, "per_min",
            "SELECT count(*) FROM s <VISIBLE '1 minute'>", /*shared=*/true,
            &out);
  CaptureCq(&db, "last10", "SELECT count(*) FROM s <VISIBLE 10 ROWS>",
            /*shared=*/false, &out);
  if (HasFatalFailure()) return;
  std::vector<Row> rows;
  for (int i = 1; i <= 25; ++i) {
    rows.push_back(
        Row{Value::String("u" + std::to_string(i % 3)),
            Value::Timestamp(i * 3 * kSec)});
  }
  ASSERT_TRUE(db.Ingest("s", rows).ok());
  // Row 20 (60 s) closes the first minute over the 19 rows before it and,
  // at the same step and after it in creation order, the second ROWS
  // window.
  EXPECT_EQ(out.events,
            (std::vector<std::string>{
                "last10@" + std::to_string(30 * kSec) + ": (10)",
                "per_min@" + std::to_string(60 * kSec) + ": (19)",
                "last10@" + std::to_string(60 * kSec) + ": (10)"}));
}

}  // namespace
}  // namespace streamrel
