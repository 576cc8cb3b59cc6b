// Concurrency stress: multiple producer threads hammer Ingest on separate
// streams while a control thread concurrently runs SHOW STATS, drops and
// re-creates a CQ, and runs SET statements. Under the engine's
// reader-writer lock hierarchy (DESIGN decision 11) the producers run
// concurrently — each under the shared engine lock plus its own stream's
// ingest lock — while DDL/SET statements serialize exclusively. The suite
// must show no data races (run under TSAN via scripts/sanitize.sh thread),
// no crashes, no lost rows, and — in the differential test — results
// byte-identical to a serial oracle. Timestamps are logical, so every test
// is deterministic in outcome even though thread interleaving is not.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"
#include "exec/column_batch.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;

TEST(ConcurrencyStressTest, IngestVsControlPlane) {
  constexpr int kProducers = 3;
  constexpr int kBatchesPerProducer = 60;
  constexpr int kRowsPerBatch = 8;

  engine::Database db;
  for (int p = 0; p < kProducers; ++p) {
    MustExecute(&db, "CREATE STREAM s" + std::to_string(p) +
                         " (url varchar, ts timestamp CQTIME USER, "
                         "bytes bigint)");
  }
  // One long-lived CQ per stream (stays up for the whole run) plus one
  // churn CQ on s0 that the control thread drops and re-creates.
  for (int p = 0; p < kProducers; ++p) {
    auto cq = db.CreateContinuousQuery(
        "keep" + std::to_string(p),
        "SELECT url, count(*), sum(bytes) FROM s" + std::to_string(p) +
            " <VISIBLE '1 minute'> GROUP BY url");
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  }

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&db, &record_failure, p]() {
      const std::string stream = "s" + std::to_string(p);
      int64_t ts = 0;
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<Row> rows;
        rows.reserve(kRowsPerBatch);
        for (int r = 0; r < kRowsPerBatch; ++r) {
          ts += kSec;
          rows.push_back(Row{Value::String("u" + std::to_string(r % 4)),
                             Value::Timestamp(ts),
                             Value::Int64(b * kRowsPerBatch + r)});
        }
        record_failure(db.Ingest(stream, rows));
      }
    });
  }

  std::thread control([&db, &record_failure]() {
    for (int i = 0; i < 40; ++i) {
      // SHOW STATS walks every metric (and refreshes pull gauges) while
      // producers are mid-flight.
      auto stats = db.Execute("SHOW STATS");
      record_failure(stats.status());

      // Churn a CQ on s0: create, then drop. Either call may interleave
      // anywhere between producer batches. It alternates between shared
      // and generic, so s0's ingest switches between batch steps and
      // per-row steps.
      auto churn = db.CreateContinuousQuery(
          "churn", "SELECT count(*) FROM s0 <VISIBLE '30 seconds'>",
          /*allow_shared=*/i % 2 == 0);
      if (churn.ok()) {
        record_failure(db.DropContinuousQuery("churn"));
      } else {
        record_failure(churn.status());
      }
    }
  });

  for (std::thread& t : producers) t.join();
  control.join();
  ASSERT_FALSE(failed.load());

  // No rows were lost: each stream absorbed every batch.
  auto stats = db.StatsSnapshot();
  const int64_t expected = kBatchesPerProducer * kRowsPerBatch;
  for (int p = 0; p < kProducers; ++p) {
    const std::string name = "s" + std::to_string(p);
    bool found = false;
    for (const stream::MetricSample& sample : stats.metrics) {
      if (sample.scope == "stream" && sample.name == name &&
          sample.metric == "rows_ingested") {
        EXPECT_EQ(sample.value, expected) << name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << name;
  }
  EXPECT_EQ(db.runtime()->rows_ingested(), expected * kProducers);
}

// Columnar ingest under concurrent DDL/SET churn: producers push
// ColumnBatches (the wire-decode hot path) while a control thread runs
// SET MEMORY LIMIT, churns a CQ that alternates between shared and
// generic, and walks SHOW STATS.
// Step selection reads the stream's subscription shapes under the same
// locks as ingest, so TSAN (scripts/sanitize.sh thread) must see no
// races, and no rows may be lost in batch steps or per-row steps.
TEST(ConcurrencyStressTest, VectorizedIngestUnderDdl) {
  constexpr int kProducers = 3;
  constexpr int kBatchesPerProducer = 60;
  constexpr int kRowsPerBatch = 8;

  engine::Database db;
  for (int p = 0; p < kProducers; ++p) {
    MustExecute(&db, "CREATE STREAM v" + std::to_string(p) +
                         " (url varchar, ts timestamp CQTIME USER, "
                         "bytes bigint)");
    auto cq = db.CreateContinuousQuery(
        "vkeep" + std::to_string(p),
        "SELECT url, count(*), sum(bytes) FROM v" + std::to_string(p) +
            " <VISIBLE '1 minute'> WHERE bytes >= 0 GROUP BY url");
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  }

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&db, &record_failure, p]() {
      const std::string stream = "v" + std::to_string(p);
      int64_t ts = 0;
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        exec::ColumnBatch batch(3);
        batch.Reserve(kRowsPerBatch);
        for (int r = 0; r < kRowsPerBatch; ++r) {
          ts += kSec;
          batch.AppendString(0, "u" + std::to_string(r % 4));
          batch.AppendTimestamp(1, ts);
          batch.AppendInt64(2, b * kRowsPerBatch + r);
          batch.CommitRow();
        }
        record_failure(db.Ingest(stream, std::move(batch)));
      }
    });
  }

  std::thread control([&db, &record_failure]() {
    for (int i = 0; i < 40; ++i) {
      auto stats = db.Execute("SHOW STATS");
      record_failure(stats.status());

      // CQ churn on v0: a shared create/drop recompiles the stream's batch
      // kernels, a generic one switches v0 to per-row steps, while other
      // streams keep ingesting.
      auto churn = db.CreateContinuousQuery(
          "vchurn", "SELECT count(*) FROM v0 <VISIBLE '30 seconds'>",
          /*allow_shared=*/i % 2 == 0);
      if (churn.ok()) {
        record_failure(db.DropContinuousQuery("vchurn"));
      } else {
        record_failure(churn.status());
      }

      // One more exclusive statement between batches of live ingest (an
      // unlimited budget, so nothing is shed).
      record_failure(db.Execute("SET MEMORY LIMIT 0").status());
    }
  });

  for (std::thread& t : producers) t.join();
  control.join();
  ASSERT_FALSE(failed.load());

  const int64_t expected = kBatchesPerProducer * kRowsPerBatch;
  auto stats = db.StatsSnapshot();
  for (int p = 0; p < kProducers; ++p) {
    const std::string name = "v" + std::to_string(p);
    bool found = false;
    for (const stream::MetricSample& sample : stats.metrics) {
      if (sample.scope == "stream" && sample.name == name &&
          sample.metric == "rows_ingested") {
        EXPECT_EQ(sample.value, expected) << name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << name;
  }
  EXPECT_EQ(db.runtime()->rows_ingested(), expected * kProducers);
}

TEST(ConcurrencyStressTest, OverloadControlPlaneUnderIngest) {
  // Same shape as above, but the control thread also flips the memory
  // budget and per-stream overload policies while producers hammer Ingest.
  // The engine mutex serializes everything; the invariant checked at the
  // end is the admission identity (admitted + shed + quarantined ==
  // pushed) per stream — overload protection must never lose count, no
  // matter how the budget changes interleave.
  constexpr int kProducers = 3;
  constexpr int kBatchesPerProducer = 40;
  constexpr int kRowsPerBatch = 8;

  engine::Database db;
  for (int p = 0; p < kProducers; ++p) {
    MustExecute(&db, "CREATE STREAM s" + std::to_string(p) +
                         " (url varchar, ts timestamp CQTIME USER, "
                         "bytes bigint)");
    auto cq = db.CreateContinuousQuery(
        "hold" + std::to_string(p),
        "SELECT url, ts, bytes FROM s" + std::to_string(p) +
            " <VISIBLE '1 hour'>");
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  }
  db.runtime()->SetBlockTimeoutMicros(200);

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&db, &record_failure, p]() {
      const std::string stream = "s" + std::to_string(p);
      int64_t ts = 0;
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<Row> rows;
        rows.reserve(kRowsPerBatch);
        for (int r = 0; r < kRowsPerBatch; ++r) {
          ts += kSec;
          rows.push_back(Row{Value::String("u" + std::to_string(r % 4)),
                             Value::Timestamp(ts),
                             Value::Int64(b * kRowsPerBatch + r)});
        }
        record_failure(db.Ingest(stream, rows));
      }
    });
  }

  std::thread control([&db, &record_failure]() {
    const char* policies[] = {"BLOCK", "SHED_NEWEST", "SHED_OLDEST"};
    const int64_t budgets[] = {0, 8192, 65536};
    for (int i = 0; i < 40; ++i) {
      record_failure(db.Execute("SET MEMORY LIMIT " +
                                std::to_string(budgets[i % 3]))
                         .status());
      record_failure(db.Execute(std::string("SET OVERLOAD POLICY s") +
                                std::to_string(i % kProducers) + " " +
                                policies[i % 3])
                         .status());
      record_failure(db.Execute("SHOW STATS FOR OVERLOAD").status());
    }
  });

  for (std::thread& t : producers) t.join();
  control.join();
  ASSERT_FALSE(failed.load());

  const int64_t pushed = kBatchesPerProducer * kRowsPerBatch;
  for (int p = 0; p < kProducers; ++p) {
    auto counters =
        db.runtime()->overload_counters("s" + std::to_string(p));
    EXPECT_EQ(counters.rows_admitted + counters.rows_shed +
                  counters.rows_quarantined,
              pushed)
        << "s" << p;
  }
}

// Differential oracle for concurrent ingest: N disjoint stream pipelines
// (stream -> windowed GROUP BY CQ -> subscription) are fed the same
// deterministic batches twice — once from N parallel producer threads,
// once single-threaded in a fresh engine — and every delivered window
// close must be byte-identical between the two runs. Because the streams
// are disjoint, per-stream ingest order is the only order that matters;
// the per-stream ingest locks must therefore make the concurrent run
// indistinguishable from the serial one.
namespace oracle {

constexpr int kStreams = 4;
constexpr int kBatches = 30;
constexpr int kRowsPerBatch = 6;

// Deterministic batch `b` for stream `p`: user timestamps step 7s per row
// so windows of <VISIBLE '1 minute'> close every few batches.
std::vector<Row> MakeBatch(int p, int b) {
  std::vector<Row> rows;
  rows.reserve(kRowsPerBatch);
  for (int r = 0; r < kRowsPerBatch; ++r) {
    const int64_t ts =
        static_cast<int64_t>(b * kRowsPerBatch + r + 1) * 7 * kSec;
    rows.push_back(Row{Value::String("u" + std::to_string((p + b + r) % 5)),
                       Value::Timestamp(ts),
                       Value::Int64(p * 1'000'000 + b * 100 + r)});
  }
  return rows;
}

// Runs the N pipelines over the full batch schedule and returns, per
// stream, the rendered sequence of delivered window closes. `concurrent`
// picks one producer thread per stream vs. a single serial thread.
std::vector<std::vector<std::string>> RunPipelines(bool concurrent) {
  engine::Database db;
  for (int p = 0; p < kStreams; ++p) {
    const std::string n = std::to_string(p);
    MustExecute(&db, "CREATE STREAM d" + n +
                         " (url varchar, ts timestamp CQTIME USER, "
                         "bytes bigint)");
    auto cq = db.CreateContinuousQuery(
        "dagg" + n, "SELECT url, count(*), sum(bytes) FROM d" + n +
                        " <VISIBLE '1 minute'> GROUP BY url");
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  }

  // One capture per stream. A subscription callback fires on the thread
  // driving that stream's ingest while holding its ingest lock; with one
  // producer per stream each vector has exactly one writer, so the
  // captures need no locking of their own.
  std::vector<std::vector<std::string>> captured(kStreams);
  std::vector<engine::Database::SubscriptionTicket> tickets;
  for (int p = 0; p < kStreams; ++p) {
    auto ticket = db.Subscribe(
        "dagg" + std::to_string(p),
        [&captured, p](int64_t close, const std::vector<Row>& rows) {
          std::string event = "close=" + std::to_string(close) + ":";
          for (const Row& row : rows) event += " " + RowToString(row);
          captured[p].push_back(std::move(event));
          return Status::OK();
        });
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    if (ticket.ok()) tickets.push_back(*ticket);
  }

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };
  auto feed = [&db, &record_failure](int p) {
    for (int b = 0; b < kBatches; ++b) {
      record_failure(db.Ingest("d" + std::to_string(p), MakeBatch(p, b)));
    }
  };

  if (concurrent) {
    std::vector<std::thread> producers;
    producers.reserve(kStreams);
    for (int p = 0; p < kStreams; ++p) producers.emplace_back(feed, p);
    for (std::thread& t : producers) t.join();
  } else {
    for (int p = 0; p < kStreams; ++p) feed(p);
  }
  EXPECT_FALSE(failed.load());

  for (const auto& ticket : tickets) {
    EXPECT_TRUE(db.Unsubscribe(ticket).ok());
  }
  return captured;
}

}  // namespace oracle

TEST(ConcurrencyStressTest, ConcurrentIngestMatchesSerialOracle) {
  const auto parallel = oracle::RunPipelines(/*concurrent=*/true);
  const auto serial = oracle::RunPipelines(/*concurrent=*/false);
  ASSERT_EQ(parallel.size(), serial.size());
  for (int p = 0; p < oracle::kStreams; ++p) {
    // Each pipeline saw window closes: the schedule is built to close
    // windows many times per stream.
    EXPECT_GT(serial[p].size(), 3u) << "d" << p;
    // Byte-identical delivery: same closes, same rows, same order.
    EXPECT_EQ(parallel[p], serial[p]) << "d" << p;
  }
}

// Shared window closes under member churn: one producer ingests into a
// stream whose 16 shared CQs (4 distinct definitions x 4 copies) merge
// each window once and dedupe identical evaluations at every close, while
// one thread walks SHOW STATS and another creates and drops a 17th member
// of the same live pipeline. TSAN must see no race between the close
// memo, the pipeline's live-member count and the stats walk; copies of
// one definition must deliver identical transcripts.
TEST(ConcurrencyStressTest, SharedClosesUnderMemberChurn) {
  constexpr int kCqs = 16;
  constexpr int kBatches = 120;
  constexpr int kRowsPerBatch = 8;
  static const char* kAggSets[] = {
      "count(*)",
      "count(*), sum(bytes)",
      "count(*), min(bytes)",
      "count(*), max(bytes)",
  };
  const std::string window =
      " FROM sh <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url";

  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM sh (url varchar, ts timestamp CQTIME USER, "
              "bytes bigint)");
  std::vector<std::vector<std::string>> transcripts(kCqs);
  const stream::SliceAggregator* pipeline = nullptr;
  for (int i = 0; i < kCqs; ++i) {
    auto cq = db.CreateContinuousQuery(
        "sh" + std::to_string(i),
        std::string("SELECT url, ") + kAggSets[i % 4] + window);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    ASSERT_TRUE((*cq)->is_shared());
    pipeline = (*cq)->shared_aggregator();
    std::vector<std::string>* out = &transcripts[i];
    (*cq)->AddCallback([out](int64_t close, const std::vector<Row>& rows) {
      out->push_back("@" + std::to_string(close));
      for (const Row& row : rows) out->push_back(RowToString(row));
      return Status::OK();
    });
  }

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  std::thread producer([&db, &record_failure, &done]() {
    int64_t ts = 0;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Row> rows;
      rows.reserve(kRowsPerBatch);
      for (int r = 0; r < kRowsPerBatch; ++r) {
        ts += kSec;
        rows.push_back(Row{Value::String("u" + std::to_string((b + r) % 5)),
                           Value::Timestamp(ts),
                           Value::Int64((b * 7 + r * 3) % 50)});
      }
      record_failure(db.Ingest("sh", rows));
    }
    done.store(true);
  });
  std::thread stats([&db, &record_failure, &done]() {
    while (!done.load()) record_failure(db.Execute("SHOW STATS").status());
  });
  std::thread churn([&db, &record_failure, &window]() {
    for (int i = 0; i < 40; ++i) {
      // count(*) and max(bytes) are already in the live union, so the
      // churn CQ joins the running pipeline rather than starting one.
      auto cq = db.CreateContinuousQuery(
          "sh_churn", "SELECT url, count(*), max(bytes)" + window);
      record_failure(cq.status());
      if (cq.ok()) record_failure(db.DropContinuousQuery("sh_churn"));
    }
  });
  producer.join();
  stats.join();
  churn.join();
  ASSERT_FALSE(failed.load());

  int64_t member_closes = 0;
  for (int i = 0; i < kCqs; ++i) {
    EXPECT_FALSE(transcripts[i].empty()) << "sh" << i;
    EXPECT_EQ(transcripts[i], transcripts[i % 4]) << "sh" << i;
    member_closes +=
        db.runtime()->GetCq("sh" + std::to_string(i))->windows_evaluated();
  }
  EXPECT_EQ(pipeline->member_cqs(), kCqs);
  EXPECT_LT(pipeline->window_merges(), member_closes);
  EXPECT_GT(pipeline->evals_reused(), 0);
  EXPECT_EQ(db.runtime()->rows_ingested(), kBatches * kRowsPerBatch);
}

// Active-table reads under ingest and VACUUM, shaped like the report
// workload: two readers run per-URL history lookups (an index scan) and a
// top-N over a time range (an index range scan under GROUP BY, ORDER BY and
// LIMIT) on a channel table, while ingest commits one window per minute
// into small pages (every commit flushes tail pages) and a third thread
// runs VACUUM. Every answer must be snapshot-consistent: each minute's
// rows appear all together or not at all, and minutes commit in order.
TEST(ConcurrencyStressTest, ActiveTableReadsUnderIngestAndVacuum) {
  constexpr int kMinutes = 40;
  constexpr int kUrls = 8;
  constexpr int kFirst = 10;  // the top-N range holds minutes [10, 30)
  constexpr int kLast = 30;
  // Minute m's window writes one row per URL u with this count.
  auto count_of = [](int m, int u) { return (m * 5 + u * 3) % 7 + 1; };
  auto url = [](int u) { return "u" + std::to_string(u); };

  engine::DatabaseOptions options;
  options.heap_page_size = 256;
  engine::Database db(options);
  MustExecute(&db,
              "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
              "CREATE STREAM pm AS SELECT url, count(*) AS c, "
              "cq_close(*) AS t FROM s <VISIBLE '1 minute'> GROUP BY url;"
              "CREATE TABLE hist (url varchar, c bigint, t timestamp);"
              "CREATE INDEX hist_url ON hist (url);"
              "CREATE INDEX hist_t ON hist (t);"
              "CREATE CHANNEL hist_ch FROM pm INTO hist APPEND");

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  auto record_failure = [&failed](const std::string& what) {
    if (!failed.exchange(true)) ADD_FAILURE() << what;
  };

  std::atomic<int> answers{0};
  std::atomic<int> vacuums{0};
  std::thread producer([&] {
    for (int m = 0; m <= kMinutes; ++m) {
      // Pace the minutes by the other threads' progress, so reads and
      // vacuums interleave with every commit however the threads run.
      while (!failed.load() &&
             (answers.load() < 2 * m || vacuums.load() < m / 2)) {
        std::this_thread::yield();
      }
      std::vector<Row> rows;
      for (int u = 0; u < kUrls; ++u) {
        for (int i = 0; i < (m < kMinutes ? count_of(m, u) : 1); ++i) {
          rows.push_back(Row{Value::String(url(u)),
                             Value::Timestamp(m * kMicrosPerMinute +
                                              (u * 7 + i + 1) * kSec)});
        }
      }
      Status st = db.Ingest("s", rows);
      if (!st.ok()) record_failure(st.ToString());
    }
    done.store(true);
  });

  // A history answer is the first n minutes of one URL, in order.
  auto check_history = [&](int u, const engine::QueryResult& r) {
    for (size_t i = 0; i < r.rows.size(); ++i) {
      const int m = static_cast<int>(i);
      if (r.rows[i][0].AsInt64() != (m + 1) * kMicrosPerMinute ||
          r.rows[i][1].AsInt64() != count_of(m, u)) {
        record_failure("history of " + url(u) + " broken at row " +
                       std::to_string(i) + ": " + RowToString(r.rows[i]));
        return;
      }
    }
  };
  // A top-N answer is the top-N of the first p minutes of the range, for
  // some p.
  auto check_topn = [&](const engine::QueryResult& r) {
    for (int p = 0; p <= kLast - kFirst; ++p) {
      std::vector<std::pair<int64_t, std::string>> sums;
      for (int u = 0; p > 0 && u < kUrls; ++u) {
        int64_t n = 0;
        for (int m = kFirst; m < kFirst + p; ++m) n += count_of(m, u);
        sums.emplace_back(-n, url(u));
      }
      std::sort(sums.begin(), sums.end());
      if (sums.size() > 5) sums.resize(5);
      std::vector<std::string> want;
      for (const auto& [neg, name] : sums) {
        want.push_back(RowToString(Row{Value::String(name), Value::Int64(-neg)}));
      }
      if (RowStrings(r) == want) return;
    }
    std::string got;
    for (const std::string& row : RowStrings(r)) got += row + " ";
    record_failure("top-N matches no prefix of the range: " + got);
  };
  const std::string topn =
      "SELECT url, sum(c) AS n FROM hist WHERE t > timestamp '" +
      FormatTimestampMicros(kFirst * kMicrosPerMinute) +
      "' AND t <= timestamp '" +
      FormatTimestampMicros(kLast * kMicrosPerMinute) +
      "' GROUP BY url ORDER BY n DESC, url LIMIT 5";
  auto reader = [&](int seed) {
    for (int i = seed; !done.load() || i < seed + 4; ++i) {
      if (i % 2 == 0) {
        const int u = i % kUrls;
        auto r = db.Execute("SELECT t, c FROM hist WHERE url = '" + url(u) +
                            "' ORDER BY t");
        if (!r.ok()) return record_failure(r.status().ToString());
        check_history(u, *r);
      } else {
        auto r = db.Execute(topn);
        if (!r.ok()) return record_failure(r.status().ToString());
        check_topn(*r);
      }
      answers.fetch_add(1);
    }
  };
  std::thread reader_a(reader, 0);
  std::thread reader_b(reader, 1);
  std::thread vacuum([&] {
    while (!done.load()) {
      auto r = db.Execute("VACUUM hist");
      if (!r.ok() || r->message != "VACUUM 0") {
        return record_failure(r.ok() ? r->message : r.status().ToString());
      }
      vacuums.fetch_add(1);
    }
  });
  producer.join();
  reader_a.join();
  reader_b.join();
  vacuum.join();
  ASSERT_FALSE(failed.load());
  EXPECT_GE(answers.load(), 2 * kMinutes);
  // Every minute committed: the final answers are complete.
  for (int u = 0; u < kUrls; ++u) {
    auto r = MustExecute(&db, "SELECT t, c FROM hist WHERE url = '" +
                                  url(u) + "' ORDER BY t");
    EXPECT_EQ(r.rows.size(), static_cast<size_t>(kMinutes));
    check_history(u, r);
  }
  EXPECT_GT(db.disk()->stats().page_writes, kMinutes);
  ASSERT_FALSE(failed.load());
}


// the stats snapshot after a concurrent run: the shared tier counts every
// data-plane entry, the exclusive tier counts DDL, and the stream tier
// counts per-stream ingest acquisitions.
TEST(ConcurrencyStressTest, LockGaugesExposed) {
  engine::Database db;
  MustExecute(&db, "CREATE STREAM g (v bigint, ts timestamp CQTIME USER)");
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&db]() {
      for (int b = 0; b < 10; ++b) {
        std::vector<Row> rows;
        for (int r = 0; r < 4; ++r) {
          rows.push_back(Row{Value::Int64(r),
                             Value::Timestamp((b * 4 + r + 1) * kSec)});
        }
        EXPECT_TRUE(db.Ingest("g", rows).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();

  auto stats = db.StatsSnapshot();
  auto gauge = [&stats](const std::string& metric) -> int64_t {
    for (const stream::MetricSample& sample : stats.metrics) {
      if (sample.scope == "engine" && sample.name == "lock" &&
          sample.metric == metric) {
        return sample.value;
      }
    }
    ADD_FAILURE() << "missing engine/lock gauge: " << metric;
    return -1;
  };
  EXPECT_GT(gauge("shared_acquisitions"), 0);
  EXPECT_GT(gauge("exclusive_acquisitions"), 0);  // the CREATE STREAM
  EXPECT_GT(gauge("stream_acquisitions"), 0);
  // Present even when never contended.
  EXPECT_GE(gauge("shared_contended"), 0);
  EXPECT_GE(gauge("exclusive_wait_micros"), 0);
  EXPECT_GE(gauge("sys_acquisitions"), 0);
  EXPECT_GE(gauge("dml_acquisitions"), 0);
}

// Many concurrent network clients against one server: per-client stream
// pipelines with live subscriptions, binary ingest, and a stats reader,
// all multiplexed over the single event loop while deliveries fan out
// from inside the engine. Run under TSAN via scripts/sanitize.sh thread
// to watch the loop-thread / delivery-thread handoff on the send queues.
// Deterministic in outcome: every subscriber must see every window close
// of its own pipeline, in order, and the push accounting must balance.
// WAL shipping concurrent with ingest and DDL (the `ha` label's TSAN
// case): a hot standby's fetch loop drains the primary's synced WAL over
// the real wire protocol while producers ingest through a windowed
// channel, a DML thread writes logged transactions, and a control thread
// churns a CQ that alternates between shared and generic and walks SHOW
// STATS. ReadSynced on the primary and AppendShipped/apply on the standby
// must be race-free against all of it, and after the dust settles the
// promoted standby must hold exactly the primary's durable tables.
TEST(ConcurrencyStressTest, WalShippingConcurrentWithIngestAndDdl) {
  const char* kHaDdl =
      "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER, "
      "bytes bigint);"
      "CREATE STREAM url_counts AS SELECT url, count(*) AS c, "
      "cq_close(*) AS w FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE CHANNEL arch_ch FROM url_counts INTO archive APPEND;"
      "CREATE TABLE audit (id bigint, note varchar)";

  engine::Database primary;
  MustExecute(&primary, kHaDdl);
  net::ServerOptions popts;
  net::Server pserver(&primary, popts);
  ASSERT_TRUE(pserver.Start().ok());

  engine::Database standby;
  MustExecute(&standby, kHaDdl);
  net::StandbyOptions ropts;
  ropts.poll_interval_micros = 200;
  net::StandbyReplica replica(&standby, "127.0.0.1", pserver.port(), ropts);
  standby.SetPromotionHandler([&replica] { return replica.Stop(); });
  ASSERT_TRUE(replica.Start().ok());

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  // Producer: windowed ingest driving channel archives (shipped WAL).
  std::thread producer([&primary, &record_failure]() {
    int64_t sec = 5;
    for (int b = 0; b < 50; ++b) {
      std::vector<Row> rows;
      for (int r = 0; r < 4; ++r) {
        sec += 3;
        rows.push_back(Row{Value::String("u" + std::to_string(r)),
                           Value::Timestamp(sec * kSec + 777),
                           Value::Int64(b)});
      }
      record_failure(primary.Ingest("clicks", rows));
      if (b % 10 == 9) {
        record_failure(
            primary.AdvanceTime("clicks", (sec / 60 + 1) * 60 * kSec));
      }
    }
  });
  // DML: plain logged transactions interleaving with channel commits.
  std::thread dml([&primary, &record_failure]() {
    for (int i = 0; i < 80; ++i) {
      record_failure(primary
                         .Execute("INSERT INTO audit VALUES (" +
                                  std::to_string(i) + ", 'n" +
                                  std::to_string(i) + "')")
                         .status());
    }
  });
  // Control plane: CQ churn and full stats walks while the
  // standby's applies contend for the same exclusive engine lock remotely.
  std::thread control([&primary, &record_failure]() {
    for (int i = 0; i < 25; ++i) {
      record_failure(primary.Execute("SHOW STATS").status());
      // Alternately shared and generic: clicks switches between batch
      // steps and per-row steps under the producer.
      auto churn = primary.CreateContinuousQuery(
          "churn", "SELECT count(*) FROM clicks <VISIBLE '30 seconds'>",
          /*allow_shared=*/i % 2 == 0);
      if (churn.ok()) {
        record_failure(primary.DropContinuousQuery("churn"));
      } else {
        record_failure(churn.status());
      }
    }
  });

  producer.join();
  dml.join();
  control.join();
  ASSERT_FALSE(failed.load());

  // Let the standby drain the remaining synced prefix, then promote.
  const int64_t target = primary.wal()->synced_bytes();
  for (int i = 0; i < 2000 && standby.repl_applied_bytes() < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(standby.repl_applied_bytes(), target)
      << "standby never caught up; fetch_errors=" << replica.fetch_errors();
  EXPECT_EQ(standby.repl_applied_records(),
            primary.wal()->synced_records());
  auto promoted = standby.Execute("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE(replica.running());

  // The promoted standby's durable tables are the primary's, exactly.
  for (const char* q :
       {"SELECT id, note FROM audit ORDER BY id",
        "SELECT url, c, w FROM archive ORDER BY w, url"}) {
    EXPECT_EQ(RowStrings(MustExecute(&standby, q)),
              RowStrings(MustExecute(&primary, q)))
        << q;
  }
}

TEST(ConcurrencyStressTest, ManyNetworkClients) {
  constexpr int kPipelines = 4;
  constexpr int kBatches = 25;
  constexpr int kRowsPerBatch = 8;
  constexpr int64_t kRpc = 20'000'000;

  engine::Database db;
  net::Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  // Pipelines and subscriptions are set up before any traffic so no
  // window close can be missed.
  {
    net::Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server.port(), kRpc).ok());
    for (int p = 0; p < kPipelines; ++p) {
      const std::string n = std::to_string(p);
      auto r = setup.Query(
          "CREATE STREAM ns" + n + " (v bigint, ts timestamp "
          "CQTIME SYSTEM);"
          "CREATE STREAM nagg" + n + " AS SELECT count(*) FROM ns" + n +
          " <VISIBLE '1 minute'>");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  std::vector<net::Client> subscribers(kPipelines);
  for (int p = 0; p < kPipelines; ++p) {
    ASSERT_TRUE(
        subscribers[p].Connect("127.0.0.1", server.port(), kRpc).ok());
    ASSERT_TRUE(
        subscribers[p].Subscribe("nagg" + std::to_string(p), kRpc).ok());
  }

  std::atomic<bool> failed{false};
  auto record_failure = [&failed](const Status& st) {
    if (!st.ok() && !failed.exchange(true)) {
      ADD_FAILURE() << st.ToString();
    }
  };

  std::vector<std::thread> threads;
  // Producers: one connection per pipeline, monotone system time, so
  // every batch after the first closes exactly one window.
  for (int p = 0; p < kPipelines; ++p) {
    threads.emplace_back([&, p]() {
      net::Client producer;
      record_failure(producer.Connect("127.0.0.1", server.port(), kRpc));
      for (int b = 0; b < kBatches && !failed.load(); ++b) {
        std::vector<Row> rows;
        for (int i = 0; i < kRowsPerBatch; ++i) {
          rows.push_back({Value::Int64(b * 100 + i), Value::Null()});
        }
        record_failure(producer.IngestBatch(
            "ns" + std::to_string(p), rows,
            /*system_time=*/(b * 60 + 10) * kSec, kRpc));
      }
    });
  }
  // Subscribers: drain pushes as they arrive; closes must be in order
  // and carry the per-window row count.
  for (int p = 0; p < kPipelines; ++p) {
    threads.emplace_back([&, p]() {
      int64_t last_close = 0;
      for (int w = 1; w < kBatches && !failed.load(); ++w) {
        auto push = subscribers[p].NextPush(kRpc);
        if (!push.ok()) {
          record_failure(push.status());
          return;
        }
        EXPECT_GT(push->close, last_close) << "out-of-order window close";
        last_close = push->close;
        ASSERT_EQ(push->rows.size(), 1u);
        EXPECT_EQ(push->rows[0][0].AsInt64(), kRowsPerBatch);
      }
    });
  }
  // Control plane: SHOW STATS FOR NET and pings while traffic flows.
  threads.emplace_back([&]() {
    net::Client control;
    record_failure(control.Connect("127.0.0.1", server.port(), kRpc));
    for (int i = 0; i < 30 && !failed.load(); ++i) {
      record_failure(control.Query("SHOW STATS FOR NET", kRpc).status());
      record_failure(control.Ping(kRpc));
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  const net::NetStats stats = server.stats();
  EXPECT_EQ(stats.pushes_total, stats.pushes_admitted + stats.pushes_shed +
                                    stats.pushes_disconnected);
  // Default policy queues are ample for these tiny frames: everything the
  // subscribers were owed was admitted and delivered.
  EXPECT_EQ(stats.pushes_admitted,
            static_cast<int64_t>(kPipelines) * (kBatches - 1));
  EXPECT_EQ(stats.slow_disconnects, 0);
  server.Drain();
}

}  // namespace
}  // namespace streamrel
