// Property-based suites: randomized workloads checked against independent
// reference implementations, swept over parameter grids with
// INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "common/time.h"
#include "storage/btree_index.h"
#include "stream/window_operator.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

// ---------------------------------------------------------------------------
// Property: every emitted time window contains exactly the rows whose
// timestamp falls in [close - visible, close), for random row arrivals and
// a grid of (visible, advance) shapes.
// ---------------------------------------------------------------------------

struct WindowShape {
  int64_t visible_sec;
  int64_t advance_sec;
};

class WindowContentsProperty : public ::testing::TestWithParam<WindowShape> {
};

TEST_P(WindowContentsProperty, WindowsContainExactlyTheirRows) {
  const WindowShape shape = GetParam();
  stream::WindowSpec spec;
  spec.kind = stream::WindowSpec::Kind::kTime;
  spec.visible = shape.visible_sec * kSec;
  spec.advance = shape.advance_sec * kSec;
  stream::WindowOperator op(spec);

  std::mt19937 rng(shape.visible_sec * 131 + shape.advance_sec);
  std::vector<int64_t> arrivals;
  int64_t ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += static_cast<int64_t>(rng() % (3 * kSec));
    arrivals.push_back(ts);
  }

  std::vector<stream::WindowBatch> closed;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ASSERT_TRUE(
        op.AddRow(arrivals[i], Row{Value::Int64(static_cast<int64_t>(i))},
                  &closed)
            .ok());
  }
  ASSERT_TRUE(op.AdvanceTime(ts + spec.visible + spec.advance, &closed).ok());

  ASSERT_FALSE(closed.empty());
  for (const auto& batch : closed) {
    int64_t open = batch.close_micros - spec.visible;
    // Reference: count arrivals in [open, close).
    size_t expected = 0;
    for (int64_t a : arrivals) {
      if (a >= open && a < batch.close_micros) ++expected;
    }
    EXPECT_EQ(batch.rows.size(), expected)
        << "window closing at " << batch.close_micros;
  }
  // Closes are consecutive multiples of advance.
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].close_micros - closed[i - 1].close_micros,
              spec.advance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowContentsProperty,
    ::testing::Values(WindowShape{60, 60}, WindowShape{300, 60},
                      WindowShape{90, 60}, WindowShape{60, 17},
                      WindowShape{120, 40}, WindowShape{45, 45},
                      WindowShape{600, 120}),
    [](const ::testing::TestParamInfo<WindowShape>& info) {
      return "v" + std::to_string(info.param.visible_sec) + "_a" +
             std::to_string(info.param.advance_sec);
    });

// ---------------------------------------------------------------------------
// Property: the shared slice-aggregation path and the generic
// re-execution path produce byte-identical results for random workloads
// across window shapes and group cardinalities.
// ---------------------------------------------------------------------------

struct SharedVsGenericCase {
  int64_t visible_sec;
  int64_t advance_sec;
  int cardinality;
  const char* aggregates;
};

class SharedVsGenericProperty
    : public ::testing::TestWithParam<SharedVsGenericCase> {};

TEST_P(SharedVsGenericProperty, IdenticalOutput) {
  const auto& c = GetParam();
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (k varchar, v bigint, ts timestamp CQTIME "
              "USER)");
  std::string window = "<VISIBLE '" + std::to_string(c.visible_sec) +
                       " seconds' ADVANCE '" +
                       std::to_string(c.advance_sec) + " seconds'>";
  std::string sql = std::string("SELECT k, ") + c.aggregates + " FROM s " +
                    window + " WHERE v >= 0 GROUP BY k ORDER BY k";
  auto shared = db.CreateContinuousQuery("shared", sql, true);
  auto generic = db.CreateContinuousQuery("generic", sql, false);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();
  ASSERT_TRUE((*shared)->is_shared());
  ASSERT_FALSE((*generic)->is_shared());

  CqCapture cap_s, cap_g;
  (*shared)->AddCallback(cap_s.Callback());
  (*generic)->AddCallback(cap_g.Callback());

  std::mt19937 rng(c.cardinality * 977 + c.visible_sec);
  int64_t ts = 0;
  for (int i = 0; i < 500; ++i) {
    ts += static_cast<int64_t>(rng() % (2 * kSec));
    Row row{Value::String("k" + std::to_string(rng() % c.cardinality)),
            Value::Int64(static_cast<int64_t>(rng() % 1000)),
            Value::Timestamp(ts)};
    ASSERT_TRUE(db.Ingest("s", {row}).ok());
  }
  ASSERT_TRUE(db.AdvanceTime("s", ts + c.visible_sec * kSec).ok());

  ASSERT_EQ(cap_s.batches.size(), cap_g.batches.size());
  ASSERT_GT(cap_s.batches.size(), 0u);
  for (size_t i = 0; i < cap_s.batches.size(); ++i) {
    ASSERT_EQ(cap_s.batches[i].close, cap_g.batches[i].close);
    ASSERT_EQ(cap_s.batches[i].rows.size(), cap_g.batches[i].rows.size())
        << "window " << i;
    for (size_t j = 0; j < cap_s.batches[i].rows.size(); ++j) {
      EXPECT_EQ(RowToString(cap_s.batches[i].rows[j]),
                RowToString(cap_g.batches[i].rows[j]))
          << "window " << i << " row " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SharedVsGenericProperty,
    ::testing::Values(
        SharedVsGenericCase{60, 60, 3, "count(*)"},
        SharedVsGenericCase{120, 60, 10, "count(*), sum(v)"},
        SharedVsGenericCase{90, 30, 5, "min(v), max(v)"},
        SharedVsGenericCase{60, 20, 2, "avg(v)"},
        SharedVsGenericCase{300, 60, 20, "count(*), sum(v), avg(v)"},
        SharedVsGenericCase{60, 60, 1, "count(distinct v)"}),
    [](const ::testing::TestParamInfo<SharedVsGenericCase>& info) {
      return "v" + std::to_string(info.param.visible_sec) + "_a" +
             std::to_string(info.param.advance_sec) + "_c" +
             std::to_string(info.param.cardinality) + "_" +
             std::to_string(info.index);
    });

// ---------------------------------------------------------------------------
// Property: SQL grouped aggregation matches a reference computed directly,
// for random tables.
// ---------------------------------------------------------------------------

class SqlAggregateProperty : public ::testing::TestWithParam<int> {};

TEST_P(SqlAggregateProperty, MatchesReference) {
  const int seed = GetParam();
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (k bigint, v bigint)");
  std::mt19937 rng(seed);
  std::map<int64_t, std::pair<int64_t, int64_t>> reference;  // k -> (n, sum)
  std::string insert = "INSERT INTO t VALUES ";
  int n = 100 + static_cast<int>(rng() % 200);
  for (int i = 0; i < n; ++i) {
    int64_t k = static_cast<int64_t>(rng() % 10);
    int64_t v = static_cast<int64_t>(rng() % 1000) - 500;
    auto& slot = reference[k];
    slot.first += 1;
    slot.second += v;
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
  }
  MustExecute(&db, insert);
  auto result = MustExecute(
      &db, "SELECT k, count(*), sum(v) FROM t GROUP BY k ORDER BY k");
  ASSERT_EQ(result.rows.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, agg] : reference) {
    EXPECT_EQ(result.rows[i][0].AsInt64(), k);
    EXPECT_EQ(result.rows[i][1].AsInt64(), agg.first);
    EXPECT_EQ(result.rows[i][2].AsInt64(), agg.second);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlAggregateProperty,
                         ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Property: the B+Tree agrees with std::multimap under random
// insert/remove/range workloads.
// ---------------------------------------------------------------------------

class BTreeOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(BTreeOracleProperty, MatchesMultimap) {
  const int seed = GetParam();
  std::mt19937 rng(seed);
  storage::BTreeIndex index("k", 0, /*fanout=*/8);
  std::multimap<int64_t, storage::RowId> oracle;

  for (int step = 0; step < 2000; ++step) {
    int op = static_cast<int>(rng() % 10);
    int64_t key = static_cast<int64_t>(rng() % 200);
    if (op < 6) {
      storage::RowId rid = static_cast<storage::RowId>(step);
      index.Insert(Value::Int64(key), rid);
      oracle.emplace(key, rid);
    } else if (op < 8) {
      // Remove one entry with this key, if any.
      auto it = oracle.find(key);
      if (it != oracle.end()) {
        ASSERT_TRUE(index.Remove(Value::Int64(key), it->second).ok());
        oracle.erase(it);
      } else {
        EXPECT_FALSE(index.Remove(Value::Int64(key), 0).ok());
      }
    } else {
      // Range check [key, key+17].
      std::vector<storage::RowId> got;
      index.ScanRange(Value::Int64(key), true, Value::Int64(key + 17), true,
                      [&](const Value&, storage::RowId id) {
                        got.push_back(id);
                        return true;
                      });
      std::vector<storage::RowId> want;
      for (auto it = oracle.lower_bound(key);
           it != oracle.end() && it->first <= key + 17; ++it) {
        want.push_back(it->second);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "at step " << step;
    }
  }
  EXPECT_EQ(index.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeOracleProperty, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Property: an APPEND active table equals the concatenation of the batches
// its CQ emitted, for random traffic.
// ---------------------------------------------------------------------------

class ActiveTableProperty : public ::testing::TestWithParam<int> {};

TEST_P(ActiveTableProperty, TableEqualsEmittedBatches) {
  const int seed = GetParam();
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (k varchar, ts timestamp CQTIME USER);"
              "CREATE STREAM agg AS SELECT k, count(*) AS c, cq_close(*) AS "
              "w FROM s <VISIBLE '1 minute'> GROUP BY k;"
              "CREATE TABLE archive (k varchar, c bigint, w timestamp);"
              "CREATE CHANNEL ch FROM agg INTO archive");
  CqCapture cap;
  ASSERT_TRUE(db.runtime()->SubscribeStream("agg", cap.Callback()).ok());

  std::mt19937 rng(seed);
  int64_t ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += static_cast<int64_t>(rng() % (5 * kSec));
    ASSERT_TRUE(
        db.Ingest("s", {Row{Value::String("k" + std::to_string(rng() % 4)),
                            Value::Timestamp(ts)}})
            .ok());
  }
  ASSERT_TRUE(db.AdvanceTime("s", ts + kMin).ok());

  std::vector<std::string> emitted;
  for (const auto& batch : cap.batches) {
    for (const Row& row : batch.rows) emitted.push_back(RowToString(row));
  }
  std::sort(emitted.begin(), emitted.end());
  auto table = RowStrings(MustExecute(&db, "SELECT k, c, w FROM archive"));
  std::sort(table.begin(), table.end());
  EXPECT_EQ(table, emitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveTableProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Property: WAL-recovered tables are byte-identical to the originals.
// ---------------------------------------------------------------------------

class WalRecoveryProperty : public ::testing::TestWithParam<int> {};

TEST_P(WalRecoveryProperty, RecoveredTableIdentical) {
  const int seed = GetParam();
  std::mt19937 rng(seed);
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint, b varchar, c double)");
  for (int batch = 0; batch < 10; ++batch) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 20; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(rng() % 1000) + ", 'row" +
                std::to_string(rng() % 100) + "', " +
                std::to_string(static_cast<double>(rng() % 997) / 7.0) + ")";
    }
    MustExecute(&db, insert);
  }
  auto expected =
      RowStrings(MustExecute(&db, "SELECT a, b, c FROM t ORDER BY a, b, c"));

  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, "CREATE TABLE t (a bigint, b varchar, c double)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto actual = RowStrings(
      MustExecute(&fresh, "SELECT a, b, c FROM t ORDER BY a, b, c"));
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalRecoveryProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Property: crash-and-resume at ANY minute boundary yields an archive
// byte-identical to the uninterrupted run (active-table recovery strategy).
// ---------------------------------------------------------------------------

class CrashPointProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointProperty, ResumeMatchesGoldenRun) {
  const int crash_minute = GetParam();
  const int total_minutes = 8;
  const char* ddl =
      "CREATE STREAM s (url varchar, ts timestamp CQTIME USER);"
      "CREATE STREAM per_min AS SELECT url, count(*) AS c, cq_close(*) AS w "
      "FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url;"
      "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
      "CREATE CHANNEL ch FROM per_min INTO archive APPEND";
  auto minute_rows = [](int m) {
    std::vector<Row> rows;
    for (int i = 0; i <= m % 3; ++i) {
      rows.push_back(Row{Value::String(i % 2 == 0 ? "/a" : "/b"),
                         Value::Timestamp(m * kMin + (i + 1) * 10 * kSec)});
    }
    return rows;
  };

  // Golden, uninterrupted run.
  engine::Database golden;
  MustExecute(&golden, ddl);
  for (int m = 0; m < total_minutes; ++m) {
    ASSERT_TRUE(golden.Ingest("s", minute_rows(m)).ok());
    ASSERT_TRUE(golden.AdvanceTime("s", (m + 1) * kMin).ok());
  }
  auto expected = RowStrings(
      MustExecute(&golden, "SELECT url, c, w FROM archive ORDER BY w, url"));

  // Crash after `crash_minute` minutes, restart, resume the remainder.
  engine::Database crashy;
  MustExecute(&crashy, ddl);
  for (int m = 0; m < crash_minute; ++m) {
    ASSERT_TRUE(crashy.Ingest("s", minute_rows(m)).ok());
    ASSERT_TRUE(crashy.AdvanceTime("s", (m + 1) * kMin).ok());
  }
  engine::Database fresh(crashy.disk(), crashy.wal());
  MustExecute(&fresh, ddl);
  auto replay = fresh.RecoverFromWal();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(stream::ResumeFromActiveTables(fresh.runtime(), *replay).ok());
  // The source replays from the persisted watermark: sliding windows need
  // the rows of the still-open window region too, which the source must
  // re-send (at-least-once delivery from the watermark); window evaluation
  // dedups via the emit watermark and channel idempotence.
  int resume_minute = std::max(0, crash_minute - 1);
  for (int m = resume_minute; m < total_minutes; ++m) {
    ASSERT_TRUE(fresh.Ingest("s", minute_rows(m)).ok());
    ASSERT_TRUE(fresh.AdvanceTime("s", (m + 1) * kMin).ok());
  }
  auto actual = RowStrings(
      MustExecute(&fresh, "SELECT url, c, w FROM archive ORDER BY w, url"));
  EXPECT_EQ(actual, expected) << "crash at minute " << crash_minute;
}

INSTANTIATE_TEST_SUITE_P(Minutes, CrashPointProperty,
                         ::testing::Range(1, 8));

}  // namespace
}  // namespace streamrel
