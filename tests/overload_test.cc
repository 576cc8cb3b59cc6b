// Overload-protection torture suite (ctest label: overload).
//
// One seeded workload is replayed under every admission policy (BLOCK,
// SHED_NEWEST, SHED_OLDEST) against a memory budget sized from the
// engine's own byte model so that the shed policies
// must drop well over 30% of the input. Each run is held to:
//   - exact accounting: admitted + shed + quarantined == pushed, per batch
//     and in total — nothing is ever dropped silently;
//   - bounded peak memory: governor peak <= 1.2x budget for shed policies
//     (admission is batch-granular, so the budget can be exceeded by at
//     most one batch's footprint);
//   - output fidelity: CQ deliveries match a budget-unlimited serial
//     oracle fed exactly the rows this run admitted.
// Separate tests cover sink retry against injected channel/WAL faults
// (active-table contents must match a no-fault oracle byte for byte), the
// quarantine dead-letter channel, and the SHOW STATS overload scope.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/memory_governor.h"
#include "common/time.h"
#include "exec/column_batch.h"
#include "stream/runtime.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;

// The row-buffering CQ that drives memory pressure (raw rows held for the
// whole visible extent) plus a shared scalar aggregate.
const char kBufferCq[] =
    "SELECT v, ts, pad FROM s <VISIBLE '1 hour'>";
const char kScalarCq[] =
    "SELECT count(*), sum(v) FROM s <VISIBLE '1 hour'>";

void CaptureCq(engine::Database* db, const std::string& name,
               const std::string& sql, std::vector<std::string>* out) {
  auto cq = db->CreateContinuousQuery(name, sql);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  (*cq)->AddCallback(
      [out, name](int64_t close, const std::vector<Row>& rows) {
        for (const Row& row : rows) {
          out->push_back(name + "@" + std::to_string(close) + ": " +
                         RowToString(row));
        }
        return Status::OK();
      });
}

std::vector<std::vector<Row>> MakeBatches(int seed, int n_batches) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 7919u + 3u);
  std::vector<std::vector<Row>> batches;
  int64_t ts = kSec;
  for (int b = 0; b < n_batches; ++b) {
    const int n = 6 + static_cast<int>(rng() % 11);
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      ts += 1 + static_cast<int64_t>(rng() % (kSec / 4));
      rows.push_back(Row{
          Value::Int64(static_cast<int64_t>(rng() % 100000)),
          Value::Timestamp(ts),
          Value::String(std::string(8 + rng() % 24, 'x'))});
    }
    batches.push_back(std::move(rows));
  }
  return batches;
}

// Governor-model footprint of one batch once buffered by a window
// operator: row bytes plus the per-element timestamp.
int64_t BatchWindowBytes(const std::vector<Row>& batch) {
  int64_t bytes = 0;
  for (const Row& row : batch) {
    bytes += EstimateRowBytes(row) + static_cast<int64_t>(sizeof(int64_t));
  }
  return bytes;
}

class OverloadPolicyTest : public ::testing::TestWithParam<int> {};

TEST_P(OverloadPolicyTest, AccountingPeakAndOracle) {
  const stream::OverloadPolicy policy =
      static_cast<stream::OverloadPolicy>(GetParam());
  SCOPED_TRACE(std::string("policy ") + stream::OverloadPolicyName(policy));

  auto batches = MakeBatches(/*seed=*/17, /*n_batches=*/80);
  int64_t total_bytes = 0;
  int64_t max_batch_bytes = 0;
  int64_t total_rows = 0;
  for (const auto& batch : batches) {
    int64_t b = BatchWindowBytes(batch);
    total_bytes += b;
    max_batch_bytes = std::max(max_batch_bytes, b);
    total_rows += static_cast<int64_t>(batch.size());
  }
  // The budget admits roughly a third of the workload, i.e. sustained ~3x
  // over-budget pressure, and is big enough that one batch is well under
  // the 20% transient allowance the peak bound permits.
  const int64_t budget = total_bytes / 3;
  ASSERT_GT(budget, 5 * max_batch_bytes);

  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER, "
              "pad varchar)");
  std::vector<std::string> events;
  CaptureCq(&db, "buffer", kBufferCq, &events);
  CaptureCq(&db, "scalar", kScalarCq, &events);
  if (HasFatalFailure()) return;
  MustExecute(&db, "SET MEMORY LIMIT " + std::to_string(budget));
  MustExecute(&db, std::string("SET OVERLOAD POLICY s ") +
                       stream::OverloadPolicyName(policy));
  // Keep BLOCK runs fast: nothing can free memory mid-run (the window
  // spans the whole workload), so every blocked batch waits the full
  // timeout before being admitted losslessly.
  db.runtime()->SetBlockTimeoutMicros(500);

  auto* rt = db.runtime();
  std::vector<std::vector<Row>> admitted_batches;
  int64_t pushed = 0;
  for (const auto& batch : batches) {
    const auto before = rt->overload_counters("s");
    Status st = db.Ingest("s", batch);
    ASSERT_TRUE(st.ok()) << st.ToString();
    const auto after = rt->overload_counters("s");
    const int64_t admitted = after.rows_admitted - before.rows_admitted;
    const int64_t shed = after.rows_shed - before.rows_shed;
    const int64_t quarantined =
        after.rows_quarantined - before.rows_quarantined;
    pushed += static_cast<int64_t>(batch.size());
    // Exact accounting, batch by batch.
    ASSERT_EQ(admitted + shed + quarantined,
              static_cast<int64_t>(batch.size()));
    EXPECT_EQ(quarantined, 0);
    // Reconstruct the admitted rows: SHED_NEWEST keeps the longest
    // fitting prefix, SHED_OLDEST the longest fitting suffix, BLOCK all.
    std::vector<Row> kept;
    if (policy == stream::OverloadPolicy::kShedOldest) {
      kept.assign(batch.end() - admitted, batch.end());
    } else {
      kept.assign(batch.begin(), batch.begin() + admitted);
    }
    admitted_batches.push_back(std::move(kept));
  }

  const auto total = rt->overload_counters("s");
  EXPECT_EQ(total.rows_admitted + total.rows_shed + total.rows_quarantined,
            pushed);
  EXPECT_EQ(pushed, total_rows);
  if (policy == stream::OverloadPolicy::kBlock) {
    // BLOCK is lossless: it trades latency, never rows.
    EXPECT_EQ(total.rows_shed, 0);
    EXPECT_EQ(total.rows_admitted, pushed);
    EXPECT_GT(total.blocked_micros, 0);
  } else {
    // The budget forces well over 30% shedding...
    EXPECT_GE(total.rows_shed * 10, pushed * 3);
    EXPECT_GT(total.rows_admitted, 0);
    // ...and the peak never strays past the batch-granularity allowance.
    EXPECT_LE(rt->governor()->peak_held(), budget + budget / 5);
  }

  // Far enough to close the 1-hour window regardless of where it started.
  const int64_t end = 2 * 3600 * kSec;
  ASSERT_TRUE(db.AdvanceTime("s", end).ok());

  // Budget-unlimited serial oracle, fed exactly the admitted rows: the
  // overloaded run's CQ output must be indistinguishable from a run where
  // those rows were the whole input.
  engine::Database oracle;
  MustExecute(&oracle,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER, "
              "pad varchar)");
  std::vector<std::string> oracle_events;
  CaptureCq(&oracle, "buffer", kBufferCq, &oracle_events);
  CaptureCq(&oracle, "scalar", kScalarCq, &oracle_events);
  if (HasFatalFailure()) return;
  for (const auto& batch : admitted_batches) {
    if (batch.empty()) continue;
    Status st = oracle.Ingest("s", batch);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(oracle.AdvanceTime("s", end).ok());
  EXPECT_EQ(events, oracle_events);

  // The oracle admitted everything it was fed — the admitted rows really
  // were clean, in-order rows.
  const auto oracle_total = oracle.runtime()->overload_counters("s");
  EXPECT_EQ(oracle_total.rows_admitted, total.rows_admitted);
  EXPECT_EQ(oracle_total.rows_shed, 0);
  EXPECT_EQ(oracle_total.rows_quarantined, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverloadPolicyTest,
    ::testing::Values(static_cast<int>(stream::OverloadPolicy::kBlock),
                      static_cast<int>(stream::OverloadPolicy::kShedNewest),
                      static_cast<int>(stream::OverloadPolicy::kShedOldest)));

TEST(OverloadAccountingTest, QuarantinedRowsCountInTheIdentity) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER, "
              "pad varchar)");
  std::vector<std::string> events;
  CaptureCq(&db, "buffer", kBufferCq, &events);
  if (HasFatalFailure()) return;
  MustExecute(&db, "SET MEMORY LIMIT 16384");
  MustExecute(&db, "SET OVERLOAD POLICY s SHED_NEWEST");
  int64_t pushed = 0;
  std::mt19937 rng(99);
  int64_t ts = kSec;
  for (int b = 0; b < 40; ++b) {
    std::vector<Row> batch;
    for (int i = 0; i < 12; ++i) {
      if (rng() % 5 == 0) {
        batch.push_back(Row{Value::Int64(1)});  // bad arity -> quarantine
      } else {
        ts += 1 + static_cast<int64_t>(rng() % kSec);
        batch.push_back(Row{Value::Int64(i), Value::Timestamp(ts),
                            Value::String("payload-payload")});
      }
    }
    pushed += static_cast<int64_t>(batch.size());
    ASSERT_TRUE(db.Ingest("s", batch).ok());
  }
  const auto total = db.runtime()->overload_counters("s");
  EXPECT_EQ(total.rows_admitted + total.rows_shed + total.rows_quarantined,
            pushed);
  EXPECT_GT(total.rows_shed, 0);
  EXPECT_GT(total.rows_quarantined, 0);
  EXPECT_EQ(db.runtime()->quarantine_dropped(), 0);
}

// Ingest charges each ColumnBatch to the governor's kIngestBatch account
// as one unit (released when dispatch ends) and admits/sheds whole-row
// ranges columnar-side, so the accounting identity must hold exactly
// there too: every pushed row is admitted, shed, or quarantined — batch
// by batch, with no double counting across the transient batch charge.
TEST(OverloadAccountingTest, ColumnarBatchPathKeepsTheIdentityExact) {
  for (const char* policy : {"SHED_NEWEST", "SHED_OLDEST"}) {
    SCOPED_TRACE(policy);
    engine::Database db;
    MustExecute(&db,
                "CREATE STREAM s (v bigint, ts timestamp CQTIME USER, "
                "pad varchar)");
    // Shared-only aggregation (no raw-row buffering); per-group state
    // under GROUP BY pad grows past the budget and forces shedding.
    std::vector<std::string> events;
    CaptureCq(&db, "groups",
              "SELECT pad, count(*), sum(v) FROM s <VISIBLE '1 hour'> "
              "GROUP BY pad",
              &events);
    if (HasFatalFailure()) return;
    MustExecute(&db, "SET MEMORY LIMIT 32768");
    MustExecute(&db, std::string("SET OVERLOAD POLICY s ") + policy);

    auto* rt = db.runtime();
    std::mt19937 rng(4242);
    int64_t pushed = 0;
    int64_t ts = kSec;
    int64_t max_batch_bytes = 0;
    for (int b = 0; b < 60; ++b) {
      exec::ColumnBatch batch(3);
      const int n = 8 + static_cast<int>(rng() % 8);
      for (int i = 0; i < n; ++i) {
        batch.AppendInt64(0, static_cast<int64_t>(rng() % 1000));
        if (rng() % 7 == 0) {
          // Malformed CQTIME inside the columnar batch: NULL or mis-typed.
          if (rng() % 2 == 0) {
            batch.AppendNull(1);
          } else {
            batch.AppendString(1, "not-a-time");
          }
        } else {
          ts += 1 + static_cast<int64_t>(rng() % kSec);
          batch.AppendTimestamp(1, ts);
        }
        // Unique pads => one group per admitted row.
        batch.AppendString(1 + 1,
                           "pad-" + std::to_string(b * 100 + i) +
                               std::string(16 + rng() % 16, 'x'));
        batch.CommitRow();
      }
      max_batch_bytes = std::max(max_batch_bytes, batch.total_row_bytes());
      const auto before = rt->overload_counters("s");
      pushed += static_cast<int64_t>(batch.row_count());
      const int64_t batch_rows = static_cast<int64_t>(batch.row_count());
      ASSERT_TRUE(db.Ingest("s", std::move(batch)).ok());
      const auto after = rt->overload_counters("s");
      ASSERT_EQ((after.rows_admitted - before.rows_admitted) +
                    (after.rows_shed - before.rows_shed) +
                    (after.rows_quarantined - before.rows_quarantined),
                batch_rows);
    }

    const auto total = rt->overload_counters("s");
    EXPECT_EQ(total.rows_admitted + total.rows_shed + total.rows_quarantined,
              pushed);
    EXPECT_GT(total.rows_admitted, 0);
    EXPECT_GT(total.rows_shed, 0) << "budget never bit: weak test";
    EXPECT_GT(total.rows_quarantined, 0);
    // Peak obeys the admission allowance plus one batch's transient
    // kIngestBatch charge.
    EXPECT_LE(rt->governor()->peak_held(),
              32768 + 32768 / 5 + max_batch_bytes);
    // The in-flight batch account drains to zero once dispatch returns.
    EXPECT_EQ(rt->governor()->held(MemoryGovernor::Account::kIngestBatch), 0);
  }
}

TEST(OverloadRetryTest, ChannelSinkRetryMatchesNoFaultOracle) {
  FaultInjector::Instance().Reset();
  auto setup = [](engine::Database* db) {
    MustExecute(db,
                "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
                "CREATE TABLE archive (v bigint, ts timestamp);"
                "CREATE CHANNEL ch FROM s INTO archive APPEND");
  };
  engine::Database db;
  engine::Database oracle;
  setup(&db);
  setup(&oracle);
  MustExecute(&db, "SET RETRY LIMIT 4");
  MustExecute(&db, "SET RETRY BACKOFF 50");

  const int64_t before_retries = db.runtime()->sink_retries();
  for (int b = 0; b < 20; ++b) {
    std::vector<Row> batch;
    for (int i = 0; i < 5; ++i) {
      batch.push_back(Row{Value::Int64(b * 5 + i),
                          Value::Timestamp((b * 5 + i + 1) * kSec)});
    }
    if (b % 2 == 0) {
      // Transient sink fault on every other batch: the first delivery
      // attempt fails, the retry succeeds.
      FaultInjector::Instance().Arm("channel.sink", FaultPolicy::FailOnce());
    }
    Status st = db.Ingest("s", batch);
    ASSERT_TRUE(st.ok()) << "batch " << b << ": " << st.ToString();
    ASSERT_TRUE(oracle.Ingest("s", batch).ok());
  }
  EXPECT_GE(db.runtime()->sink_retries() - before_retries, 10);
  EXPECT_EQ(db.runtime()->sink_retries_exhausted(), 0);

  const char kQuery[] = "SELECT v, ts FROM archive ORDER BY ts, v";
  EXPECT_EQ(RowStrings(MustExecute(&db, kQuery)),
            RowStrings(MustExecute(&oracle, kQuery)));
  FaultInjector::Instance().Reset();
}

TEST(OverloadRetryTest, WalAppendRetryRecovers) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE archive (v bigint, ts timestamp);"
              "CREATE CHANNEL ch FROM s INTO archive APPEND");
  MustExecute(&db, "SET RETRY LIMIT 3");
  MustExecute(&db, "SET RETRY BACKOFF 50");
  FaultInjector::Instance().Arm("wal.append", FaultPolicy::FailOnce());
  Status st = db.Ingest("s", {Row{Value::Int64(1), Value::Timestamp(kSec)}});
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(db.runtime()->sink_retries(), 1);
  auto r = MustExecute(&db, "SELECT count(*) FROM archive");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  FaultInjector::Instance().Reset();
}

TEST(OverloadRetryTest, ExhaustedRetriesSurfaceTheError) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE archive (v bigint, ts timestamp);"
              "CREATE CHANNEL ch FROM s INTO archive APPEND");
  MustExecute(&db, "SET RETRY LIMIT 2");
  MustExecute(&db, "SET RETRY BACKOFF 50");
  // Every attempt fails: the bounded attempt budget runs out and the
  // error surfaces to the caller instead of looping forever.
  FaultInjector::Instance().Arm("channel.sink",
                                FaultPolicy::Probability(1.0, 7));
  Status st = db.Ingest("s", {Row{Value::Int64(1), Value::Timestamp(kSec)}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(db.runtime()->sink_retries_exhausted(), 1);
  FaultInjector::Instance().Disarm("channel.sink");
  // The engine stays usable once the sink recovers.
  EXPECT_TRUE(
      db.Ingest("s", {Row{Value::Int64(2), Value::Timestamp(2 * kSec)}})
          .ok());
  FaultInjector::Instance().Reset();
}

TEST(QuarantineTest, QuarantineStreamIsChannelable) {
  engine::Database db;
  MustExecute(&db,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
              "CREATE TABLE dead_letters (qtime timestamp, reason varchar, "
              "detail varchar, row_data varchar)");
  // The dead-letter stream does not exist yet: CREATE CHANNEL on the
  // dotted name materialises it on demand.
  MustExecute(&db,
              "CREATE CHANNEL qch FROM s.__quarantine INTO dead_letters "
              "APPEND");
  ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(1)}}).ok());  // bad arity
  ASSERT_TRUE(
      db.Ingest("s", {Row{Value::Int64(2), Value::Null()}}).ok());  // null ts
  auto rows = MustExecute(&db,
                          "SELECT reason FROM dead_letters ORDER BY reason");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "arity");
  EXPECT_EQ(rows.rows[1][0].AsString(), "null_cqtime");
}

TEST(QuarantineTest, QuarantineOfQuarantineIsDroppedNotRecursed) {
  engine::Database db;
  MustExecute(&db, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(1)}}).ok());
  EXPECT_EQ(db.runtime()->overload_counters("s").rows_quarantined, 1);
  // Direct ingest of a malformed row INTO the quarantine stream must not
  // spawn a quarantine-of-quarantine; it is counted and dropped.
  const std::string qname = stream::StreamRuntime::QuarantineName("s");
  ASSERT_TRUE(db.Ingest(qname, {Row{Value::Int64(9)}}).ok());
  EXPECT_EQ(db.runtime()->quarantine_dropped(), 1);
}

TEST(OverloadStatsTest, ShowStatsExposesTheOverloadScope) {
  engine::Database db;
  MustExecute(&db, "CREATE STREAM s (v bigint, ts timestamp CQTIME USER)");
  auto cq = db.CreateContinuousQuery(
      "c", "SELECT v, ts FROM s <VISIBLE '1 hour'>");
  ASSERT_TRUE(cq.ok());
  MustExecute(&db, "SET MEMORY LIMIT 4096");
  MustExecute(&db, "SET OVERLOAD POLICY s SHED_NEWEST");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Ingest("s", {Row{Value::Int64(i),
                                    Value::Timestamp((i + 1) * kSec)}})
                    .ok());
  }
  auto stats = MustExecute(&db, "SHOW STATS FOR OVERLOAD");
  int64_t budget = -1, admitted = -1, shed = -1, held = -1;
  for (const Row& row : stats.rows) {
    EXPECT_EQ(row[0].AsString(), "overload");
    const std::string& name = row[1].AsString();
    const std::string& metric = row[2].AsString();
    if (name == "governor" && metric == "bytes_budget") {
      budget = row[3].AsInt64();
    }
    if (name == "governor" && metric == "bytes_held") held = row[3].AsInt64();
    if (name == "s" && metric == "rows_admitted") admitted = row[3].AsInt64();
    if (name == "s" && metric == "rows_shed") shed = row[3].AsInt64();
  }
  EXPECT_EQ(budget, 4096);
  EXPECT_GE(held, 0);
  EXPECT_GT(admitted, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(admitted + shed, 200);
}

}  // namespace
}  // namespace streamrel
