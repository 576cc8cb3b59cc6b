// Crash-recovery torture suite: randomized workloads (CQs, channels into
// active tables, DML) run once without faults as the oracle, then re-run
// with an injected crash at sampled k-th fault-point hits. Each crash is
// followed by WAL tail damage (clean/torn/corrupt, rotating), a restart,
// one of the two recovery strategies, and a re-feed of the unpersisted
// suffix of the stream. The recovered tables must match the oracle byte
// for byte.
//
// Reproduce a failure from the SCOPED_TRACE output, e.g.
//   seed=17 strategy=checkpoint k=9 mode=2
// with --gtest_filter='*Torture*/17'.

#include "stream/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/time.h"
#include "storage/wal.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

// Two dataflows with different CQ strategies, so both recovery paths are
// exercised: url_counts is a shared-strategy aggregate (recoverable only
// from active tables), ev_win is a generic projection/filter CQ (the one
// checkpoint blobs can restore). Plus a plain table driven by DML.
const char* kDdl =
    "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER, "
    "bytes bigint);"
    "CREATE STREAM url_counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
    "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
    "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
    "CREATE CHANNEL arch_ch FROM url_counts INTO archive APPEND;"
    "CREATE STREAM events (k bigint, ts timestamp CQTIME USER, v bigint);"
    "CREATE STREAM ev_win AS SELECT k, v FROM events <VISIBLE '1 minute'> "
    "WHERE v > 50;"
    "CREATE TABLE ev_archive (k bigint, v bigint);"
    "CREATE CHANNEL ev_ch FROM ev_win INTO ev_archive APPEND;"
    "CREATE TABLE audit (id bigint, note varchar)";

struct Op {
  enum Kind {
    kClicks,         // ingest a batch into clicks
    kEvents,         // ingest a batch into events
    kAdvanceClicks,  // heartbeat clicks to a minute boundary
    kAdvanceEvents,  // heartbeat events to a minute boundary
    kSql,            // DML via Execute
  };
  Kind kind;
  std::vector<Row> rows;
  int64_t advance_to = 0;
  std::string sql;
};

Row Click(const std::string& url, int64_t ts, int64_t bytes) {
  return Row{Value::String(url), Value::Timestamp(ts), Value::Int64(bytes)};
}
Row Event(int64_t k, int64_t ts, int64_t v) {
  return Row{Value::Int64(k), Value::Timestamp(ts), Value::Int64(v)};
}

/// Deterministic workload for `seed`. Per-stream timestamps are strictly
/// increasing and never fall on a minute boundary (777us offset), so every
/// row belongs to exactly one tumbling window and a channel watermark
/// cleanly splits rows into persisted (< W) and unpersisted (> W).
std::vector<Op> MakeWorkload(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 17);
  std::vector<Op> ops;
  // Per-stream position in whole seconds; actual ts = sec*kSec + 777.
  int64_t clicks_sec = 5 + static_cast<int64_t>(rng() % 20);
  int64_t events_sec = 5 + static_cast<int64_t>(rng() % 20);
  const char* urls[] = {"/a", "/b", "/c", "/d"};
  int64_t next_audit_id = 1;
  int dml_phase = 0;

  const int n_ops = 12 + static_cast<int>(rng() % 6);
  for (int i = 0; i < n_ops; ++i) {
    switch (rng() % 5) {
      case 0:
      case 1: {  // clicks batch
        Op op{Op::kClicks, {}, 0, ""};
        const int n = 1 + static_cast<int>(rng() % 3);
        for (int r = 0; r < n; ++r) {
          clicks_sec += 1 + static_cast<int64_t>(rng() % 40);
          op.rows.push_back(Click(urls[rng() % 4], clicks_sec * kSec + 777,
                                  static_cast<int64_t>(rng() % 1000)));
        }
        ops.push_back(std::move(op));
        break;
      }
      case 2: {  // events batch
        Op op{Op::kEvents, {}, 0, ""};
        const int n = 1 + static_cast<int>(rng() % 3);
        for (int r = 0; r < n; ++r) {
          events_sec += 1 + static_cast<int64_t>(rng() % 40);
          op.rows.push_back(Event(static_cast<int64_t>(rng() % 5),
                                  events_sec * kSec + 777,
                                  static_cast<int64_t>(rng() % 100)));
        }
        ops.push_back(std::move(op));
        break;
      }
      case 3: {  // advance one of the streams to a minute boundary
        const bool clicks = rng() % 2 == 0;
        int64_t& sec = clicks ? clicks_sec : events_sec;
        const int64_t minute = sec / 60 + 1 + static_cast<int64_t>(rng() % 2);
        sec = minute * 60 + 1 + static_cast<int64_t>(rng() % 30);
        ops.push_back(Op{clicks ? Op::kAdvanceClicks : Op::kAdvanceEvents,
                         {}, minute * kMin, ""});
        break;
      }
      case 4: {  // DML against the audit table
        std::string sql;
        switch (dml_phase++ % 3) {
          case 0:
            sql = "INSERT INTO audit VALUES (" +
                  std::to_string(next_audit_id++) + ", 'n" +
                  std::to_string(i) + "')";
            break;
          case 1:
            sql = "UPDATE audit SET note = 'u" + std::to_string(i) +
                  "' WHERE id = " +
                  std::to_string(1 + rng() % std::max<int64_t>(
                                              1, next_audit_id - 1));
            break;
          default:
            sql = "DELETE FROM audit WHERE id = " +
                  std::to_string(1 + rng() % std::max<int64_t>(
                                              1, next_audit_id - 1));
            break;
        }
        ops.push_back(Op{Op::kSql, {}, 0, std::move(sql)});
        break;
      }
    }
  }
  // Close every window so the oracle's final state is fully persisted.
  const int64_t final_minute =
      std::max(clicks_sec, events_sec) / 60 + 2;
  ops.push_back(Op{Op::kAdvanceClicks, {}, final_minute * kMin, ""});
  ops.push_back(Op{Op::kAdvanceEvents, {}, final_minute * kMin, ""});
  return ops;
}

Status ApplyOp(engine::Database* db, const Op& op) {
  switch (op.kind) {
    case Op::kClicks:
      return db->Ingest("clicks", op.rows);
    case Op::kEvents:
      return db->Ingest("events", op.rows);
    case Op::kAdvanceClicks:
      return db->AdvanceTime("clicks", op.advance_to);
    case Op::kAdvanceEvents:
      return db->AdvanceTime("events", op.advance_to);
    case Op::kSql:
      return db->Execute(op.sql).status();
  }
  return Status::Internal("unreachable op kind");
}

/// Canonical final state of every durable table, for oracle comparison.
std::vector<std::string> TableState(engine::Database* db) {
  std::vector<std::string> out;
  out.push_back("-- archive --");
  for (auto& s : RowStrings(MustExecute(
           db, "SELECT url, c, w FROM archive ORDER BY w, url, c"))) {
    out.push_back(s);
  }
  out.push_back("-- ev_archive --");
  for (auto& s : RowStrings(MustExecute(
           db, "SELECT k, v FROM ev_archive ORDER BY k, v"))) {
    out.push_back(s);
  }
  out.push_back("-- audit --");
  for (auto& s : RowStrings(MustExecute(
           db, "SELECT id, note FROM audit ORDER BY id, note"))) {
    out.push_back(s);
  }
  return out;
}

enum class Strategy { kActiveTables, kCheckpoint };

/// Runs ops until an injected crash fires. Returns the index of the first
/// op whose work is NOT durable (the op the crash interrupted — its
/// autocommit transaction never synced, so its DML must be re-run), or -1
/// if every op completed. For the checkpoint strategy, checkpoints are
/// written every `ckpt_period` ops; a crash inside a checkpoint loses no
/// op work, so the next op index is returned.
int RunUntilCrash(engine::Database* db, const std::vector<Op>& ops,
                  int ckpt_period, CheckpointManager* ckpt) {
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    if (!ApplyOp(db, ops[i]).ok()) return i;
    if (ckpt != nullptr && (i + 1) % ckpt_period == 0) {
      if (!ckpt->WriteCheckpoint().ok()) return i + 1;
    }
  }
  return -1;
}

int64_t WatermarkOf(const WalReplayResult& replay, const std::string& ch) {
  auto it = replay.channel_watermarks.find(ch);
  return it == replay.channel_watermarks.end() ? INT64_MIN : it->second;
}

/// Restarts over the crashed storage, recovers with `strategy`, re-feeds
/// the unpersisted suffix of each stream, and returns the final state.
/// `crash_op` is RunUntilCrash's return value.
std::vector<std::string> RecoverAndRefeed(
    const std::shared_ptr<storage::SimulatedDisk>& disk,
    const std::shared_ptr<storage::WriteAheadLog>& wal,
    const std::vector<Op>& ops, int crash_op, Strategy strategy) {
  disk->DropCache();
  auto db = std::make_unique<engine::Database>(disk, wal);
  MustExecute(db.get(), kDdl);
  auto replay = db->RecoverFromWal();
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (!replay.ok()) return {};

  const int64_t w_arch = WatermarkOf(*replay, "arch_ch");
  const int64_t w_ev = WatermarkOf(*replay, "ev_ch");
  // Events re-feed threshold: with a restored checkpoint blob the operator
  // already buffers everything at or before the blob's coverage, so the
  // re-feed starts strictly past it; otherwise it starts at the channel
  // watermark (rows below it are already in the active table).
  int64_t ev_threshold = w_ev;
  bool ev_exclusive = false;
  if (strategy == Strategy::kActiveTables) {
    Status st = ResumeFromActiveTables(db->runtime(), *replay);
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    CheckpointManager restore(db->runtime(), db->wal().get());
    Status st = restore.RestoreFromCheckpoints(*replay);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto ckpt = replay->latest_checkpoints.find("$derived$ev_win");
    if (ckpt != replay->latest_checkpoints.end()) {
      ev_threshold = ckpt->second.coverage;
      ev_exclusive = true;
    }
  }

  // Exactly-once probe: nothing already persisted may be re-delivered.
  Status sub =
      db->runtime()
          ->SubscribeStream(
              "url_counts",
              [w_arch](int64_t close, const std::vector<Row>&) {
                EXPECT_GT(close, w_arch) << "re-delivered persisted window";
                return Status::OK();
              })
          .status();
  EXPECT_TRUE(sub.ok()) << sub.ToString();
  sub = db->runtime()
            ->SubscribeStream(
                "ev_win",
                [w_ev](int64_t close, const std::vector<Row>&) {
                  EXPECT_GT(close, w_ev) << "re-delivered persisted window";
                  return Status::OK();
                })
            .status();
  EXPECT_TRUE(sub.ok()) << sub.ToString();

  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kClicks:
      case Op::kEvents: {
        const bool clicks = op.kind == Op::kClicks;
        const int64_t threshold = clicks ? w_arch : ev_threshold;
        const bool exclusive = clicks ? false : ev_exclusive;
        std::vector<Row> keep;
        for (const Row& row : op.rows) {
          const int64_t ts = row[1].AsTimestampMicros();
          if (exclusive ? ts > threshold : ts >= threshold) {
            keep.push_back(row);
          }
        }
        if (!keep.empty()) {
          Status st = db->Ingest(clicks ? "clicks" : "events", keep);
          EXPECT_TRUE(st.ok()) << "refeed op " << i << ": " << st.ToString();
        }
        break;
      }
      case Op::kAdvanceClicks:
      case Op::kAdvanceEvents: {
        // Heartbeats the recovered operator already processed must not
        // re-run (watermark regression). For clicks that is everything up
        // to the channel watermark recovery rewound to; for events a
        // restored checkpoint blob may have advanced further than the
        // last persisted window (empty closes leave no durable trace), so
        // its coverage wins.
        const int64_t wm = op.kind == Op::kAdvanceClicks
                               ? w_arch
                               : std::max(w_ev, ev_threshold);
        if (op.advance_to <= wm) break;
        Status st = ApplyOp(db.get(), op);
        EXPECT_TRUE(st.ok()) << "refeed op " << i << " advance("
                             << (op.kind == Op::kAdvanceClicks ? "clicks"
                                                               : "events")
                             << ") to " << op.advance_to
                             << " w_arch=" << w_arch << " w_ev=" << w_ev
                             << " ev_threshold=" << ev_threshold << ": "
                             << st.ToString();
        break;
      }
      case Op::kSql: {
        // Ops before the crashed one committed durably (their WAL commit
        // synced) and were rebuilt by replay; re-running them would
        // double-apply. The crashed op and everything after never
        // committed.
        if (i >= crash_op) MustExecute(db.get(), op.sql);
        break;
      }
    }
  }
  return TableState(db.get());
}

/// One full torture pass for (seed, strategy): oracle, fault-hit count,
/// then a crash at sampled k-th hits with all three tail-damage modes.
void TortureOne(int seed, Strategy strategy) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();
  const std::vector<Op> ops = MakeWorkload(seed);
  const int ckpt_period =
      strategy == Strategy::kCheckpoint ? 3 + seed % 4 : 0;

  // Oracle: no faults, straight through.
  std::vector<std::string> expected;
  {
    engine::Database oracle;
    MustExecute(&oracle, kDdl);
    for (const Op& op : ops) {
      Status st = ApplyOp(&oracle, op);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    expected = TableState(&oracle);
  }

  // Counting run: same code path as a crash run, minus the crash — learns
  // the total number of fault-point hits H the workload produces.
  int64_t total_hits = 0;
  {
    engine::Database db;
    MustExecute(&db, kDdl);
    injector.Reset();
    injector.EnableCounting(true);
    std::unique_ptr<CheckpointManager> ckpt;
    if (ckpt_period > 0) {
      ckpt = std::make_unique<CheckpointManager>(db.runtime(),
                                                 db.wal().get());
    }
    ASSERT_EQ(RunUntilCrash(&db, ops, ckpt_period, ckpt.get()), -1);
    total_hits = injector.totals().hits;
    injector.Reset();
  }
  ASSERT_GT(total_hits, 0);

  // Crash at sampled hit indices (all of them when the workload is small;
  // evenly strided plus both edges otherwise, to bound runtime).
  std::vector<int64_t> ks;
  if (total_hits <= 24) {
    for (int64_t k = 1; k <= total_hits; ++k) ks.push_back(k);
  } else {
    const int64_t stride = total_hits / 12;
    for (int64_t k = 1; k <= total_hits; k += stride) ks.push_back(k);
    ks.push_back(2);
    ks.push_back(total_hits);
    ks.push_back(total_hits - 1);
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  }

  // An injected crash drops none of the unsynced frames it interrupts, so a
  // crash that leaves any behind damages the tail for recovery to stop at.
  int64_t damaged_tails = 0;
  for (int64_t k : ks) {
    const auto mode = static_cast<storage::CrashMode>(k % 3);
    SCOPED_TRACE("failing seed=" + std::to_string(seed) + " strategy=" +
                 (strategy == Strategy::kActiveTables ? "active-tables"
                                                      : "checkpoint") +
                 " k=" + std::to_string(k) +
                 " mode=" + std::to_string(static_cast<int>(mode)));
    auto disk = std::make_shared<storage::SimulatedDisk>();
    auto wal = std::make_shared<storage::WriteAheadLog>(disk);
    int crash_op;
    {
      auto db = std::make_unique<engine::Database>(disk, wal);
      MustExecute(db.get(), kDdl);
      injector.Reset();
      injector.ArmCrashAtGlobalHit(k);
      std::unique_ptr<CheckpointManager> ckpt;
      if (ckpt_period > 0) {
        ckpt = std::make_unique<CheckpointManager>(db->runtime(),
                                                   db->wal().get());
      }
      crash_op = RunUntilCrash(db.get(), ops, ckpt_period, ckpt.get());
      ASSERT_GE(crash_op, 0) << "crash did not fire (k <= H)";
      ASSERT_TRUE(injector.crashed());
    }
    // The process is dead: whatever never reached a synced WAL frame is
    // gone, and the tail may be torn or corrupted by the power cut.
    injector.Reset();
    const bool unsynced = wal->byte_size() > wal->synced_bytes();
    wal->SimulateCrash(mode);

    std::vector<std::string> actual =
        RecoverAndRefeed(disk, wal, ops, crash_op, strategy);
    const int64_t tails = wal->torn_tails_seen() + wal->corrupt_tails_seen();
    EXPECT_EQ(tails, unsynced && mode != storage::CrashMode::kClean ? 1 : 0);
    damaged_tails += tails;
    EXPECT_EQ(actual, expected);
    if (actual != expected) return;  // one detailed failure is enough
  }
  EXPECT_GT(damaged_tails, 0);
}

class CrashRecoveryTortureTest : public ::testing::TestWithParam<int> {
 protected:
  ~CrashRecoveryTortureTest() override {
    FaultInjector::Instance().Reset();
  }
};

TEST_P(CrashRecoveryTortureTest, ActiveTableStrategyMatchesOracle) {
  TortureOne(GetParam(), Strategy::kActiveTables);
}

TEST_P(CrashRecoveryTortureTest, CheckpointStrategyMatchesOracle) {
  TortureOne(GetParam(), Strategy::kCheckpoint);
}

INSTANTIATE_TEST_SUITE_P(Workloads, CrashRecoveryTortureTest,
                         ::testing::Range(0, 100));

// --- exactly-once channel delivery property ------------------------------

class ExactlyOnceProperty : public ::testing::TestWithParam<int> {
 protected:
  ~ExactlyOnceProperty() override { FaultInjector::Instance().Reset(); }
};

/// One random crash per seed; every (url, w) pair in the archive must
/// appear exactly once — a duplicate means a window was delivered twice,
/// a missing minute means one was lost.
TEST_P(ExactlyOnceProperty, NoDuplicateWindowsAcrossCrash) {
  const int seed = GetParam();
  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();
  const std::vector<Op> ops = MakeWorkload(seed);

  // Count the workload's hits, then crash at a seed-derived position.
  int64_t total_hits = 0;
  {
    engine::Database db;
    MustExecute(&db, kDdl);
    injector.EnableCounting(true);
    ASSERT_EQ(RunUntilCrash(&db, ops, 0, nullptr), -1);
    total_hits = injector.totals().hits;
    injector.Reset();
  }
  ASSERT_GT(total_hits, 0);
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2246822519u + 3);
  const int64_t k = 1 + static_cast<int64_t>(rng() % total_hits);
  SCOPED_TRACE("failing seed=" + std::to_string(seed) +
               " k=" + std::to_string(k));

  auto disk = std::make_shared<storage::SimulatedDisk>();
  auto wal = std::make_shared<storage::WriteAheadLog>(disk);
  int crash_op;
  {
    auto db = std::make_unique<engine::Database>(disk, wal);
    MustExecute(db.get(), kDdl);
    injector.ArmCrashAtGlobalHit(k);
    crash_op = RunUntilCrash(db.get(), ops, 0, nullptr);
    ASSERT_GE(crash_op, 0);
  }
  injector.Reset();
  wal->SimulateCrash(static_cast<storage::CrashMode>(seed % 3));

  std::vector<std::string> state = RecoverAndRefeed(
      disk, wal, ops, crash_op, Strategy::kActiveTables);
  ASSERT_FALSE(state.empty());
  // Each (url, c, w) row is unique under APPEND + exactly-once delivery:
  // one aggregate row per (url, window).
  std::set<std::string> seen;
  for (const std::string& row : state) {
    if (row == "-- ev_archive --") break;  // (k, v) rows may repeat
    if (row.rfind("--", 0) == 0) continue;
    EXPECT_TRUE(seen.insert(row).second) << "duplicate window row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactlyOnceProperty,
                         ::testing::Range(100, 200));

// --- failed writes abort ---------------------------------------------------
//
// A write that fails between its transaction's begin and commit aborts it:
// later writes of the same rows succeed, and the log replays to exactly the
// live tables, both in a recovery over the same WAL and on a standby fed
// the log's synced prefix.

std::vector<std::string> QueryAll(engine::Database* db,
                                  const std::vector<std::string>& queries) {
  std::vector<std::string> out;
  for (const std::string& q : queries) {
    out.push_back("-- " + q);
    for (auto& row : RowStrings(MustExecute(db, q))) out.push_back(row);
  }
  return out;
}

/// Live tables == RecoverFromWal over the same WAL == a standby fed the
/// synced prefix, for every query in `queries`.
void ExpectLogReproducesLive(engine::Database* live, const std::string& ddl,
                             const std::vector<std::string>& queries) {
  const std::vector<std::string> expected = QueryAll(live, queries);

  engine::Database recovered(live->disk(), live->wal());
  MustExecute(&recovered, ddl);
  auto replay = recovered.RecoverFromWal();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(QueryAll(&recovered, queries), expected) << "recovery";

  engine::Database standby;
  MustExecute(&standby, ddl);
  ASSERT_TRUE(standby.BeginStandby().ok());
  const storage::WriteAheadLog& wal = *live->wal();
  while (standby.repl_applied_bytes() < wal.synced_bytes()) {
    const std::string slice =
        wal.ReadSynced(standby.repl_applied_bytes(), storage::kWalSliceBytes);
    size_t consumed = 0;
    Status st = standby.ApplyReplicationFrames(slice, &consumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(consumed, 0u);
  }
  EXPECT_EQ(QueryAll(&standby, queries), expected) << "standby";
}

Status IngestValue(engine::Database* db, int64_t v, int64_t ts) {
  return db->Ingest("s", {Row{Value::Int64(v), Value::Timestamp(ts)}});
}

// A REPLACE close whose commit sync fails is retried: the retry must
// replace the previous window instead of failing on the failed attempt's
// delete stamps, and every later close must land too.
TEST(FailedWriteTest, FailedReplaceCloseAbortsAndItsRetryLands) {
  FaultInjector::Instance().Reset();
  const std::string ddl =
      "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
      "CREATE STREAM latest AS SELECT count(*) AS n FROM s "
      "<VISIBLE '1 minute'>;"
      "CREATE TABLE cur (n bigint);"
      "CREATE CHANNEL ch FROM latest INTO cur REPLACE";
  engine::Database db;
  MustExecute(&db, ddl);
  MustExecute(&db, "SET RETRY LIMIT 3; SET RETRY BACKOFF 0");
  ASSERT_TRUE(IngestValue(&db, 1, 10 * kSec).ok());
  ASSERT_TRUE(IngestValue(&db, 2, 70 * kSec).ok());  // closes minute 0
  ASSERT_TRUE(IngestValue(&db, 3, 80 * kSec).ok());
  EXPECT_EQ(RowStrings(MustExecute(&db, "SELECT n FROM cur")),
            std::vector<std::string>{"(1)"});
  FaultInjector::Instance().Arm("wal.sync", FaultPolicy::FailOnce());
  Status st = IngestValue(&db, 4, 130 * kSec);  // closes minute 1
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(RowStrings(MustExecute(&db, "SELECT n FROM cur")),
            std::vector<std::string>{"(2)"});
  ASSERT_TRUE(IngestValue(&db, 5, 140 * kSec).ok());
  ASSERT_TRUE(IngestValue(&db, 6, 190 * kSec).ok());  // closes minute 2
  EXPECT_EQ(RowStrings(MustExecute(&db, "SELECT n FROM cur")),
            std::vector<std::string>{"(2)"});
  EXPECT_EQ(db.runtime()->GetChannel("ch")->watermark(), 3 * kMin);
  FaultInjector::Instance().Reset();
  ExpectLogReproducesLive(&db, ddl, {"SELECT n FROM cur"});
}

// A DELETE whose commit sync fails, and an UPDATE whose third WAL append
// (its inserted rows) fails, leave the rows live and writable.
TEST(FailedWriteTest, FailedDeleteAndUpdateAbort) {
  FaultInjector::Instance().Reset();
  const std::string ddl =
      "CREATE TABLE t (a bigint, b varchar); CREATE INDEX t_a ON t (a)";
  engine::Database db;
  MustExecute(&db, ddl);
  MustExecute(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  FaultInjector::Instance().Arm("wal.sync", FaultPolicy::FailOnce());
  EXPECT_FALSE(db.Execute("DELETE FROM t WHERE a = 1").ok());
  EXPECT_EQ(MustExecute(&db, "SELECT count(*) FROM t").rows[0][0].AsInt64(),
            3);
  MustExecute(&db, "DELETE FROM t WHERE a = 1");

  FaultInjector::Instance().Arm("wal.append", FaultPolicy::FailNth(3));
  EXPECT_FALSE(db.Execute("UPDATE t SET a = a + 10").ok());
  EXPECT_EQ(RowStrings(MustExecute(&db, "SELECT a, b FROM t ORDER BY a")),
            (std::vector<std::string>{"(2, y)", "(3, z)"}));
  MustExecute(&db, "UPDATE t SET a = a + 10");
  const std::vector<std::string> queries = {
      "SELECT a, b FROM t ORDER BY a", "SELECT b FROM t WHERE a = 12",
      "SELECT b FROM t WHERE a = 2"};
  EXPECT_EQ(QueryAll(&db, queries),
            (std::vector<std::string>{"-- " + queries[0], "(12, y)",
                                      "(13, z)", "-- " + queries[1], "(y)",
                                      "-- " + queries[2]}));
  FaultInjector::Instance().Reset();
  ExpectLogReproducesLive(&db, ddl, queries);
}

// A window close whose commit sync fails must not commit on replay: with
// no retry the live table never gets the window, and with retries it gets
// it once. A recovery and a standby must agree.
TEST(FailedWriteTest, FailedSyncDoesNotCommitOnReplay) {
  const std::string ddl =
      "CREATE STREAM s (v bigint, ts timestamp CQTIME USER);"
      "CREATE STREAM per_min AS SELECT count(*) AS n, cq_close(*) AS w "
      "FROM s <VISIBLE '1 minute'>;"
      "CREATE TABLE hist (n bigint, w timestamp);"
      "CREATE CHANNEL ch FROM per_min INTO hist APPEND";
  for (int limit : {1, 3}) {
    SCOPED_TRACE("retry limit " + std::to_string(limit));
    FaultInjector::Instance().Reset();
    engine::Database db;
    MustExecute(&db, ddl);
    MustExecute(&db, "SET RETRY LIMIT " + std::to_string(limit) +
                         "; SET RETRY BACKOFF 0");
    ASSERT_TRUE(IngestValue(&db, 1, 10 * kSec).ok());
    FaultInjector::Instance().Arm("wal.sync", FaultPolicy::FailOnce());
    EXPECT_EQ(IngestValue(&db, 2, 70 * kSec).ok(), limit > 1);  // minute 0
    ASSERT_TRUE(IngestValue(&db, 3, 80 * kSec).ok());
    ASSERT_TRUE(IngestValue(&db, 4, 130 * kSec).ok());  // closes minute 1
    const std::vector<std::string> expected =
        limit > 1 ? std::vector<std::string>{"(1, 1970-01-01 00:01:00)",
                                             "(2, 1970-01-01 00:02:00)"}
                  : std::vector<std::string>{"(2, 1970-01-01 00:02:00)"};
    EXPECT_EQ(RowStrings(MustExecute(&db, "SELECT n, w FROM hist ORDER BY w")),
              expected);
    FaultInjector::Instance().Reset();
    ExpectLogReproducesLive(&db, ddl, {"SELECT n, w FROM hist ORDER BY w"});
  }
}

// A page write that fails inside a multi-row INSERT aborts it, but the
// heap keeps every row the INSERT's record logs, so the RowIds of later
// rows, and the logged delete of one of them, agree with a replay.
TEST(FailedWriteTest, FailedPageWriteKeepsTheHeapInStepWithTheLog) {
  FaultInjector::Instance().Reset();
  const std::string ddl = "CREATE TABLE t (a bigint, b varchar)";
  engine::DatabaseOptions options;
  options.heap_page_size = 256;
  engine::Database db(options);
  MustExecute(&db, ddl);
  // About 50 bytes a row, so the INSERT flushes a page after 5 rows.
  const std::string pad(40, 'p');
  std::string insert = "INSERT INTO t VALUES (0, '" + pad + "')";
  for (int i = 1; i < 10; ++i) {
    insert += ", (" + std::to_string(i) + ", '" + pad + "')";
  }
  FaultInjector::Instance().Arm("disk.write", FaultPolicy::FailOnce());
  EXPECT_FALSE(db.Execute(insert).ok());
  EXPECT_EQ(FaultInjector::Instance().totals().fires, 1);
  FaultInjector::Instance().Reset();
  MustExecute(&db, "INSERT INTO t VALUES (100, 'y'), (101, 'z')");
  MustExecute(&db, "DELETE FROM t WHERE a = 100");
  const std::vector<std::string> queries = {"SELECT a, b FROM t ORDER BY a"};
  EXPECT_EQ(QueryAll(&db, queries),
            (std::vector<std::string>{"-- " + queries[0], "(101, z)"}));
  ExpectLogReproducesLive(&db, ddl, queries);
}

// --- seeded failed-write sweep ---------------------------------------------
//
// One seeded workload of APPEND and REPLACE channel closes, autocommit
// INSERT/UPDATE/DELETE and one BEGIN ... COMMIT, run once for every k-th
// hit of wal.append, of wal.sync and of disk.write (the live heap's pages
// are small, so its appends flush pages), under RETRY LIMIT 1 and 3. That
// hit FAILs once (the engine stays up). Only the operation it hit may
// fail; every later write must succeed, and the log must reproduce the
// live tables in a recovery and on a standby.

const char* kSweepDdl =
    "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER);"
    "CREATE STREAM url_counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
    "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
    "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
    "CREATE INDEX archive_url ON archive (url);"
    "CREATE CHANNEL arch_ch FROM url_counts INTO archive APPEND;"
    "CREATE STREAM totals AS SELECT count(*) AS n, cq_close(*) AS w "
    "FROM clicks <VISIBLE '1 minute'>;"
    "CREATE TABLE cur (n bigint, w timestamp);"
    "CREATE CHANNEL cur_ch FROM totals INTO cur REPLACE;"
    "CREATE TABLE audit (id bigint, note varchar);"
    "CREATE INDEX audit_id ON audit (id)";

const std::vector<std::string> kSweepQueries = {
    "SELECT url, c, w FROM archive ORDER BY w, url, c",
    "SELECT c, w FROM archive WHERE url = '/b' ORDER BY w",
    "SELECT n, w FROM cur ORDER BY w, n",
    "SELECT id, note FROM audit ORDER BY id, note",
    "SELECT note FROM audit WHERE id = 2 ORDER BY note"};

/// One operation: a batch of clicks, or SQL statements run in order until
/// one fails (a single DML statement, or a BEGIN ... COMMIT block).
struct SweepOp {
  std::vector<Row> clicks;
  std::vector<std::string> sql;
};

std::vector<SweepOp> MakeSweepWorkload(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 5);
  const char* urls[] = {"/a", "/b", "/c"};
  std::vector<SweepOp> ops;
  int64_t next_id = 1;
  auto some_id = [&] {
    return std::to_string(1 + rng() % static_cast<uint32_t>(next_id));
  };
  for (int minute = 0; minute < 6; ++minute) {
    SweepOp ingest;
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      ingest.clicks.push_back(
          Row{Value::String(urls[rng() % 3]),
              Value::Timestamp(minute * kMin + (1 + i * 10) * kSec)});
    }
    ops.push_back(std::move(ingest));
    const int dml = 1 + static_cast<int>(rng() % 2);
    for (int d = 0; d < dml; ++d) {
      switch (rng() % 4) {
        case 0:
          ops.push_back({{},
                         {"INSERT INTO audit VALUES (" +
                          std::to_string(next_id) + ", 'n" +
                          std::to_string(minute) + "'), (" +
                          std::to_string(next_id + 1) + ", 'm')"}});
          next_id += 2;
          break;
        case 1:
          ops.push_back({{},
                         {"UPDATE audit SET note = 'u" +
                          std::to_string(minute) + "' WHERE id <= " +
                          some_id()}});
          break;
        case 2:
          ops.push_back({{}, {"DELETE FROM audit WHERE id = " + some_id()}});
          break;
        default:
          ops.push_back({{},
                         {"UPDATE audit SET id = id + 1 WHERE id = " +
                          some_id()}});
          break;
      }
    }
    if (minute == 2) {
      ops.push_back({{},
                     {"BEGIN",
                      "INSERT INTO audit VALUES (" +
                          std::to_string(next_id++) + ", 't')",
                      "UPDATE audit SET note = 'in-txn' WHERE id = " +
                          some_id(),
                      "DELETE FROM audit WHERE id = " + some_id(),
                      "COMMIT"}});
    }
  }
  // Close the last minute.
  ops.push_back({{Row{Value::String("/a"), Value::Timestamp(7 * kMin)}}, {}});
  return ops;
}

Status ApplySweepOp(engine::Database* db, const SweepOp& op) {
  if (!op.clicks.empty()) return db->Ingest("clicks", op.clicks);
  for (const std::string& sql : op.sql) {
    RETURN_IF_ERROR(db->Execute(sql).status());
  }
  return Status::OK();
}

class FailedWriteSweep : public ::testing::TestWithParam<int> {
 protected:
  ~FailedWriteSweep() override { FaultInjector::Instance().Reset(); }

  static engine::DatabaseOptions LiveOptions() {
    engine::DatabaseOptions options;
    options.heap_page_size = 128;
    return options;
  }
};

TEST_P(FailedWriteSweep, LaterWritesLandAndTheLogReproducesLive) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();
  const std::vector<SweepOp> ops = MakeSweepWorkload(GetParam());

  // Counting run: how often the workload hits each point.
  std::map<std::string, int64_t> hits;
  {
    engine::Database db(LiveOptions());
    MustExecute(&db, kSweepDdl);
    injector.EnableCounting(true);
    for (const SweepOp& op : ops) {
      Status st = ApplySweepOp(&db, op);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (const auto& info : injector.Snapshot()) hits[info.point] = info.hits;
    injector.Reset();
  }
  ASSERT_GT(hits["wal.append"], 0);
  ASSERT_GT(hits["wal.sync"], 0);
  ASSERT_GT(hits["disk.write"], 0);

  for (const char* point : {"wal.append", "wal.sync", "disk.write"}) {
    for (int64_t k = 1; k <= hits[point]; ++k) {
      for (int limit : {1, 3}) {
        SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " point=" +
                     point + " k=" + std::to_string(k) +
                     " retry_limit=" + std::to_string(limit));
        engine::Database db(LiveOptions());
        MustExecute(&db, kSweepDdl);
        MustExecute(&db, "SET RETRY LIMIT " + std::to_string(limit) +
                             "; SET RETRY BACKOFF 0");
        injector.Reset();
        injector.Arm(point, FaultPolicy::FailNth(k));
        int fired_at = -1;
        for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
          const Status st = ApplySweepOp(&db, ops[i]);
          if (fired_at < 0 && injector.totals().fires > 0) fired_at = i;
          EXPECT_TRUE(st.ok() || i == fired_at)
              << "op " << i << " failed after the fault fired at op "
              << fired_at << ": " << st.ToString();
        }
        EXPECT_GE(fired_at, 0) << "the fault never fired";
        injector.Reset();
        ExpectLogReproducesLive(&db, kSweepDdl, kSweepQueries);
        if (HasFailure()) return;  // one detailed failure is enough
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailedWriteSweep, ::testing::Range(0, 4));

// --- SQL surface ---------------------------------------------------------

TEST(FaultSqlTest, SetFaultAndShowFaults) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db, "SET FAULT 'wal.sync' FAIL NTH 2");
  auto shown = MustExecute(&db, "SHOW FAULTS");
  ASSERT_EQ(shown.rows.size(), 1u);
  EXPECT_EQ(shown.rows[0][0].AsString(), "wal.sync");
  EXPECT_EQ(shown.rows[0][1].AsString(), "fail-nth(2)");

  MustExecute(&db, "CREATE TABLE t (a bigint)");
  MustExecute(&db, "INSERT INTO t VALUES (1)");  // sync #1 passes
  auto failed = db.Execute("INSERT INTO t VALUES (2)");  // sync #2 fires
  EXPECT_FALSE(failed.ok());

  // While the injector is active it counts hits at every point, so other
  // points (disk.write, wal.append) may show up with policy "off"; find
  // the armed one.
  shown = MustExecute(&db, "SHOW FAULTS");
  bool saw_sync = false;
  for (const Row& row : shown.rows) {
    if (row[0].AsString() == "wal.sync") {
      saw_sync = true;
      EXPECT_EQ(row[3].AsInt64(), 1);  // one fire recorded
    }
  }
  EXPECT_TRUE(saw_sync);

  MustExecute(&db, "SET FAULT RESET");
  EXPECT_EQ(MustExecute(&db, "SHOW FAULTS").rows.size(), 0u);
  MustExecute(&db, "INSERT INTO t VALUES (3)");
  ExpectLogReproducesLive(&db, "CREATE TABLE t (a bigint)",
                          {"SELECT a FROM t ORDER BY a"});
}

TEST(FaultSqlTest, SetFaultCrashLatches) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint)");
  MustExecute(&db, "SET FAULT 'wal.append' CRASH NTH 1");
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (1)").ok());
  // Latched: every durable operation now fails until reset.
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (2)").ok());
  EXPECT_TRUE(FaultInjector::Instance().crashed());
  MustExecute(&db, "SET FAULT RESET");
  MustExecute(&db, "INSERT INTO t VALUES (3)");
}

TEST(FaultSqlTest, ShowStatsHasRecoveryScope) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db, "CREATE TABLE t (a bigint)");
  MustExecute(&db, "INSERT INTO t VALUES (1)");
  engine::Database fresh(db.disk(), db.wal());
  MustExecute(&fresh, "CREATE TABLE t (a bigint)");
  ASSERT_TRUE(fresh.RecoverFromWal().ok());
  auto stats = MustExecute(&fresh, "SHOW STATS");
  bool saw_replays = false;
  for (const Row& row : stats.rows) {
    if (row[0].AsString() == "recovery" && row[1].AsString() == "wal" &&
        row[2].AsString() == "replays") {
      saw_replays = true;
      EXPECT_EQ(row[3].AsInt64(), 1);
    }
  }
  EXPECT_TRUE(saw_replays);
}

}  // namespace
}  // namespace streamrel::stream
