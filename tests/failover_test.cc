// High-availability failover suite (ctest label: ha).
//
// Deterministic drills first: WAL shipping frame trust (partial slices
// wait, in-flight damage is rejected and a re-fetch heals), the standby
// read-only gate and PROMOTE state machine, the primary's replication-lag
// gauges under repl.ship/repl.ack faults, reconnect-with-backoff through
// net.connect, the SHUTDOWN goodbye on drain, and exactly-once
// SUBSCRIBE ... RESUME across a plain disconnect.
//
// Then the seeded failover torture: primary server + hot standby
// (StandbyReplica fetch loop over the real wire protocol) + a network
// subscriber. A seeded workload feeds the primary until an injected
// global-hit kill fires; the primary's server is torn down and its WAL
// tail damaged (clean/torn/corrupt rotating by seed); the standby is
// PROMOTEd by SQL; the subscriber reconnects with its resume token; the
// driver re-feeds the rows the standby's durable state does not cover.
// The subscriber's full transcript (pre-crash pushes + backfill + live
// pushes) must be byte-identical to a no-failover oracle run, and the
// promoted standby's archive must match the oracle's.
//
// Reproduce one torture case from the SCOPED_TRACE output, e.g.
//   seed=17 k=9 mode=2
// with --gtest_filter='*Torture*/17'.

#include "net/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/time.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/wal.h"
#include "test_util.h"

namespace streamrel::net {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;
constexpr int64_t kRpc = 10'000'000;  // generous for CI machines
constexpr int64_t kNoToken = std::numeric_limits<int64_t>::min();

// One windowed dataflow with a channel into an active table: the channel
// rows are both the WAL payload replication ships and the retained
// history SUBSCRIBE ... RESUME rebuilds missed windows from.
const char* kDdl =
    "CREATE STREAM clicks (url varchar, ts timestamp CQTIME USER, "
    "bytes bigint);"
    "CREATE STREAM url_counts AS SELECT url, count(*) AS c, cq_close(*) AS w "
    "FROM clicks <VISIBLE '1 minute'> GROUP BY url;"
    "CREATE TABLE archive (url varchar, c bigint, w timestamp);"
    "CREATE CHANNEL arch_ch FROM url_counts INTO archive APPEND";

// Plain-table DDL for the WAL-shipping unit drills (every INSERT is a
// logged transaction; no window timing involved).
const char* kTableDdl = "CREATE TABLE t (id bigint, note varchar)";

Row Click(const std::string& url, int64_t ts, int64_t bytes) {
  return Row{Value::String(url), Value::Timestamp(ts), Value::Int64(bytes)};
}

// --- seeded workload (crash_recovery_test idiom, single dataflow) ----------

struct Op {
  enum Kind { kIngest, kAdvance };
  Kind kind;
  std::vector<Row> rows;
  int64_t advance_to = 0;
};

/// Deterministic workload for `seed`. Timestamps are strictly increasing
/// and never fall on a minute boundary (777us offset), so every row
/// belongs to exactly one tumbling window and a channel watermark cleanly
/// splits rows into persisted and unpersisted.
std::vector<Op> MakeWorkload(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 29);
  std::vector<Op> ops;
  int64_t sec = 5 + static_cast<int64_t>(rng() % 20);
  const char* urls[] = {"/a", "/b", "/c", "/d"};
  const int n_ops = 10 + static_cast<int>(rng() % 6);
  for (int i = 0; i < n_ops; ++i) {
    if (rng() % 4 == 0) {  // heartbeat to a minute boundary
      const int64_t minute = sec / 60 + 1 + static_cast<int64_t>(rng() % 2);
      sec = minute * 60 + 1 + static_cast<int64_t>(rng() % 30);
      ops.push_back(Op{Op::kAdvance, {}, minute * kMin});
      continue;
    }
    Op op{Op::kIngest, {}, 0};
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < n; ++r) {
      sec += 1 + static_cast<int64_t>(rng() % 40);
      op.rows.push_back(Click(urls[rng() % 4], sec * kSec + 777,
                              static_cast<int64_t>(rng() % 1000)));
    }
    ops.push_back(std::move(op));
  }
  // Close every window so the oracle's final transcript is complete.
  ops.push_back(Op{Op::kAdvance, {}, (sec / 60 + 2) * kMin});
  return ops;
}

Status ApplyOp(engine::Database* db, const Op& op) {
  if (op.kind == Op::kIngest) return db->Ingest("clicks", op.rows);
  return db->AdvanceTime("clicks", op.advance_to);
}

// --- transcripts -----------------------------------------------------------

/// One delivered window as a canonical line. Rows are sorted within the
/// window: live delivery emits aggregator order, resume backfill emits
/// channel-table RowId order — the set, not the order, is the contract.
std::string BatchLine(int64_t close, const std::vector<Row>& rows) {
  std::vector<std::string> strs;
  strs.reserve(rows.size());
  for (const Row& row : rows) strs.push_back(RowToString(row));
  std::sort(strs.begin(), strs.end());
  std::string line = std::to_string(close) + ":";
  for (const std::string& s : strs) line += " " + s;
  return line;
}

struct OracleResult {
  std::vector<std::string> transcript;  // one BatchLine per delivered window
  std::vector<std::string> archive;     // final archive table state
  int64_t last_close = kNoToken;
  int64_t fault_hits = 0;     // engine fault-point hits the workload produces
  int64_t wal_sync_hits = 0;  // the wal.sync subset (commit boundaries)
};

/// The no-failover ground truth: one in-process engine runs the whole
/// workload with a live subscriber attached; counting mode learns how
/// many fault-point hits the workload produces (the kill-sweep domain).
OracleResult RunOracle(const std::vector<Op>& ops) {
  FaultInjector::Instance().Reset();
  engine::Database db;
  MustExecute(&db, kDdl);
  OracleResult oracle;
  auto ticket = db.Subscribe(
      "url_counts", [&oracle](int64_t close, const std::vector<Row>& rows) {
        oracle.transcript.push_back(BatchLine(close, rows));
        oracle.last_close = close;
        return Status::OK();
      });
  EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
  FaultInjector::Instance().EnableCounting(true);
  for (const Op& op : ops) {
    Status st = ApplyOp(&db, op);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  oracle.fault_hits = FaultInjector::Instance().totals().hits;
  for (const auto& point : FaultInjector::Instance().Snapshot()) {
    if (point.point == "wal.sync") oracle.wal_sync_hits = point.hits;
  }
  FaultInjector::Instance().Reset();
  oracle.archive = RowStrings(
      MustExecute(&db, "SELECT url, c, w FROM archive ORDER BY w, url"));
  return oracle;
}

// --- WAL shipping trust drills ---------------------------------------------

TEST(WalShipping, SliceRoundTripsPartialWaitsDamageRejected) {
  FaultInjector::Instance().Reset();
  engine::Database primary;
  MustExecute(&primary, kTableDdl);
  for (int i = 0; i < 8; ++i) {
    MustExecute(&primary, "INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 'row" + std::to_string(i) + "')");
  }
  const storage::WriteAheadLog& wal = *primary.wal();
  ASSERT_GT(wal.synced_bytes(), 0);
  const std::string all = wal.ReadSynced(0, 1 << 20);
  ASSERT_EQ(static_cast<int64_t>(all.size()), wal.synced_bytes());

  // The whole slice decodes to exactly the synced records.
  size_t consumed = 0;
  std::vector<storage::WalRecord> records;
  ASSERT_TRUE(
      storage::WriteAheadLog::DecodeShipped(all, &consumed, &records).ok());
  EXPECT_EQ(consumed, all.size());
  EXPECT_EQ(static_cast<int64_t>(records.size()), wal.synced_records());

  // A mid-frame cut is not an error: whole frames consume, the trailing
  // partial frame waits for the next fetch.
  consumed = 0;
  records.clear();
  std::string truncated = all.substr(0, all.size() - 3);
  ASSERT_TRUE(storage::WriteAheadLog::DecodeShipped(truncated, &consumed,
                                                    &records)
                  .ok());
  EXPECT_LT(consumed, truncated.size());
  EXPECT_LT(records.size(), static_cast<size_t>(wal.synced_records()));
  // The unconsumed remainder plus the rest of the log decodes cleanly —
  // exactly what a re-fetch from the consumed offset returns.
  std::string rest = all.substr(consumed);
  size_t consumed2 = 0;
  std::vector<storage::WalRecord> records2;
  ASSERT_TRUE(storage::WriteAheadLog::DecodeShipped(rest, &consumed2,
                                                    &records2)
                  .ok());
  EXPECT_EQ(consumed + consumed2, all.size());
  EXPECT_EQ(records.size() + records2.size(),
            static_cast<size_t>(wal.synced_records()));

  // A COMPLETE frame damaged in flight is rejected outright (the source
  // prefix is intact by the crash model, so the bytes rotted on the wire)
  // and nothing before the damage is silently half-consumed twice.
  for (size_t i : {size_t{5}, all.size() / 2, all.size() - 1}) {
    std::string bad = all;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    consumed = 0;
    records.clear();
    Status st = storage::WriteAheadLog::DecodeShipped(bad, &consumed,
                                                      &records);
    // Damage in one frame: decode fails at that frame. (Flipping a length
    // byte can also make the tail look like a partial frame — then the
    // decode "succeeds" short and the re-fetch hits the mismatch.)
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    } else {
      EXPECT_LT(consumed, all.size()) << "byte " << i;
    }
  }
}

// Pumps every available synced byte from `primary` into `standby` through
// ApplyReplicationFrames, the way the fetch loop does, without a network.
void PumpReplication(engine::Database* primary, engine::Database* standby) {
  while (standby->repl_applied_bytes() < primary->wal()->synced_bytes()) {
    const std::string slice =
        primary->wal()->ReadSynced(standby->repl_applied_bytes(), 1 << 20);
    ASSERT_FALSE(slice.empty());
    size_t consumed = 0;
    Status st = standby->ApplyReplicationFrames(slice, &consumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(consumed, 0u);
  }
}

TEST(Failover, StandbyAppliesShippedWalAndStaysReadOnlyUntilPromote) {
  FaultInjector::Instance().Reset();
  engine::Database primary;
  MustExecute(&primary, kTableDdl);
  engine::Database standby;
  MustExecute(&standby, kTableDdl);
  ASSERT_TRUE(standby.BeginStandby().ok());
  EXPECT_EQ(standby.replication_role(),
            engine::Database::ReplicationRole::kStandby);

  for (int i = 0; i < 5; ++i) {
    MustExecute(&primary, "INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 'n" + std::to_string(i) + "')");
  }
  MustExecute(&primary, "DELETE FROM t WHERE id = 3");
  // An engine with local WAL history cannot become a standby: its log
  // could never be a byte prefix of another's.
  EXPECT_FALSE(primary.BeginStandby().ok());
  PumpReplication(&primary, &standby);
  EXPECT_EQ(standby.repl_applied_bytes(), primary.wal()->synced_bytes());
  EXPECT_EQ(standby.wal()->synced_bytes(), primary.wal()->synced_bytes());

  // The standby serves reads on the replayed state...
  const std::string q = "SELECT id, note FROM t ORDER BY id";
  EXPECT_EQ(RowStrings(MustExecute(&standby, q)),
            RowStrings(MustExecute(&primary, q)));
  // ...and rejects every write until promotion.
  EXPECT_FALSE(standby.Execute("INSERT INTO t VALUES (9, 'x')").ok());
  EXPECT_FALSE(standby.Execute("CREATE TABLE u (v bigint)").ok());
  EXPECT_FALSE(standby.Execute("DELETE FROM t WHERE id = 1").ok());
  auto rejected = standby.Execute("UPDATE t SET note = 'y' WHERE id = 1");
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("read-only"),
            std::string::npos);
  EXPECT_FALSE(standby.Ingest("t", {{Value::Int64(1)}}).ok());

  // PROMOTE on something that is not a standby: a pointer, not a crash.
  auto not_standby = primary.Execute("PROMOTE");
  ASSERT_FALSE(not_standby.ok());
  EXPECT_NE(not_standby.status().message().find("standby"),
            std::string::npos);

  auto promoted = standby.Execute("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->message, "PROMOTE");
  EXPECT_EQ(standby.replication_role(),
            engine::Database::ReplicationRole::kPromoted);
  EXPECT_FALSE(standby.Execute("PROMOTE").ok()) << "already promoted";
  // Writes open; durable history continues in the same WAL.
  MustExecute(&standby, "INSERT INTO t VALUES (9, 'after')");
  EXPECT_EQ(RowStrings(MustExecute(&standby, q)).size(), 5u);
}

TEST(Failover, InFlightDamageCountsErrorAndRefetchHeals) {
  FaultInjector::Instance().Reset();
  engine::Database primary;
  MustExecute(&primary, kTableDdl);
  engine::Database standby;
  MustExecute(&standby, kTableDdl);
  ASSERT_TRUE(standby.BeginStandby().ok());
  MustExecute(&primary, "INSERT INTO t VALUES (1, 'a')");
  MustExecute(&primary, "INSERT INTO t VALUES (2, 'b')");

  std::string slice = primary.wal()->ReadSynced(0, 1 << 20);
  std::string damaged = slice;
  damaged[6] = static_cast<char>(damaged[6] ^ 0x11);
  size_t consumed = 7;  // must be cleared even on rejection
  Status st = standby.ApplyReplicationFrames(damaged, &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(standby.repl_applied_bytes(), 0);

  // repl.apply fault: rejected before anything is decoded or appended.
  FaultInjector::Instance().Arm("repl.apply", FaultPolicy::FailOnce());
  st = standby.ApplyReplicationFrames(slice, &consumed);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(standby.repl_applied_bytes(), 0);
  FaultInjector::Instance().Disarm("repl.apply");

  // The clean re-fetch applies everything.
  ASSERT_TRUE(standby.ApplyReplicationFrames(slice, &consumed).ok());
  EXPECT_EQ(consumed, slice.size());
  EXPECT_EQ(standby.repl_applied_bytes(), primary.wal()->synced_bytes());

  // SHOW STATS FOR REPL on the standby (reads serve in standby mode)
  // exposes role, applied offsets, and both rejections.
  auto stats = standby.Execute("SHOW STATS FOR REPL");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  int64_t role = -1, applied_bytes = -1, apply_errors = -1;
  for (const Row& row : stats->rows) {
    ASSERT_GE(row.size(), 4u);
    EXPECT_EQ(row[0].AsString(), "repl");
    if (row[1].AsString() != "standby") continue;
    if (row[2].AsString() == "role") role = row[3].AsInt64();
    if (row[2].AsString() == "applied_bytes")
      applied_bytes = row[3].AsInt64();
    if (row[2].AsString() == "apply_errors") apply_errors = row[3].AsInt64();
  }
  EXPECT_EQ(role, 1) << "kStandby";
  EXPECT_EQ(applied_bytes, primary.wal()->synced_bytes());
  EXPECT_GE(apply_errors, 2);
}

// --- primary-side shipping over the wire ------------------------------------

class ReplServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    server_ = std::make_unique<Server>(&db_, options_);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_.reset();
    FaultInjector::Instance().Reset();
  }

  engine::Database db_;
  ServerOptions options_;
  std::unique_ptr<Server> server_;
};

TEST_F(ReplServerTest, FetchShipsSyncedPrefixAndAcksDriveLagGauges) {
  MustExecute(&db_, kTableDdl);
  MustExecute(&db_, "INSERT INTO t VALUES (1, 'a')");
  MustExecute(&db_, "INSERT INTO t VALUES (2, 'b')");
  const int64_t synced = db_.wal()->synced_bytes();
  const int64_t synced_records = db_.wal()->synced_records();
  ASSERT_GT(synced, 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), kRpc).ok());
  // First fetch from 0: full prefix ships; nothing is acked yet, so the
  // lag gauge honestly reads the whole synced log.
  auto frames = client.ReplFetch(0, 0, kRpc);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  EXPECT_EQ(frames->start_offset, 0u);
  EXPECT_EQ(static_cast<int64_t>(frames->bytes.size()), synced);
  EXPECT_EQ(static_cast<int64_t>(frames->primary_synced_bytes), synced);
  NetStats s = server_->stats();
  EXPECT_EQ(s.repl_acked_bytes, 0);
  EXPECT_EQ(s.repl_lag_bytes, synced);
  EXPECT_EQ(s.repl_shipped_bytes, synced);

  // The next fetch's offset IS the ack: lag collapses to zero.
  frames = client.ReplFetch(static_cast<uint64_t>(synced),
                            static_cast<uint64_t>(synced_records), kRpc);
  ASSERT_TRUE(frames.ok());
  EXPECT_TRUE(frames->bytes.empty()) << "caught up: nothing to ship";
  s = server_->stats();
  EXPECT_EQ(s.repl_acked_bytes, synced);
  EXPECT_EQ(s.repl_acked_records, synced_records);
  EXPECT_EQ(s.repl_lag_bytes, 0);
  EXPECT_EQ(s.repl_lag_records, 0);

  // SHOW STATS FOR REPL through the server joins the shipping counters.
  auto stats = client.Query("SHOW STATS FOR REPL", kRpc);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  bool saw_lag = false, saw_fetches = false;
  for (const Row& row : stats->rows) {
    EXPECT_EQ(row[0].AsString(), "repl");
    if (row[1].AsString() == "ship" && row[2].AsString() == "lag_bytes") {
      saw_lag = true;
      EXPECT_EQ(row[3].AsInt64(), 0);
    }
    if (row[1].AsString() == "ship" && row[2].AsString() == "fetches") {
      saw_fetches = true;
      EXPECT_GE(row[3].AsInt64(), 2);
    }
  }
  EXPECT_TRUE(saw_lag);
  EXPECT_TRUE(saw_fetches);
}

// A record longer than one REPL_FETCH slice must still reach the standby:
// a single row larger than the slice ships as one whole frame, and a call
// whose rows outgrow the slice is split into records that each fit. Before
// either, a fetch that held no whole frame was re-requested forever and
// stalled the standby, later records included.
TEST_F(ReplServerTest, RecordsLongerThanASliceReachTheStandby) {
  MustExecute(&db_, kTableDdl);
  engine::Database standby;
  MustExecute(&standby, kTableDdl);
  StandbyOptions ropts;
  ropts.poll_interval_micros = 500;
  StandbyReplica replica(&standby, "127.0.0.1", server_->port(), ropts);
  ASSERT_TRUE(replica.Start().ok());

  MustExecute(&db_, "INSERT INTO t VALUES (1, 'small')");
  MustExecute(&db_, "INSERT INTO t VALUES (2, '" +
                        std::string(1'500'000, 'x') + "')");
  std::string many = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) many += ", ";
    many += "(" + std::to_string(100 + i) + ", '" +
            std::string(5'000, static_cast<char>('a' + i % 26)) + "')";
  }
  MustExecute(&db_, many);  // ~1.5 MB of rows in one INSERT
  MustExecute(&db_, "INSERT INTO t VALUES (3, 'after')");

  const int64_t synced = db_.wal()->synced_bytes();
  ASSERT_GT(synced, 2 << 20);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (standby.repl_applied_bytes() < synced &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(standby.repl_applied_bytes(), synced);
  ASSERT_TRUE(replica.Stop().ok());
  // Ids and lengths give a readable failure; the notes must match too.
  const char* kDigest = "SELECT id, length(note) FROM t ORDER BY id";
  EXPECT_EQ(RowStrings(MustExecute(&standby, kDigest)),
            RowStrings(MustExecute(&db_, kDigest)));
  const char* kRows = "SELECT id, note FROM t ORDER BY id";
  EXPECT_TRUE(RowStrings(MustExecute(&standby, kRows)) ==
              RowStrings(MustExecute(&db_, kRows)));
  EXPECT_EQ(MustExecute(&standby, "SELECT count(*) FROM t").rows[0][0]
                .AsInt64(),
            303);
}

TEST_F(ReplServerTest, ShipFaultFailsFetchAckFaultOnlyInflatesLag) {
  MustExecute(&db_, kTableDdl);
  MustExecute(&db_, "INSERT INTO t VALUES (1, 'a')");
  const int64_t synced = db_.wal()->synced_bytes();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), kRpc).ok());

  // repl.ship: the fetch fails; the connection survives and the retry
  // from the same offset ships the identical bytes (idempotent source).
  FaultInjector::Instance().Arm("repl.ship", FaultPolicy::FailOnce());
  auto failed = client.ReplFetch(0, 0, kRpc);
  EXPECT_FALSE(failed.ok());
  auto retried = client.ReplFetch(0, 0, kRpc);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(retried->bytes.size()), synced);

  // repl.ack: a lost ack. The fetch still ships, but the lag gauge reads
  // stale-high until the next fetch's offset lands.
  FaultInjector::Instance().Arm("repl.ack", FaultPolicy::FailOnce());
  auto unacked = client.ReplFetch(static_cast<uint64_t>(synced),
                                  static_cast<uint64_t>(
                                      db_.wal()->synced_records()),
                                  kRpc);
  ASSERT_TRUE(unacked.ok());
  EXPECT_EQ(server_->stats().repl_acked_bytes, 0);
  EXPECT_EQ(server_->stats().repl_lag_bytes, synced);
  ASSERT_TRUE(client
                  .ReplFetch(static_cast<uint64_t>(synced),
                             static_cast<uint64_t>(
                                 db_.wal()->synced_records()),
                             kRpc)
                  .ok());
  EXPECT_EQ(server_->stats().repl_acked_bytes, synced);
  EXPECT_EQ(server_->stats().repl_lag_bytes, 0);
}

TEST_F(ReplServerTest, ConnectWithRetryRidesThroughNetConnectFault) {
  FaultInjector::Instance().Arm("net.connect", FaultPolicy::FailOnce());
  Client client;
  Client::RetryPolicy policy;
  policy.attempts = 4;
  policy.backoff_micros = 200;
  Status st =
      client.ConnectWithRetry("127.0.0.1", server_->port(), policy, kRpc);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(client.Ping(kRpc).ok());
  client.Close();

  // Against a drained server the whole budget fails cleanly.
  server_->Drain();
  Client refused;
  policy.attempts = 3;
  EXPECT_FALSE(
      refused.ConnectWithRetry("127.0.0.1", server_->port(), policy, 300'000)
          .ok());
}

TEST_F(ReplServerTest, DrainSendsShutdownGoodbye) {
  MustExecute(&db_,
              "CREATE STREAM s (v bigint, ts timestamp CQTIME SYSTEM);"
              "CREATE STREAM agg AS SELECT count(*) FROM s "
              "<VISIBLE '1 minute'>");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), kRpc).ok());
  ASSERT_TRUE(client.Subscribe("agg", kRpc).ok());
  server_->Drain();
  // The goodbye frame turns into a clean Unavailable, not a timeout.
  auto push = client.NextPush(kRpc);
  ASSERT_FALSE(push.ok());
  EXPECT_EQ(push.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(push.status().message().find("shutting down"),
            std::string::npos)
      << push.status().ToString();
}

// --- exactly-once resume without a failover ---------------------------------

TEST_F(ReplServerTest, SubscribeResumeReplaysMissedWindowsNoDupNoGap) {
  MustExecute(&db_, kDdl);
  Client sub;
  ASSERT_TRUE(sub.Connect("127.0.0.1", server_->port(), kRpc).ok());
  ASSERT_TRUE(sub.Subscribe("url_counts", kRpc).ok());

  // Two windows close while subscribed.
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/a", 10 * kSec + 777, 1),
                                    Click("/b", 20 * kSec + 777, 1)})
                  .ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 1 * kMin).ok());
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/a", 70 * kSec + 777, 1)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 2 * kMin).ok());
  std::vector<std::string> transcript;
  int64_t token = kNoToken;
  for (int i = 0; i < 2; ++i) {
    auto push = sub.NextPush(kRpc);
    ASSERT_TRUE(push.ok()) << push.status().ToString();
    transcript.push_back(BatchLine(push->close, push->rows));
    token = push->close;
  }
  EXPECT_EQ(token, 2 * kMin);
  sub.Close();

  // Two more windows close while the subscriber is away.
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/c", 130 * kSec + 777, 1)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 3 * kMin).ok());
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/d", 190 * kSec + 777, 1)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 4 * kMin).ok());

  // Resume with the token: the missed windows arrive first, rebuilt from
  // the channel table, then live delivery continues seamlessly.
  Client back;
  ASSERT_TRUE(back.Connect("127.0.0.1", server_->port(), kRpc).ok());
  ASSERT_TRUE(back.SubscribeResume("url_counts", token, kRpc).ok());
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/a", 250 * kSec + 777, 1)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 5 * kMin).ok());
  for (int i = 0; i < 3; ++i) {
    auto push = back.NextPush(kRpc);
    ASSERT_TRUE(push.ok()) << "push " << i << ": "
                           << push.status().ToString();
    transcript.push_back(BatchLine(push->close, push->rows));
  }

  // The stitched transcript is exactly the five windows, in close order,
  // each delivered once.
  ASSERT_EQ(transcript.size(), 5u);
  const int64_t closes[] = {1 * kMin, 2 * kMin, 3 * kMin, 4 * kMin,
                            5 * kMin};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(transcript[i].substr(0, transcript[i].find(':')),
              std::to_string(closes[i]))
        << transcript[i];
  }
  // A resume token at the frontier replays nothing and only tails live.
  Client tail;
  ASSERT_TRUE(tail.Connect("127.0.0.1", server_->port(), kRpc).ok());
  ASSERT_TRUE(tail.SubscribeResume("url_counts", 5 * kMin, kRpc).ok());
  ASSERT_TRUE(db_.Ingest("clicks", {Click("/b", 310 * kSec + 777, 1)}).ok());
  ASSERT_TRUE(db_.AdvanceTime("clicks", 6 * kMin).ok());
  auto push = tail.NextPush(kRpc);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->close, 6 * kMin);
}

// --- the seeded failover torture -------------------------------------------

class FailoverTorture : public ::testing::TestWithParam<int> {};

TEST_P(FailoverTorture, TranscriptSurvivesPromotionByteForByte) {
  const int seed = GetParam();
  const auto mode = static_cast<storage::CrashMode>(seed % 3);
  const std::vector<Op> ops = MakeWorkload(seed);
  const OracleResult oracle = RunOracle(ops);
  ASSERT_FALSE(oracle.transcript.empty());
  ASSERT_GT(oracle.fault_hits, 0);
  std::mt19937 krng(static_cast<uint32_t>(seed) ^ 0x9e3779b9u);
  const int64_t k =
      1 + static_cast<int64_t>(krng() %
                               static_cast<uint32_t>(oracle.fault_hits));
  SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
               " mode=" + std::to_string(static_cast<int>(mode)));

  FaultInjector::Instance().Reset();
  // Primary: engine + server, the subscriber's first home.
  engine::Database primary;
  MustExecute(&primary, kDdl);
  ServerOptions popts;
  auto pserver = std::make_unique<Server>(&primary, popts);
  ASSERT_TRUE(pserver->Start().ok());

  // Hot standby: mirrored DDL, its own server, and a live fetch loop over
  // the real wire protocol.
  engine::Database standby;
  MustExecute(&standby, kDdl);
  ServerOptions sopts;
  Server sserver(&standby, sopts);
  ASSERT_TRUE(sserver.Start().ok());
  StandbyOptions ropts;
  ropts.poll_interval_micros = 500;
  ropts.reconnect.attempts = 3;
  ropts.reconnect.backoff_micros = 500;
  StandbyReplica replica(&standby, "127.0.0.1", pserver->port(), ropts);
  standby.SetPromotionHandler([&replica] { return replica.Stop(); });
  ASSERT_TRUE(replica.Start().ok());

  Client sub;
  ASSERT_TRUE(sub.Connect("127.0.0.1", pserver->port(), kRpc).ok());
  ASSERT_TRUE(sub.Subscribe("url_counts", kRpc).ok());

  // Feed until the injected kill fires. Even seeds arm the global-hit
  // kill: the counter also ticks on the replication and network fault
  // points the standby's polling hits, so those kills land early — often
  // mid-ship, mid-ack, or mid-push. Odd seeds arm the kill on the k-th
  // wal.sync (commit boundary) instead, spreading the cut across the
  // whole workload so late failovers with deep shipped history are
  // exercised too.
  if (seed % 2 == 0 || oracle.wal_sync_hits == 0) {
    FaultInjector::Instance().ArmCrashAtGlobalHit(k);
  } else {
    const int64_t k_sync =
        1 + static_cast<int64_t>(
                krng() % static_cast<uint32_t>(oracle.wal_sync_hits));
    FaultInjector::Instance().Arm("wal.sync",
                                  FaultPolicy::CrashAtHit(k_sync));
  }
  for (const Op& op : ops) {
    if (!ApplyOp(&primary, op).ok()) break;
    // Pace the feed so the 500us fetch loop genuinely trails the primary:
    // late kills then cut a pair with real shipped history on the standby
    // instead of degenerating to "re-feed everything from scratch".
    std::this_thread::sleep_for(std::chrono::microseconds(1200));
  }
  EXPECT_TRUE(FaultInjector::Instance().crashed());

  // The primary dies: its server goes away and the unsynced WAL tail is
  // damaged. Replication only ever shipped the synced prefix, so the
  // standby is untouched by the tail mode by construction.
  pserver->Drain();
  pserver.reset();
  primary.wal()->SimulateCrash(mode);

  // Everything the primary managed to push before dying is the pre-crash
  // transcript; its last close is the resume token.
  std::vector<std::string> transcript;
  int64_t token = kNoToken;
  for (;;) {
    auto push = sub.NextPush(2'000'000);
    if (!push.ok()) break;
    transcript.push_back(BatchLine(push->close, push->rows));
    token = std::max(token, push->close);
  }
  sub.Close();

  // The "new process" world: the injected kill is over.
  FaultInjector::Instance().Reset();

  // Promote the standby by SQL through its own server, exactly like an
  // operator's client would.
  Client admin;
  Client::RetryPolicy policy;
  ASSERT_TRUE(
      admin.ConnectWithRetry("127.0.0.1", sserver.port(), policy, kRpc)
          .ok());
  auto promoted = admin.Query("PROMOTE", kRpc);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE(replica.running());
  EXPECT_EQ(standby.replication_role(),
            engine::Database::ReplicationRole::kPromoted);

  // The subscriber reconnects with its resume token: missed windows come
  // back from the channel table before any live window.
  Client resumed;
  ASSERT_TRUE(
      resumed.ConnectWithRetry("127.0.0.1", sserver.port(), policy, kRpc)
          .ok());
  ASSERT_TRUE(resumed.SubscribeResume("url_counts", token, kRpc).ok());

  // Re-feed what the standby's durable state does not cover: rows beyond
  // its channel watermark (wholly-shipped windows need no re-feed), and
  // heartbeats beyond it. Windows that re-close at or below the token are
  // archived again but filtered from delivery — no duplicates.
  stream::Channel* channel = standby.runtime()->GetChannel("arch_ch");
  ASSERT_NE(channel, nullptr);
  const int64_t w = channel->watermark();
  for (const Op& op : ops) {
    if (op.kind == Op::kIngest) {
      std::vector<Row> keep;
      for (const Row& row : op.rows) {
        if (row[1].AsTimestampMicros() > w) keep.push_back(row);
      }
      if (keep.empty()) continue;
      Status st = standby.Ingest("clicks", keep);
      ASSERT_TRUE(st.ok()) << st.ToString();
    } else if (op.advance_to > w) {
      Status st = standby.AdvanceTime("clicks", op.advance_to);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  // Collect until the oracle's final window arrives (every line after the
  // cut: backfill first, then live deliveries).
  while (transcript.size() < oracle.transcript.size()) {
    auto push = resumed.NextPush(kRpc);
    ASSERT_TRUE(push.ok()) << "after " << transcript.size() << " of "
                           << oracle.transcript.size() << " windows: "
                           << push.status().ToString();
    transcript.push_back(BatchLine(push->close, push->rows));
    if (push->close >= oracle.last_close) break;
  }

  // The invariant: the stitched transcript is byte-identical to the
  // no-failover oracle — no duplicated window, no gap, same rows.
  EXPECT_EQ(transcript, oracle.transcript);
  // And the promoted standby's durable archive matches the oracle's.
  EXPECT_EQ(RowStrings(MustExecute(
                &standby, "SELECT url, c, w FROM archive ORDER BY w, url")),
            oracle.archive);
  sserver.Drain();
  FaultInjector::Instance().Reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverTorture, ::testing::Range(0, 100));

}  // namespace
}  // namespace streamrel::net
