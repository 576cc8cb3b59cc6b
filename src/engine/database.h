#ifndef STREAMREL_ENGINE_DATABASE_H_
#define STREAMREL_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rwlock.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/planner.h"
#include "sql/parser.h"
#include "storage/disk.h"
#include "storage/transaction.h"
#include "storage/wal.h"
#include "stream/recovery.h"
#include "stream/runtime.h"

namespace streamrel::engine {

/// Engine configuration.
struct DatabaseOptions {
  storage::DiskModel disk_model;
  size_t heap_page_size = 64 * 1024;
};

/// Result of one statement: rows for SELECT, a tag for DDL/DML.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  std::string message;  // e.g. "CREATE TABLE", "INSERT 3"
};

/// Point-in-time engine statistics: the full metrics-registry snapshot
/// (every per-stream/CQ/channel/aggregator counter and gauge the runtime
/// tracks) plus storage-layer totals. `SHOW STATS` returns the same data
/// as rows.
struct EngineStats {
  std::vector<stream::MetricSample> metrics;
  storage::DiskStats disk;
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
};

/// The stream-relational database: a full SQL engine (tables, indexes,
/// MVCC transactions, WAL) with TruSQL stream extensions (streams, windows,
/// continuous queries, derived streams, channels, active tables) —
/// the paper's Continuous Analytics system.
///
/// Usage: Execute() runs DDL, INSERT, and snapshot SELECTs.
/// CreateContinuousQuery() starts a CQ from a stream-referencing SELECT and
/// returns a handle for subscribing to its per-window results. Ingest()
/// pushes ordered rows into a raw stream, driving the whole dataflow.
///
/// Thread safety: public entry points follow the lock hierarchy of DESIGN
/// decision 11. Control-plane statements (CREATE/DROP/SET, plus the
/// control-plane APIs CreateContinuousQuery, DropContinuousQuery,
/// Subscribe/Unsubscribe, Register/UnregisterStatsProvider, RecoverFromWal)
/// take the engine rwlock exclusive and therefore still run one at a time.
/// Everything else — Ingest, AdvanceTime, snapshot SELECTs, DML,
/// StatsSnapshot, SHOW STATS — takes it shared, so data-plane work on
/// disjoint streams runs concurrently: each ingest serializes only on its
/// stream's own ingest lock, table DML serializes on the runtime's DML
/// lock, and sys_* refreshes serialize on a dedicated sys-table lock. The
/// rwlock is re-entrant (shared-under-anything is a no-op; exclusive
/// recurses) because CQ delivery callbacks fire inside Ingest and may
/// legitimately call back into data-plane entry points. Callbacks must NOT
/// run control-plane statements: that would be a shared→exclusive upgrade,
/// which debug builds abort on.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  /// Re-opens a database over existing storage (restart simulation): the
  /// catalog starts empty — re-run the DDL, then call RecoverFromWal().
  Database(std::shared_ptr<storage::SimulatedDisk> disk,
           std::shared_ptr<storage::WriteAheadLog> wal,
           DatabaseOptions options = DatabaseOptions());

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one or more ';'-separated statements; returns the last
  /// statement's result. Continuous SELECTs are rejected here — use
  /// CreateContinuousQuery.
  Result<QueryResult> Execute(const std::string& sql);

  /// Starts a named continuous query from a SELECT over a windowed stream.
  Result<stream::ContinuousQuery*> CreateContinuousQuery(
      const std::string& name, const std::string& select_sql,
      bool allow_shared = true);

  Status DropContinuousQuery(const std::string& name);

  /// Pushes ordered rows into a raw stream. For CQTIME SYSTEM streams pass
  /// `system_time`; CQTIME USER streams read their timestamp column.
  Status Ingest(const std::string& stream, const std::vector<Row>& rows,
                int64_t system_time = INT64_MIN);

  /// Columnar ingest: moves a decoded ColumnBatch straight into the
  /// runtime's ingest body, skipping the row-vector packing.
  Status Ingest(const std::string& stream, exec::ColumnBatch&& batch,
                int64_t system_time = INT64_MIN);

  /// Heartbeat: closes windows up to `watermark` without new data.
  Status AdvanceTime(const std::string& stream, int64_t watermark);

  /// WAL replay into the (re-created) tables; returns channel watermarks
  /// and checkpoint blobs for the recovery strategies in stream/recovery.h.
  Result<stream::WalReplayResult> RecoverFromWal();

  // --- replication / hot standby --------------------------------------------

  /// Where this engine sits in a replication pair. A fresh engine is the
  /// primary; BeginStandby() makes it a read-only standby continuously
  /// applying the primary's shipped WAL; PROMOTE (or PromoteStandby())
  /// turns a standby into a serving primary.
  enum class ReplicationRole { kPrimary = 0, kStandby = 1, kPromoted = 2 };

  /// Enters standby mode. Must run after the schema DDL has been mirrored
  /// (DDL is not WAL-logged — the standby re-runs it, exactly like a
  /// restart). From here until promotion the engine is read-only: DML,
  /// DDL, and ingest are rejected; snapshot SELECTs and SHOW STATS serve.
  Status BeginStandby();

  /// Applies a shipped slice of the primary's synced WAL: decodes whole
  /// checksum-valid frames (a trailing partial frame is left for the next
  /// fetch), appends them to this engine's own WAL, replays them through
  /// the persistent incremental applier, and syncs. `*consumed` reports
  /// how many bytes of `bytes` were applied — the standby's next fetch
  /// offset advances by exactly that. A complete frame with a bad
  /// checksum is an in-flight damage rejection (kIoError, counted under
  /// repl/standby/apply_errors): nothing past the last good frame
  /// applies, and a re-fetch self-heals because the source prefix is
  /// intact by the PR 3 crash model. Fault point: `repl.apply`.
  Status ApplyReplicationFrames(const std::string& bytes, size_t* consumed);

  /// Standby -> primary: finishes incremental replay (aborts orphan
  /// transactions), resumes channels and CQs from their durable
  /// watermarks (the active-table strategy), and re-opens writes.
  Status PromoteStandby();

  /// Hook run by the PROMOTE statement BEFORE PromoteStandby(), outside
  /// any engine lock — the standby server uses it to stop the replication
  /// fetch loop (whose apply calls take the exclusive lock; joining that
  /// thread under a lock guard would deadlock).
  using PromotionHandler = std::function<Status()>;
  void SetPromotionHandler(PromotionHandler handler);

  ReplicationRole replication_role() const {
    return static_cast<ReplicationRole>(
        repl_role_.load(std::memory_order_acquire));
  }

  /// Byte offset into the primary's WAL this standby has applied+synced;
  /// the replication fetch loop resumes from here across reconnects.
  int64_t repl_applied_bytes() const {
    return repl_applied_bytes_.load(std::memory_order_relaxed);
  }
  int64_t repl_applied_records() const {
    return repl_applied_records_.load(std::memory_order_relaxed);
  }

  // Component access (benchmarks, tests, recovery drivers).
  catalog::Catalog* catalog() { return &catalog_; }
  storage::TransactionManager* txns() { return &txns_; }
  stream::StreamRuntime* runtime() { return &runtime_; }
  const std::shared_ptr<storage::SimulatedDisk>& disk() const {
    return disk_;
  }
  const std::shared_ptr<storage::WriteAheadLog>& wal() const { return wal_; }

  /// Logical clock: the max watermark observed across streams; INSERT
  /// transactions commit at this time (so CQ window-consistent snapshots
  /// order them against window closes). Atomic: concurrent ingests on
  /// disjoint streams race to CAS-max it.
  int64_t now_micros() const {
    return now_micros_.load(std::memory_order_relaxed);
  }
  void SetClock(int64_t now) {
    now_micros_.store(now, std::memory_order_relaxed);
  }

  /// True while an explicit BEGIN ... COMMIT/ROLLBACK block is open.
  bool in_transaction() const {
    return active_txn_.load(std::memory_order_relaxed) !=
           storage::kInvalidTxn;
  }

  /// Rebuilds the sys_* introspection tables (sys_tables, sys_streams,
  /// sys_cqs, sys_channels) from current catalog/runtime state. Runs
  /// automatically before snapshot SELECTs that reference a sys_* table
  /// (directly or through a view); exposed for tools. Serializes on the
  /// sys-table lock so two refreshes (or a refresh and a sys scan) never
  /// interleave.
  Status RefreshSystemTables();

  /// Refreshes pull-style gauges (and WAL/disk totals) and returns the
  /// complete metrics snapshot. The struct-API twin of `SHOW STATS`.
  EngineStats StatsSnapshot();

  // --- live subscriptions (the engine side of SUBSCRIBE TO) -----------------

  /// Handle for a live subscription created by Subscribe(); pass it back
  /// to Unsubscribe() to detach.
  struct SubscriptionTicket {
    bool is_cq = false;
    std::string object;  // lowercased CQ or stream name
    int64_t id = 0;      // runtime callback id
    Schema schema;       // delivered row schema (CQ output / stream schema)
    /// Lowercased source stream (the object itself, or the CQ's input);
    /// its overload policy governs slow network consumers.
    std::string source_stream;
  };

  /// Attaches `callback` to a CQ's window-close results or a stream's
  /// published batches (CQ names win when both exist). The callback fires
  /// holding the shared engine lock and the source stream's ingest lock,
  /// on whatever thread drives ingest; it must not block indefinitely,
  /// must not run control-plane statements (CREATE/DROP/SET — that is a
  /// lock upgrade, aborted in debug builds), and must not fail the engine
  /// (return OK).
  Result<SubscriptionTicket> Subscribe(const std::string& name,
                                       stream::CqCallback callback);

  /// Detaches a subscription; a ticket whose object has since been
  /// dropped is a no-op.
  Status Unsubscribe(const SubscriptionTicket& ticket);

  /// One replayed window of a resumed subscription: the rows the
  /// subscriber missed, regrouped into their original (close, batch)
  /// shape from the channel table's MVCC commit times.
  struct ResumeBatch {
    int64_t close = 0;
    std::vector<Row> rows;
  };

  /// Subscribe-with-resume-token: like Subscribe(), but first reconstructs
  /// every window the subscriber missed. `resume_close` is the close of
  /// the last window the subscriber fully received (the resume token).
  /// Requires a channel FROM the subscribed object: its table rows carry
  /// xmin commit_time == window close (window-consistent MVCC, DESIGN
  /// decision 6), so grouping visible rows by commit time in
  /// (resume_close, watermark] rebuilds the missed windows byte-for-byte.
  /// The live callback is attached atomically in the same exclusive
  /// section and filtered to close > max(watermark, resume_close) — no
  /// duplicate, no gap.
  Result<SubscriptionTicket> SubscribeResume(
      const std::string& name, int64_t resume_close,
      stream::CqCallback callback, std::vector<ResumeBatch>* backfill);

  /// Extra metric sources folded into StatsSnapshot() (the network server
  /// publishes its `net` scope this way). Providers run holding the shared
  /// engine lock and must be thread-safe against themselves (concurrent
  /// StatsSnapshot calls overlap); re-registering a key replaces the
  /// provider.
  using StatsProvider =
      std::function<void(std::vector<stream::MetricSample>*)>;
  void RegisterStatsProvider(const std::string& key, StatsProvider provider);
  void UnregisterStatsProvider(const std::string& key);

 private:
  /// True for statements that mutate engine structure (CREATE/DROP/SET)
  /// and therefore take the engine rwlock exclusive; everything else runs
  /// shared.
  static bool IsExclusiveStatement(const sql::Statement& stmt);
  /// True when the SELECT reads a sys_* table, directly or transitively
  /// through views — those queries refresh and scan under the sys lock.
  bool SelectReferencesSysTables(const sql::SelectStmt& stmt) const;

  Result<QueryResult> ExecuteStatement(const sql::Statement& stmt);
  Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt);
  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt);
  Result<QueryResult> ExecuteVacuum(const sql::VacuumStmt& stmt);
  Result<QueryResult> ExecuteExplain(const sql::ExplainStmt& stmt);
  Result<QueryResult> ExecuteTransaction(const sql::TransactionStmt& stmt);
  Result<QueryResult> ExecuteShowStats(const sql::ShowStatsStmt& stmt);
  Result<QueryResult> ExecuteSet(const sql::SetStmt& stmt);
  Result<QueryResult> ExecuteSetFault(const sql::SetFaultStmt& stmt);
  Result<QueryResult> ExecuteShowFaults(const sql::ShowFaultsStmt& stmt);
  /// Attaches `callback` to the CQ or stream `name` (CQ names win); the
  /// caller holds the engine lock exclusive.
  Result<SubscriptionTicket> AttachCallbackLocked(const std::string& name,
                                                  stream::CqCallback callback);
  /// PROMOTE. Dispatched from Execute() with NO engine lock held: the
  /// promotion handler joins the replication fetch thread, whose apply
  /// calls take the exclusive lock — see SetPromotionHandler().
  Result<QueryResult> ExecutePromote();

  /// Runs one DML statement's writes in a logged transaction: the open
  /// explicit one, or else an autocommit one that commits now. A failure
  /// aborts that transaction, an explicit one whole. Caller holds DML lock.
  Status Write(const std::function<Status(storage::TxnId)>& write);
  /// `table`'s rows (and ids) visible now that satisfy `where` (nullable).
  struct Matches {
    std::vector<storage::RowId> ids;
    std::vector<Row> rows;
  };
  Result<Matches> CollectMatches(catalog::TableInfo* table,
                                 const sql::Expr* where);
  Result<QueryResult> ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecuteCreateStream(const sql::CreateStreamStmt& stmt);
  Result<QueryResult> ExecuteCreateDerivedStream(
      const sql::CreateDerivedStreamStmt& stmt);
  Result<QueryResult> ExecuteCreateView(const sql::CreateViewStmt& stmt);
  Result<QueryResult> ExecuteCreateChannel(const sql::CreateChannelStmt& stmt);
  Result<QueryResult> ExecuteCreateIndex(const sql::CreateIndexStmt& stmt);
  Result<QueryResult> ExecuteDrop(const sql::DropStmt& stmt);

  Result<Schema> SchemaFromColumnDefs(
      const std::vector<sql::ColumnDef>& defs) const;

  /// Rank kEngine (the root of the lock hierarchy, DESIGN decision 11):
  /// exclusive for control-plane statements, shared for everything else.
  mutable EngineRwLock engine_lock_;
  /// Rank kSys: serializes sys_* table refreshes against each other and
  /// against the SELECTs that scan them (both run under shared engine).
  mutable OrderedMutex sys_mu_{LockRank::kSys, /*allow_same_rank=*/false,
                               "sys tables"};
  DatabaseOptions options_;
  std::shared_ptr<storage::SimulatedDisk> disk_;
  std::shared_ptr<storage::WriteAheadLog> wal_;
  storage::TransactionManager txns_;
  catalog::Catalog catalog_;
  stream::StreamRuntime runtime_;
  /// CAS-maxed by concurrent ingests; read lock-free everywhere.
  std::atomic<int64_t> now_micros_{0};
  /// The open explicit transaction (kInvalidTxn when none). Mutated only
  /// under the runtime's DML lock, read lock-free by snapshot SELECTs.
  std::atomic<storage::TxnId> active_txn_{storage::kInvalidTxn};
  /// Mutated under exclusive engine only; iterated under shared.
  std::map<std::string, StatsProvider> stats_providers_;
  // Recovery counters surfaced under the `recovery` scope in SHOW STATS.
  // Written under exclusive engine (RecoverFromWal), read under shared.
  int64_t recoveries_ = 0;
  int64_t last_replay_rows_ = 0;
  int64_t last_replay_txns_ = 0;

  // --- replication state ----------------------------------------------------
  /// ReplicationRole, widened to int for lock-free reads on the ingest and
  /// statement hot paths (the read-only gate).
  std::atomic<int> repl_role_{0};
  /// The standby's persistent incremental applier: one WalApplier spanning
  /// every ApplyReplicationFrames() call, so transaction remapping and
  /// deferred channel progress carry across shipped slices exactly as they
  /// would across one startup replay. Created by BeginStandby(), finished
  /// and destroyed by PromoteStandby(). Guarded by exclusive engine.
  std::unique_ptr<stream::WalApplier> standby_applier_;
  /// Guards promotion_handler_ and serializes concurrent PROMOTEs. Plain
  /// mutex (leaf; never held while taking ranked locks).
  std::mutex promote_mu_;
  PromotionHandler promotion_handler_;
  // Standby-side apply counters, surfaced under the `repl` scope.
  std::atomic<int64_t> repl_applied_bytes_{0};
  std::atomic<int64_t> repl_applied_records_{0};
  std::atomic<int64_t> repl_applies_{0};
  std::atomic<int64_t> repl_apply_errors_{0};
};

}  // namespace streamrel::engine

#endif  // STREAMREL_ENGINE_DATABASE_H_
