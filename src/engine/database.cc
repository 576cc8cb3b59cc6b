#include "engine/database.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "exec/binder.h"
#include "exec/operators.h"
#include "stream/channel.h"

namespace streamrel::engine {

Database::Database(DatabaseOptions options)
    : Database(std::make_shared<storage::SimulatedDisk>(options.disk_model),
               nullptr, options) {}

Database::Database(std::shared_ptr<storage::SimulatedDisk> disk,
                   std::shared_ptr<storage::WriteAheadLog> wal,
                   DatabaseOptions options)
    : options_(options),
      disk_(std::move(disk)),
      wal_(wal != nullptr ? std::move(wal)
                          : std::make_shared<storage::WriteAheadLog>(disk_)),
      runtime_(&catalog_, &txns_, wal_.get()) {}

bool Database::IsExclusiveStatement(const sql::Statement& stmt) {
  switch (stmt.kind()) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kCreateStream:
    case sql::StatementKind::kCreateDerivedStream:
    case sql::StatementKind::kCreateView:
    case sql::StatementKind::kCreateChannel:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kDrop:
    case sql::StatementKind::kSet:
    case sql::StatementKind::kVacuum:
      return true;
    default:
      return false;
  }
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  // Parsing needs no lock. Each statement then takes the engine rwlock in
  // the mode its class requires: CREATE/DROP/SET reshape engine structure
  // (catalog entries, CQ sets, worker fleets) and run exclusive — one at a
  // time, with no data-plane work in flight. Everything else (SELECT, DML,
  // SHOW STATS, faults, transactions) runs shared and concurrently;
  // finer-grained locks (sys, stream, DML) serialize what actually
  // conflicts.
  ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> stmts, sql::ParseSql(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("no statement to execute");
  }
  QueryResult result;
  for (const auto& stmt : stmts) {
    if (stmt->kind() == sql::StatementKind::kPromote) {
      // Deliberately lock-free: the promotion handler joins the standby's
      // replication fetch thread, and that thread's ApplyReplicationFrames
      // calls take the exclusive engine lock — holding either guard here
      // would deadlock. ExecutePromote serializes on its own mutex.
      ASSIGN_OR_RETURN(result, ExecutePromote());
    } else if (IsExclusiveStatement(*stmt)) {
      ExclusiveLockGuard lock(&engine_lock_);
      ASSIGN_OR_RETURN(result, ExecuteStatement(*stmt));
    } else {
      SharedLockGuard lock(&engine_lock_);
      ASSIGN_OR_RETURN(result, ExecuteStatement(*stmt));
    }
  }
  return result;
}

Result<QueryResult> Database::ExecuteStatement(const sql::Statement& stmt) {
  // A standby is read-only until promoted: its state is whatever the
  // primary's shipped WAL says it is, and a local write would fork the
  // two histories. Reads (SELECT / SHOW / EXPLAIN / fault controls) serve.
  if (replication_role() == ReplicationRole::kStandby) {
    switch (stmt.kind()) {
      case sql::StatementKind::kInsert:
      case sql::StatementKind::kUpdate:
      case sql::StatementKind::kDelete:
      case sql::StatementKind::kVacuum:
      case sql::StatementKind::kTransaction:
      case sql::StatementKind::kCreateTable:
      case sql::StatementKind::kCreateStream:
      case sql::StatementKind::kCreateDerivedStream:
      case sql::StatementKind::kCreateView:
      case sql::StatementKind::kCreateChannel:
      case sql::StatementKind::kCreateIndex:
      case sql::StatementKind::kDrop:
        return Status::InvalidArgument(
            "standby is read-only (replaying the primary's WAL); PROMOTE "
            "to accept writes");
      default:
        break;
    }
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStmt&>(stmt));
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt));
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(stmt));
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt));
    case sql::StatementKind::kVacuum:
      return ExecuteVacuum(static_cast<const sql::VacuumStmt&>(stmt));
    case sql::StatementKind::kExplain:
      return ExecuteExplain(static_cast<const sql::ExplainStmt&>(stmt));
    case sql::StatementKind::kTransaction:
      return ExecuteTransaction(
          static_cast<const sql::TransactionStmt&>(stmt));
    case sql::StatementKind::kShowStats:
      return ExecuteShowStats(static_cast<const sql::ShowStatsStmt&>(stmt));
    case sql::StatementKind::kSet:
      return ExecuteSet(static_cast<const sql::SetStmt&>(stmt));
    case sql::StatementKind::kSetFault:
      return ExecuteSetFault(static_cast<const sql::SetFaultStmt&>(stmt));
    case sql::StatementKind::kShowFaults:
      return ExecuteShowFaults(static_cast<const sql::ShowFaultsStmt&>(stmt));
    case sql::StatementKind::kSubscribe:
    case sql::StatementKind::kUnsubscribe:
      // Push delivery needs a connection to push to; the in-process API
      // is Database::Subscribe. Network sessions intercept these before
      // Execute.
      return Status::InvalidArgument(
          "SUBSCRIBE/UNSUBSCRIBE is only available on a network session "
          "(connect through streamrel-server)");
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const sql::CreateTableStmt&>(stmt));
    case sql::StatementKind::kCreateStream:
      return ExecuteCreateStream(
          static_cast<const sql::CreateStreamStmt&>(stmt));
    case sql::StatementKind::kCreateDerivedStream:
      return ExecuteCreateDerivedStream(
          static_cast<const sql::CreateDerivedStreamStmt&>(stmt));
    case sql::StatementKind::kCreateView:
      return ExecuteCreateView(static_cast<const sql::CreateViewStmt&>(stmt));
    case sql::StatementKind::kCreateChannel:
      return ExecuteCreateChannel(
          static_cast<const sql::CreateChannelStmt&>(stmt));
    case sql::StatementKind::kCreateIndex:
      return ExecuteCreateIndex(
          static_cast<const sql::CreateIndexStmt&>(stmt));
    case sql::StatementKind::kDrop:
      return ExecuteDrop(static_cast<const sql::DropStmt&>(stmt));
    case sql::StatementKind::kPromote:
      // Execute() dispatches PROMOTE before taking any engine lock (the
      // promotion handler joins a thread that needs the exclusive lock);
      // reaching it here means a caller bypassed that path.
      return Status::Internal("PROMOTE must be dispatched without locks");
  }
  return Status::Internal("unreachable statement kind");
}

namespace {

/// True for reserved introspection-table names.
bool IsSystemName(const std::string& name) {
  return ToLower(name).rfind("sys_", 0) == 0;
}

}  // namespace

Status Database::RefreshSystemTables() {
  // Shared engine keeps DDL out (a no-op when the caller already holds the
  // lock); the sys lock serializes rebuilds against each other and against
  // the SELECTs that scan sys tables while holding it.
  SharedLockGuard engine(&engine_lock_);
  std::lock_guard<OrderedMutex> sys_lock(sys_mu_);
  // (Re)create each sys table and fill it from live state. The writes
  // bypass the WAL: system tables are derived data, rebuilt on demand.
  auto ensure = [&](const std::string& name,
                    Schema schema) -> Result<catalog::TableInfo*> {
    catalog::TableInfo* existing = catalog_.GetTable(name);
    if (existing != nullptr) {
      RETURN_IF_ERROR(existing->heap->Truncate());
      return existing;
    }
    catalog::TableInfo info;
    info.name = name;
    info.schema = schema;
    info.heap = std::make_shared<storage::HeapTable>(schema, disk_,
                                                     options_.heap_page_size);
    RETURN_IF_ERROR(catalog_.CreateTable(std::move(info)));
    return catalog_.GetTable(name);
  };

  storage::TxnId txn = txns_.Begin();

  ASSIGN_OR_RETURN(
      catalog::TableInfo * tables,
      ensure("sys_tables", Schema({Column("name", DataType::kString),
                                   Column("columns", DataType::kInt64),
                                   Column("row_versions", DataType::kInt64),
                                   Column("bytes", DataType::kInt64),
                                   Column("indexes", DataType::kInt64)})));
  std::vector<Row> rows;
  for (const std::string& name : catalog_.TableNames()) {
    const catalog::TableInfo* info = catalog_.GetTable(name);
    rows.push_back(
        {Value::String(info->name),
         Value::Int64(static_cast<int64_t>(info->schema.num_columns())),
         Value::Int64(static_cast<int64_t>(info->heap->row_count())),
         Value::Int64(info->heap->byte_size()),
         Value::Int64(static_cast<int64_t>(info->indexes.size()))});
  }
  RETURN_IF_ERROR(stream::InsertRows(tables, std::move(rows), txn, nullptr));

  ASSIGN_OR_RETURN(
      catalog::TableInfo * streams,
      ensure("sys_streams",
             Schema({Column("name", DataType::kString),
                     Column("kind", DataType::kString),
                     Column("columns", DataType::kInt64),
                     Column("watermark", DataType::kTimestamp)})));
  rows.clear();
  for (const std::string& name : catalog_.StreamNames()) {
    const catalog::StreamInfo* info = catalog_.GetStream(name);
    int64_t wm = runtime_.watermark(name);
    rows.push_back(
        {Value::String(info->name),
         Value::String(info->is_derived ? "derived" : "raw"),
         Value::Int64(static_cast<int64_t>(info->schema.num_columns())),
         wm == INT64_MIN ? Value::Null() : Value::Timestamp(wm)});
  }
  RETURN_IF_ERROR(stream::InsertRows(streams, std::move(rows), txn, nullptr));

  ASSIGN_OR_RETURN(
      catalog::TableInfo * cqs,
      ensure("sys_cqs", Schema({Column("name", DataType::kString),
                                Column("stream", DataType::kString),
                                Column("window", DataType::kString),
                                Column("strategy", DataType::kString),
                                Column("windows_evaluated",
                                       DataType::kInt64),
                                Column("rows_emitted", DataType::kInt64),
                                Column("eval_micros", DataType::kInt64)})));
  rows.clear();
  for (const std::string& name : runtime_.CqNames()) {
    stream::ContinuousQuery* cq = runtime_.GetCq(name);
    rows.push_back(
        {Value::String(cq->name()), Value::String(cq->stream_name()),
         Value::String(cq->window().ToString()),
         Value::String(cq->is_shared() ? "shared" : "generic"),
         Value::Int64(cq->windows_evaluated()),
         Value::Int64(cq->rows_emitted()),
         Value::Int64(cq->eval_micros_total())});
  }
  RETURN_IF_ERROR(stream::InsertRows(cqs, std::move(rows), txn, nullptr));

  ASSIGN_OR_RETURN(
      catalog::TableInfo * channels,
      ensure("sys_channels",
             Schema({Column("name", DataType::kString),
                     Column("source", DataType::kString),
                     Column("target", DataType::kString),
                     Column("mode", DataType::kString),
                     Column("watermark", DataType::kTimestamp),
                     Column("rows_persisted", DataType::kInt64)})));
  rows.clear();
  for (const catalog::ChannelInfo* info : catalog_.Channels()) {
    stream::Channel* channel = runtime_.GetChannel(info->name);
    int64_t wm = channel != nullptr ? channel->watermark() : INT64_MIN;
    rows.push_back(
        {Value::String(info->name), Value::String(info->from_stream),
         Value::String(info->into_table),
         Value::String(info->mode == sql::ChannelMode::kReplace ? "replace"
                                                                : "append"),
         wm == INT64_MIN ? Value::Null() : Value::Timestamp(wm),
         Value::Int64(channel != nullptr ? channel->rows_persisted() : 0)});
  }
  RETURN_IF_ERROR(stream::InsertRows(channels, std::move(rows), txn, nullptr));

  return txns_.Commit(txn, now_micros()).status();
}

Result<QueryResult> Database::ExecuteSelect(const sql::SelectStmt& stmt) {
  // Queries over sys_* tables (directly or through views) rebuild them
  // first and keep the sys lock across the scan, so a concurrent refresh
  // can never truncate a sys table mid-read. Other SELECTs skip the
  // refresh: they read user tables, which are MVCC-safe against
  // concurrent DML.
  std::unique_lock<OrderedMutex> sys_lock(sys_mu_, std::defer_lock);
  if (SelectReferencesSysTables(stmt)) {
    sys_lock.lock();
    RETURN_IF_ERROR(RefreshSystemTables());
  }
  exec::Planner planner(&catalog_);
  ASSIGN_OR_RETURN(exec::PlannedQuery plan, planner.PlanSelect(stmt));
  if (plan.is_continuous()) {
    return Status::InvalidArgument(
        "this SELECT references a stream and therefore never terminates; "
        "register it with CreateContinuousQuery() instead");
  }
  exec::ExecContext ctx;
  ctx.txns = &txns_;
  ctx.snapshot = txns_.CurrentSnapshot();
  ctx.eval.now_micros = now_micros();
  // Inside an explicit transaction, reads see the transaction's own
  // uncommitted writes.
  ctx.reader = active_txn_.load(std::memory_order_relaxed);
  QueryResult result;
  result.schema = plan.output_schema;
  ASSIGN_OR_RETURN(result.rows, exec::CollectRows(plan.root.get(), &ctx));
  result.message = "SELECT " + std::to_string(result.rows.size());
  return result;
}

Result<QueryResult> Database::ExecuteInsert(const sql::InsertStmt& stmt) {
  // Evaluate the literal rows.
  Schema empty;
  exec::ExprBinder binder(empty);
  exec::EvalContext eval_ctx;
  eval_ctx.now_micros = now_micros();
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& exprs : stmt.rows) {
    Row row;
    row.reserve(exprs.size());
    for (const auto& e : exprs) {
      ASSIGN_OR_RETURN(exec::BoundExprPtr bound, binder.BindScalar(*e));
      Row no_input;
      ASSIGN_OR_RETURN(Value v, bound->Eval(no_input, eval_ctx));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }

  // INSERT into a stream ingests (data "arrives").
  if (catalog_.GetStream(stmt.table) != nullptr) {
    if (!stmt.columns.empty()) {
      return Status::NotImplemented(
          "column lists on stream INSERT are not supported");
    }
    RETURN_IF_ERROR(Ingest(stmt.table, rows));
    QueryResult result;
    result.message = "INSERT " + std::to_string(rows.size());
    return result;
  }

  catalog::TableInfo* table = catalog_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }

  // Map a column list onto the schema (missing columns become NULL).
  std::vector<Row> full_rows;
  if (stmt.columns.empty()) {
    full_rows = std::move(rows);
  } else {
    std::vector<size_t> positions;
    positions.reserve(stmt.columns.size());
    for (const std::string& col : stmt.columns) {
      ASSIGN_OR_RETURN(size_t idx, table->schema.FindColumn(col));
      positions.push_back(idx);
    }
    for (const Row& row : rows) {
      if (row.size() != positions.size()) {
        return Status::InvalidArgument(
            "INSERT row arity does not match column list");
      }
      Row full(table->schema.num_columns(), Value::Null());
      for (size_t i = 0; i < positions.size(); ++i) {
        full[positions[i]] = row[i];
      }
      full_rows.push_back(std::move(full));
    }
  }

  // Table writes serialize on the runtime's DML lock: shared engine mode
  // admits concurrent DML statements, and channel sink writes take the
  // same lock. (The stream branch above must NOT hold it — ingest takes
  // stream locks, which rank below DML.)
  std::lock_guard<OrderedMutex> dml_lock(*runtime_.dml_mutex());
  const size_t count = full_rows.size();
  RETURN_IF_ERROR(Write([&](storage::TxnId txn) {
    return stream::InsertRows(table, std::move(full_rows), txn, wal_.get());
  }));

  QueryResult result;
  result.message = "INSERT " + std::to_string(count);
  return result;
}

Status Database::Write(const std::function<Status(storage::TxnId)>& write) {
  // Callers hold the DML lock, so the check-then-act on active_txn_ is
  // race-free against BEGIN/COMMIT.
  const storage::TxnId open = active_txn_.load(std::memory_order_relaxed);
  if (open == storage::kInvalidTxn) {
    return storage::LoggedTxn::Run(&txns_, wal_.get(), now_micros(), write);
  }
  Status status = write(open);
  if (status.ok()) return status;
  active_txn_.store(storage::kInvalidTxn, std::memory_order_relaxed);
  return storage::LoggedTxn(&txns_, wal_.get(), open).Abort(std::move(status));
}

Result<QueryResult> Database::ExecuteTransaction(
    const sql::TransactionStmt& stmt) {
  // BEGIN/COMMIT/ROLLBACK take the DML lock: the check-then-act on the
  // open transaction must not interleave with a concurrent write picking
  // its transaction (or with another BEGIN).
  std::lock_guard<OrderedMutex> dml_lock(*runtime_.dml_mutex());
  QueryResult result;
  const storage::TxnId open = active_txn_.load(std::memory_order_relaxed);
  if (stmt.op == sql::TransactionOp::kBegin) {
    if (open != storage::kInvalidTxn) {
      return Status::InvalidArgument("a transaction is already open");
    }
    ASSIGN_OR_RETURN(storage::LoggedTxn txn,
                     storage::LoggedTxn::Begin(&txns_, wal_.get()));
    active_txn_.store(txn.id(), std::memory_order_relaxed);
    result.message = "BEGIN";
    return result;
  }
  if (open == storage::kInvalidTxn) {
    return Status::InvalidArgument("no transaction is open");
  }
  // COMMIT and ROLLBACK both end the transaction: a commit that fails has
  // aborted it.
  active_txn_.store(storage::kInvalidTxn, std::memory_order_relaxed);
  storage::LoggedTxn txn(&txns_, wal_.get(), open);
  if (stmt.op == sql::TransactionOp::kCommit) {
    RETURN_IF_ERROR(txn.Commit(now_micros()));
    result.message = "COMMIT";
  } else {
    RETURN_IF_ERROR(txn.Abort(Status::OK()));
    result.message = "ROLLBACK";
  }
  return result;
}

Result<Database::Matches> Database::CollectMatches(
    catalog::TableInfo* table, const sql::Expr* where) {
  exec::BoundExprPtr predicate;
  if (where != nullptr) {
    exec::ExprBinder binder(table->schema);
    ASSIGN_OR_RETURN(predicate, binder.BindScalar(*where));
  }
  Matches matches;
  exec::EvalContext eval;
  eval.now_micros = now_micros();
  Status inner = Status::OK();
  Status scan = table->heap->Scan(
      txns_, txns_.CurrentSnapshot(),
      active_txn_.load(std::memory_order_relaxed),
      [&](storage::RowId id, const storage::HeapTable::RowMeta&, Row&& row) {
        if (predicate != nullptr) {
          auto keep = exec::EvalPredicate(*predicate, row, eval);
          if (!keep.ok()) {
            inner = keep.status();
            return false;
          }
          if (!*keep) return true;
        }
        matches.ids.push_back(id);
        matches.rows.push_back(std::move(row));
        return true;
      });
  RETURN_IF_ERROR(inner);
  RETURN_IF_ERROR(scan);
  return matches;
}

Result<QueryResult> Database::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  catalog::TableInfo* table = catalog_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  // DML lock across collect + rewrite: the rows we matched must still be
  // the live versions when we delete/re-insert them.
  std::lock_guard<OrderedMutex> dml_lock(*runtime_.dml_mutex());
  // Bind assignment targets and value expressions (values may reference
  // the old row, e.g. SET hits = hits + 1).
  exec::ExprBinder binder(table->schema);
  std::vector<std::pair<size_t, exec::BoundExprPtr>> assignments;
  for (const auto& [column, value] : stmt.assignments) {
    ASSIGN_OR_RETURN(size_t index, table->schema.FindColumn(column));
    ASSIGN_OR_RETURN(exec::BoundExprPtr bound, binder.BindScalar(*value));
    assignments.emplace_back(index, std::move(bound));
  }
  ASSIGN_OR_RETURN(Matches matches, CollectMatches(table, stmt.where.get()));

  exec::EvalContext eval;
  for (Row& row : matches.rows) {
    Row new_row = row;
    for (const auto& [index, expr] : assignments) {
      ASSIGN_OR_RETURN(new_row[index], expr->Eval(row, eval));
    }
    row = std::move(new_row);
  }
  // Delete the old versions, then insert the new ones.
  const size_t count = matches.ids.size();
  RETURN_IF_ERROR(Write([&](storage::TxnId txn) {
    RETURN_IF_ERROR(
        stream::DeleteRows(table, matches.ids, txn, txns_, wal_.get()));
    return stream::InsertRows(table, std::move(matches.rows), txn,
                              wal_.get());
  }));

  QueryResult result;
  result.message = "UPDATE " + std::to_string(count);
  return result;
}

Result<QueryResult> Database::ExecuteDelete(const sql::DeleteStmt& stmt) {
  catalog::TableInfo* table = catalog_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  // DML lock across collect + delete (see ExecuteUpdate).
  std::lock_guard<OrderedMutex> dml_lock(*runtime_.dml_mutex());
  ASSIGN_OR_RETURN(Matches matches, CollectMatches(table, stmt.where.get()));
  RETURN_IF_ERROR(Write([&](storage::TxnId txn) {
    return stream::DeleteRows(table, matches.ids, txn, txns_, wal_.get());
  }));

  QueryResult result;
  result.message = "DELETE " + std::to_string(matches.ids.size());
  return result;
}

Result<QueryResult> Database::ExecuteVacuum(const sql::VacuumStmt& stmt) {
  // VACUUM rewrites the table's heap and indexes in place, so it runs
  // exclusive (IsExclusiveStatement): no reader, ingest or window close
  // can see the table half rebuilt. It also takes the DML lock, as every
  // table mutation does.
  std::lock_guard<OrderedMutex> dml_lock(*runtime_.dml_mutex());
  if (in_transaction()) {
    return Status::InvalidArgument(
        "VACUUM cannot run inside a transaction");
  }
  catalog::TableInfo* table = catalog_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  ASSIGN_OR_RETURN(int64_t reclaimed,
                   stream::VacuumTable(table, txns_, wal_.get()));
  QueryResult result;
  result.message = "VACUUM " + std::to_string(reclaimed);
  return result;
}

Result<QueryResult> Database::ExecuteExplain(const sql::ExplainStmt& stmt) {
  exec::Planner planner(&catalog_);
  ASSIGN_OR_RETURN(exec::PlannedQuery plan, planner.PlanSelect(*stmt.select));
  std::string text = exec::ExplainPlan(*plan.root);
  QueryResult result;
  result.schema = Schema({Column("plan", DataType::kString)});
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.push_back(Row{Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  if (plan.is_continuous()) {
    result.rows.push_back(Row{Value::String(
        "(continuous query over stream '" +
        plan.stream_leaves[0].stream_name + "' " +
        plan.stream_leaves[0].window.ToString() + ")")});
  }
  result.message = "EXPLAIN";
  return result;
}

EngineStats Database::StatsSnapshot() {
  // Shared: stats run concurrently with ingest and with each other. Every
  // source read below is either atomic, internally locked, or mutated only
  // under the exclusive engine lock.
  SharedLockGuard lock(&engine_lock_);
  EngineStats stats;
  stats.wal_records = wal_->record_count();
  stats.wal_bytes = wal_->byte_size();
  stats.disk = disk_->stats();
  std::vector<stream::MetricSample>& out = stats.metrics;
  runtime_.AppendStats(&out);
  auto add = [&out](const char* scope, const char* name, const char* metric,
                    int64_t value) {
    out.push_back(stream::MetricSample{scope, name, metric, value});
  };
  add("engine", "wal", "records", stats.wal_records);
  add("engine", "wal", "bytes", stats.wal_bytes);
  add("engine", "disk", "page_reads", stats.disk.page_reads);
  add("engine", "disk", "page_writes", stats.disk.page_writes);
  add("engine", "disk", "cache_hits", stats.disk.cache_hits);
  add("engine", "disk", "bytes_read", stats.disk.bytes_read);
  add("engine", "disk", "bytes_written", stats.disk.bytes_written);
  add("engine", "disk", "simulated_io_micros",
      stats.disk.simulated_io_micros);
  add("recovery", "wal", "replays", recoveries_);
  add("recovery", "wal", "rows_replayed", last_replay_rows_);
  add("recovery", "wal", "txns_replayed", last_replay_txns_);
  add("recovery", "wal", "torn_tails", wal_->torn_tails_seen());
  add("recovery", "wal", "corrupt_tails", wal_->corrupt_tails_seen());
  add("recovery", "wal", "midlog_corruptions",
      wal_->midlog_corruptions_seen());
  // Replication (standby side): role plus the shipped-WAL apply counters.
  // applied_bytes is the offset into the PRIMARY's log this engine has
  // made durable — the primary subtracts it from its synced size for the
  // lag gauges it publishes under the same scope.
  add("repl", "standby", "role", repl_role_.load(std::memory_order_acquire));
  add("repl", "standby", "applied_bytes",
      repl_applied_bytes_.load(std::memory_order_relaxed));
  add("repl", "standby", "applied_records",
      repl_applied_records_.load(std::memory_order_relaxed));
  add("repl", "standby", "applies",
      repl_applies_.load(std::memory_order_relaxed));
  add("repl", "standby", "apply_errors",
      repl_apply_errors_.load(std::memory_order_relaxed));
  const FaultInjector::Totals faults = FaultInjector::Instance().totals();
  add("recovery", "faults", "hits", faults.hits);
  add("recovery", "faults", "fires", faults.fires);
  add("recovery", "faults", "crashes", faults.crashes);
  // Lock-contention counters (DESIGN decision 11 / OBSERVABILITY): how
  // often each tier of the hierarchy was taken and how often (and, for the
  // engine rwlock, how long) an acquisition had to block. The runtime
  // reports its DML and stream locks itself.
  add("engine", "lock", "shared_acquisitions",
      engine_lock_.shared_acquisitions());
  add("engine", "lock", "shared_contended", engine_lock_.shared_contended());
  add("engine", "lock", "shared_wait_micros",
      engine_lock_.shared_wait_micros());
  add("engine", "lock", "exclusive_acquisitions",
      engine_lock_.exclusive_acquisitions());
  add("engine", "lock", "exclusive_contended",
      engine_lock_.exclusive_contended());
  add("engine", "lock", "exclusive_wait_micros",
      engine_lock_.exclusive_wait_micros());
  add("engine", "lock", "sys_acquisitions", sys_mu_.acquisitions());
  add("engine", "lock", "sys_contended", sys_mu_.contended());
  stream::SortSamples(&out);
  for (const auto& [key, provider] : stats_providers_) provider(&out);
  return stats;
}

Result<Database::SubscriptionTicket> Database::Subscribe(
    const std::string& name, stream::CqCallback callback) {
  // Exclusive: attaching a callback mutates vectors that delivery reads
  // lock-free under shared holds.
  ExclusiveLockGuard lock(&engine_lock_);
  return AttachCallbackLocked(name, std::move(callback));
}

Result<Database::SubscriptionTicket> Database::AttachCallbackLocked(
    const std::string& name, stream::CqCallback callback) {
  SubscriptionTicket ticket;
  ticket.object = ToLower(name);
  if (stream::ContinuousQuery* cq = runtime_.GetCq(name)) {
    ticket.is_cq = true;
    ticket.id = cq->AddCallback(std::move(callback));
    ticket.schema = cq->output_schema();
    ticket.source_stream = ToLower(cq->stream_name());
    return ticket;
  }
  const catalog::StreamInfo* info = catalog_.GetStream(name);
  if (info == nullptr) {
    return Status::NotFound("no continuous query or stream named '" + name +
                            "'");
  }
  ticket.is_cq = false;
  ASSIGN_OR_RETURN(ticket.id,
                   runtime_.SubscribeStream(name, std::move(callback)));
  ticket.schema = info->schema;
  ticket.source_stream = ticket.object;
  return ticket;
}

Status Database::Unsubscribe(const SubscriptionTicket& ticket) {
  ExclusiveLockGuard lock(&engine_lock_);
  if (ticket.is_cq) {
    // The CQ may have been dropped (its callbacks died with it).
    if (stream::ContinuousQuery* cq = runtime_.GetCq(ticket.object)) {
      cq->RemoveCallback(ticket.id);
    }
    return Status::OK();
  }
  return runtime_.UnsubscribeStream(ticket.object, ticket.id);
}

Result<Database::SubscriptionTicket> Database::SubscribeResume(
    const std::string& name, int64_t resume_close,
    stream::CqCallback callback, std::vector<ResumeBatch>* backfill) {
  // Exclusive for the whole backfill+attach: no window can close while we
  // hold it, so the handoff from replayed history to live delivery has no
  // seam — a window is in the backfill or reaches the callback, never
  // both, never neither.
  ExclusiveLockGuard lock(&engine_lock_);
  backfill->clear();
  const std::string object = ToLower(name);
  // The durable transcript we replay from is the channel that persists
  // this object's output (CREATE CHANNEL ... FROM <object> INTO <table>).
  const catalog::ChannelInfo* channel_info = nullptr;
  for (const catalog::ChannelInfo* ch : catalog_.Channels()) {
    if (ToLower(ch->from_stream) == object) {
      channel_info = ch;
      break;
    }
  }
  if (channel_info == nullptr) {
    return Status::InvalidArgument(
        "cannot resume subscription to '" + name +
        "': no channel persists it — exactly-once resume replays missed "
        "windows from a channel table");
  }
  stream::Channel* channel = runtime_.GetChannel(channel_info->name);
  if (channel == nullptr) {
    return Status::Internal("channel '" + channel_info->name +
                            "' exists in the catalog but is not running");
  }
  const int64_t watermark = channel->watermark();
  catalog::TableInfo* table = catalog_.GetTable(channel_info->into_table);
  if (table == nullptr) {
    return Status::Internal("channel table '" + channel_info->into_table +
                            "' missing");
  }
  // Rebuild the missed windows from MVCC commit times: each channel batch
  // commits with commit_time == its window close (decision 6), so the
  // rows with xmin commit time in (resume_close, watermark] ARE the
  // windows the subscriber missed, already grouped. One pass of the heap's
  // read loop judges each version's stamps before decoding it and asks
  // for each transaction's commit time once. std::map re-delivers the
  // windows close-ascending; RowId order preserves within-window order.
  std::unordered_map<storage::TxnId, std::optional<int64_t>> commit_times;
  auto commit_time = [&](storage::TxnId txn) {
    auto [it, inserted] = commit_times.try_emplace(txn);
    if (inserted) {
      Result<int64_t> time = txns_.CommitTime(txn);
      if (time.ok()) it->second = *time;
    }
    return it->second;  // nullopt: active or aborted
  };
  std::map<int64_t, std::vector<Row>> windows;
  RETURN_IF_ERROR(table->heap->Scan(
      [&](const storage::HeapTable::RowMeta& meta) {
        std::optional<int64_t> close = commit_time(meta.xmin);
        // An uncommitted writer is not part of a window.
        if (!close || *close <= resume_close || *close > watermark) {
          return false;
        }
        // A committed xmax is a REPLACE-mode overwrite: the row is no
        // longer visible.
        return meta.xmax == storage::kInvalidTxn || !commit_time(meta.xmax);
      },
      [&](storage::RowId, const storage::HeapTable::RowMeta& meta,
          Row&& row) {
        windows[*commit_time(meta.xmin)].push_back(std::move(row));
        return true;
      }));
  for (auto& [close, rows] : windows) {
    backfill->push_back(ResumeBatch{close, std::move(rows)});
  }
  // Attach live delivery filtered to strictly after everything the
  // subscriber now has: the backfill covers (resume_close, watermark], and
  // a closed-but-unpersisted window older than the token must not repeat.
  const int64_t threshold = std::max(watermark, resume_close);
  stream::CqCallback filtered =
      [threshold, inner = std::move(callback)](
          int64_t close, const std::vector<Row>& rows) -> Status {
    if (close <= threshold) return Status::OK();
    return inner(close, rows);
  };
  return AttachCallbackLocked(name, std::move(filtered));
}

void Database::RegisterStatsProvider(const std::string& key,
                                     StatsProvider provider) {
  ExclusiveLockGuard lock(&engine_lock_);
  stats_providers_[key] = std::move(provider);
}

void Database::UnregisterStatsProvider(const std::string& key) {
  ExclusiveLockGuard lock(&engine_lock_);
  stats_providers_.erase(key);
}

Result<QueryResult> Database::ExecuteShowStats(
    const sql::ShowStatsStmt& stmt) {
  using Target = sql::ShowStatsStmt::Target;
  std::string filter_scope;
  const std::string filter_name = ToLower(stmt.name);
  switch (stmt.target) {
    case Target::kAll:
      break;
    case Target::kCq:
      if (runtime_.GetCq(stmt.name) == nullptr) {
        return Status::NotFound("continuous query '" + stmt.name +
                                "' not found");
      }
      filter_scope = "cq";
      break;
    case Target::kStream:
      if (catalog_.GetStream(stmt.name) == nullptr) {
        return Status::NotFound("stream '" + stmt.name + "' not found");
      }
      // A catalogued stream may not have seen runtime traffic yet; register
      // it so the stats walk reaches it and the filter returns rows.
      RETURN_IF_ERROR(runtime_.RegisterStream(stmt.name));
      filter_scope = "stream";
      break;
    case Target::kChannel:
      if (runtime_.GetChannel(stmt.name) == nullptr) {
        return Status::NotFound("channel '" + stmt.name +
                                "' is not running");
      }
      filter_scope = "channel";
      break;
    case Target::kOverload:
      // Whole scope: governor accounts, retry counters, and per-stream
      // admission counters. No object-name filter.
      filter_scope = "overload";
      break;
    case Target::kNet:
      // Whole network-front-end scope (filled by the server's stats
      // provider; empty when no server is attached). No object-name
      // filter.
      filter_scope = "net";
      break;
    case Target::kRepl:
      // Whole replication scope: engine-side standby/apply gauges plus,
      // on a primary, the server's ship/ack/lag counters (published
      // through its stats provider). No object-name filter.
      filter_scope = "repl";
      break;
  }
  EngineStats stats = StatsSnapshot();
  QueryResult result;
  result.schema = Schema({Column("scope", DataType::kString),
                          Column("name", DataType::kString),
                          Column("metric", DataType::kString),
                          Column("value", DataType::kInt64)});
  for (const stream::MetricSample& sample : stats.metrics) {
    const bool whole_scope = stmt.target == Target::kOverload ||
                             stmt.target == Target::kNet ||
                             stmt.target == Target::kRepl;
    if (!filter_scope.empty() &&
        (sample.scope != filter_scope ||
         (!whole_scope && sample.name != filter_name))) {
      continue;
    }
    // Timestamp samples report micros; INT64_MIN means "never set" and
    // surfaces as NULL rather than a nonsense number.
    Value value = sample.is_timestamp && sample.value == INT64_MIN
                      ? Value::Null()
                      : Value::Int64(sample.value);
    result.rows.push_back(Row{Value::String(sample.scope),
                              Value::String(sample.name),
                              Value::String(sample.metric),
                              std::move(value)});
  }
  result.message = "SHOW STATS " + std::to_string(result.rows.size());
  return result;
}

Result<QueryResult> Database::ExecuteSet(const sql::SetStmt& stmt) {
  QueryResult result;
  if (stmt.option == "memory_limit") {
    if (stmt.value < 0) {
      return Status::InvalidArgument("MEMORY LIMIT must be >= 0");
    }
    runtime_.SetMemoryBudget(stmt.value);
    result.message = "SET MEMORY LIMIT " + std::to_string(stmt.value);
    return result;
  }
  if (stmt.option == "overload_policy") {
    stream::OverloadPolicy policy;
    if (stmt.text_value == "BLOCK") {
      policy = stream::OverloadPolicy::kBlock;
    } else if (stmt.text_value == "SHED_NEWEST") {
      policy = stream::OverloadPolicy::kShedNewest;
    } else if (stmt.text_value == "SHED_OLDEST") {
      policy = stream::OverloadPolicy::kShedOldest;
    } else {
      return Status::InvalidArgument("unknown overload policy '" +
                                     stmt.text_value + "'");
    }
    if (catalog_.GetStream(stmt.target) == nullptr) {
      return Status::NotFound("stream '" + stmt.target + "' not found");
    }
    RETURN_IF_ERROR(runtime_.RegisterStream(stmt.target));
    RETURN_IF_ERROR(runtime_.SetOverloadPolicy(stmt.target, policy));
    result.message = "SET OVERLOAD POLICY " + ToLower(stmt.target) + " " +
                     stmt.text_value;
    return result;
  }
  if (stmt.option == "retry_limit") {
    RETURN_IF_ERROR(runtime_.SetRetryLimit(stmt.value));
    result.message = "SET RETRY LIMIT " + std::to_string(stmt.value);
    return result;
  }
  if (stmt.option == "retry_backoff") {
    RETURN_IF_ERROR(runtime_.SetRetryBackoff(stmt.value));
    result.message = "SET RETRY BACKOFF " + std::to_string(stmt.value);
    return result;
  }
  return Status::InvalidArgument("unknown SET option '" + stmt.option + "'");
}

Result<QueryResult> Database::ExecuteSetFault(const sql::SetFaultStmt& stmt) {
  FaultInjector& injector = FaultInjector::Instance();
  QueryResult result;
  if (stmt.reset_all) {
    injector.Reset();
    result.message = "SET FAULT RESET";
    return result;
  }
  FaultPolicy policy;
  switch (stmt.policy) {
    case sql::SetFaultStmt::Policy::kOff:
      policy = FaultPolicy::Off();
      break;
    case sql::SetFaultStmt::Policy::kFailOnce:
      policy = FaultPolicy::FailOnce();
      break;
    case sql::SetFaultStmt::Policy::kFailNth:
      if (stmt.nth < 1) {
        return Status::InvalidArgument("FAIL NTH count must be >= 1");
      }
      policy = FaultPolicy::FailNth(stmt.nth);
      break;
    case sql::SetFaultStmt::Policy::kProbability:
      if (stmt.probability < 0.0 || stmt.probability > 1.0) {
        return Status::InvalidArgument("PROBABILITY must be in [0, 1]");
      }
      policy = FaultPolicy::Probability(stmt.probability,
                                        static_cast<uint64_t>(stmt.seed));
      break;
    case sql::SetFaultStmt::Policy::kCrash:
      if (stmt.nth < 1) {
        return Status::InvalidArgument("CRASH NTH count must be >= 1");
      }
      policy = FaultPolicy::CrashAtHit(stmt.nth);
      break;
  }
  if (policy.kind == FaultPolicy::Kind::kOff) {
    injector.Disarm(stmt.point);
  } else {
    injector.Arm(stmt.point, policy);
  }
  result.message = "SET FAULT '" + stmt.point + "' " + policy.ToString();
  return result;
}

Result<QueryResult> Database::ExecuteShowFaults(const sql::ShowFaultsStmt&) {
  QueryResult result;
  result.schema = Schema({Column("point", DataType::kString),
                          Column("policy", DataType::kString),
                          Column("hits", DataType::kInt64),
                          Column("fires", DataType::kInt64)});
  for (const FaultInjector::PointInfo& info :
       FaultInjector::Instance().Snapshot()) {
    result.rows.push_back(
        Row{Value::String(info.point), Value::String(info.policy),
            Value::Int64(info.hits), Value::Int64(info.fires)});
  }
  result.message = "SHOW FAULTS " + std::to_string(result.rows.size());
  return result;
}

Result<Schema> Database::SchemaFromColumnDefs(
    const std::vector<sql::ColumnDef>& defs) const {
  std::vector<Column> columns;
  columns.reserve(defs.size());
  for (const auto& def : defs) {
    for (const Column& existing : columns) {
      if (EqualsIgnoreCase(existing.name, def.name)) {
        return Status::InvalidArgument("duplicate column name '" + def.name +
                                       "'");
      }
    }
    columns.emplace_back(def.name, def.type);
  }
  return Schema(std::move(columns));
}

Result<QueryResult> Database::ExecuteCreateTable(
    const sql::CreateTableStmt& stmt) {
  if (IsSystemName(stmt.name)) {
    return Status::InvalidArgument(
        "names starting with 'sys_' are reserved for system tables");
  }
  if (stmt.if_not_exists && catalog_.GetTable(stmt.name) != nullptr) {
    QueryResult result;
    result.message = "CREATE TABLE (exists)";
    return result;
  }

  // CREATE TABLE AS SELECT: take the schema and rows from the query
  // (ad-hoc analysis results over computed metrics, paper §1.4). The rows
  // are a derived materialization and are deliberately NOT WAL-logged:
  // after a restart, re-run the CTAS (after RecoverFromWal) to re-derive
  // them — logging them would duplicate rows under the re-run-DDL +
  // replay recovery flow.
  if (stmt.as_select != nullptr) {
    if (in_transaction()) {
      return Status::InvalidArgument(
          "CREATE TABLE AS cannot run inside a transaction");
    }
    ASSIGN_OR_RETURN(QueryResult select, ExecuteSelect(*stmt.as_select));
    for (const Column& col : select.schema.columns()) {
      if (col.type == DataType::kNull) {
        return Status::BindError(
            "CREATE TABLE AS: column '" + col.name +
            "' has no deducible type; CAST it in the select list");
      }
    }
    catalog::TableInfo info;
    info.name = stmt.name;
    info.schema = Schema(select.schema.columns());
    info.heap = std::make_shared<storage::HeapTable>(
        info.schema, disk_, options_.heap_page_size);
    RETURN_IF_ERROR(catalog_.CreateTable(std::move(info)));
    catalog::TableInfo* table = catalog_.GetTable(stmt.name);
    const size_t count = select.rows.size();
    storage::TxnId txn = txns_.Begin();
    RETURN_IF_ERROR(stream::InsertRows(table, std::move(select.rows), txn,
                                       /*wal=*/nullptr));
    RETURN_IF_ERROR(txns_.Commit(txn, now_micros()).status());
    QueryResult result;
    result.message = "CREATE TABLE AS (" + std::to_string(count) + " rows)";
    return result;
  }

  ASSIGN_OR_RETURN(Schema schema, SchemaFromColumnDefs(stmt.columns));
  catalog::TableInfo info;
  info.name = stmt.name;
  info.schema = schema;
  info.heap = std::make_shared<storage::HeapTable>(schema, disk_,
                                                   options_.heap_page_size);
  RETURN_IF_ERROR(catalog_.CreateTable(std::move(info)));
  QueryResult result;
  result.message = "CREATE TABLE";
  return result;
}

Result<QueryResult> Database::ExecuteCreateStream(
    const sql::CreateStreamStmt& stmt) {
  if (IsSystemName(stmt.name)) {
    return Status::InvalidArgument(
        "names starting with 'sys_' are reserved for system tables");
  }
  if (stmt.if_not_exists && catalog_.GetStream(stmt.name) != nullptr) {
    QueryResult result;
    result.message = "CREATE STREAM (exists)";
    return result;
  }
  ASSIGN_OR_RETURN(Schema schema, SchemaFromColumnDefs(stmt.columns));
  // Locate the CQTIME ordering column: the one marked, or (for
  // convenience) the single timestamp column.
  std::optional<size_t> cqtime;
  bool cqtime_system = false;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    if (stmt.columns[i].is_cqtime) {
      if (cqtime.has_value()) {
        return Status::InvalidArgument(
            "a stream may have only one CQTIME column");
      }
      if (stmt.columns[i].type != DataType::kTimestamp) {
        return Status::InvalidArgument("CQTIME column must be a timestamp");
      }
      cqtime = i;
      cqtime_system = stmt.columns[i].cqtime_system;
    }
  }
  if (!cqtime.has_value()) {
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (stmt.columns[i].type == DataType::kTimestamp) {
        if (cqtime.has_value()) {
          return Status::InvalidArgument(
              "stream '" + stmt.name +
              "' has several timestamp columns; mark one with CQTIME "
              "USER|SYSTEM");
        }
        cqtime = i;
      }
    }
  }
  if (!cqtime.has_value()) {
    return Status::InvalidArgument(
        "stream '" + stmt.name +
        "' needs a timestamp CQTIME column (streams are ordered)");
  }
  catalog::StreamInfo info;
  info.name = stmt.name;
  info.schema = std::move(schema);
  info.cqtime_column = *cqtime;
  info.cqtime_system = cqtime_system;
  RETURN_IF_ERROR(catalog_.CreateStream(std::move(info)));
  RETURN_IF_ERROR(runtime_.RegisterStream(stmt.name));
  QueryResult result;
  result.message = "CREATE STREAM";
  return result;
}

Result<QueryResult> Database::ExecuteCreateDerivedStream(
    const sql::CreateDerivedStreamStmt& stmt) {
  if (IsSystemName(stmt.name)) {
    return Status::InvalidArgument(
        "names starting with 'sys_' are reserved for system tables");
  }
  exec::Planner planner(&catalog_);
  ASSIGN_OR_RETURN(exec::PlannedQuery plan, planner.PlanSelect(*stmt.select));
  if (!plan.is_continuous()) {
    return Status::InvalidArgument(
        "CREATE STREAM ... AS requires a continuous defining query (the "
        "SELECT must read a windowed stream)");
  }
  catalog::StreamInfo info;
  info.name = stmt.name;
  info.schema = plan.output_schema;
  info.is_derived = true;
  info.defining_query = stmt.select->CloneSelect();
  RETURN_IF_ERROR(catalog_.CreateStream(std::move(info)));
  RETURN_IF_ERROR(runtime_.StartDerivedStream(stmt.name));
  QueryResult result;
  result.message = "CREATE STREAM";
  return result;
}

Result<QueryResult> Database::ExecuteCreateView(
    const sql::CreateViewStmt& stmt) {
  if (IsSystemName(stmt.name)) {
    return Status::InvalidArgument(
        "names starting with 'sys_' are reserved for system tables");
  }
  // Validate by planning once (streaming views plan to continuous queries;
  // both kinds are legal).
  exec::Planner planner(&catalog_);
  RETURN_IF_ERROR(planner.PlanSelect(*stmt.select).status());
  catalog::ViewInfo info;
  info.name = stmt.name;
  info.select = stmt.select->CloneSelect();
  RETURN_IF_ERROR(catalog_.CreateView(std::move(info)));
  QueryResult result;
  result.message = "CREATE VIEW";
  return result;
}

Result<QueryResult> Database::ExecuteCreateChannel(
    const sql::CreateChannelStmt& stmt) {
  const catalog::StreamInfo* stream = catalog_.GetStream(stmt.from_stream);
  if (stream == nullptr &&
      stream::StreamRuntime::IsQuarantineName(stmt.from_stream)) {
    // Subscribing to a dead-letter stream that has not captured anything
    // yet: materialise it on demand so the channel can start before the
    // first bad row arrives.
    std::string base = ToLower(stmt.from_stream);
    base.resize(base.size() - (sizeof(".__quarantine") - 1));
    if (catalog_.GetStream(base) != nullptr) {
      RETURN_IF_ERROR(runtime_.EnsureQuarantineStream(base));
      stream = catalog_.GetStream(stmt.from_stream);
    }
  }
  if (stream == nullptr) {
    return Status::NotFound("stream '" + stmt.from_stream +
                            "' does not exist");
  }
  const catalog::TableInfo* table = catalog_.GetTable(stmt.into_table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.into_table + "' does not exist");
  }
  if (table->schema.num_columns() != stream->schema.num_columns()) {
    return Status::InvalidArgument(
        "channel source stream and target table have different arities (" +
        std::to_string(stream->schema.num_columns()) + " vs " +
        std::to_string(table->schema.num_columns()) + ")");
  }
  catalog::ChannelInfo info;
  info.name = stmt.name;
  info.from_stream = stream->name;
  info.into_table = table->name;
  info.mode = stmt.mode;
  RETURN_IF_ERROR(catalog_.CreateChannel(std::move(info)));
  RETURN_IF_ERROR(runtime_.StartChannel(stmt.name));
  QueryResult result;
  result.message = "CREATE CHANNEL";
  return result;
}

Result<QueryResult> Database::ExecuteCreateIndex(
    const sql::CreateIndexStmt& stmt) {
  catalog::TableInfo* table = catalog_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  ASSIGN_OR_RETURN(size_t col, table->schema.FindColumn(stmt.column));
  auto index = std::make_shared<storage::BTreeIndex>(
      table->schema.column(col).name, col);
  // Backfill from the currently committed table contents.
  storage::Snapshot snap = txns_.CurrentSnapshot();
  RETURN_IF_ERROR(table->heap->Scan(
      txns_, snap, storage::kInvalidTxn,
      [&](storage::RowId id, const storage::HeapTable::RowMeta&, Row&& row) {
        index->Insert(row[col], id);
        return true;
      }));
  RETURN_IF_ERROR(catalog_.CreateIndex(stmt.name, stmt.table, index));
  QueryResult result;
  result.message = "CREATE INDEX";
  return result;
}

Result<QueryResult> Database::ExecuteDrop(const sql::DropStmt& stmt) {
  QueryResult result;
  Status status;
  switch (stmt.object_kind) {
    case sql::ObjectKind::kTable: {
      // Running CQs hold plan pointers into the catalog and channels write
      // into their target tables; dropping out from under them would
      // dangle.
      std::string user = runtime_.TableInUseBy(stmt.name);
      if (!user.empty() && catalog_.GetTable(stmt.name) != nullptr) {
        return Status::InvalidArgument("cannot drop table '" + stmt.name +
                                       "': it is in use by " + user);
      }
      status = catalog_.DropTable(stmt.name);
      result.message = "DROP TABLE";
      break;
    }
    case sql::ObjectKind::kStream: {
      const catalog::StreamInfo* info = catalog_.GetStream(stmt.name);
      if (info != nullptr) {
        std::string user = runtime_.StreamInUseBy(stmt.name);
        if (!user.empty()) {
          return Status::InvalidArgument("cannot drop stream '" + stmt.name +
                                         "': it is in use by " + user);
        }
        if (info->is_derived) {
          // Stop the always-on defining CQ.
          Status stop =
              runtime_.DropCq("$derived$" + ToLower(info->name));
          if (!stop.ok() && stop.code() != StatusCode::kNotFound) {
            return stop;
          }
        }
        RETURN_IF_ERROR(runtime_.UnregisterStream(stmt.name));
      }
      status = catalog_.DropStream(stmt.name);
      result.message = "DROP STREAM";
      break;
    }
    case sql::ObjectKind::kView:
      status = catalog_.DropView(stmt.name);
      result.message = "DROP VIEW";
      break;
    case sql::ObjectKind::kChannel:
      if (catalog_.GetChannel(stmt.name) != nullptr) {
        RETURN_IF_ERROR(runtime_.StopChannel(stmt.name));
      }
      status = catalog_.DropChannel(stmt.name);
      result.message = "DROP CHANNEL";
      break;
    case sql::ObjectKind::kIndex:
      status = catalog_.DropIndex(stmt.name);
      result.message = "DROP INDEX";
      break;
  }
  if (!status.ok() && stmt.if_exists &&
      status.code() == StatusCode::kNotFound) {
    result.message += " (absent)";
    return result;
  }
  RETURN_IF_ERROR(status);
  return result;
}

namespace {
void CollectBaseRefs(const sql::TableRef& ref, std::vector<std::string>* out);

void CollectBaseRefs(const sql::SelectStmt& sel,
                     std::vector<std::string>* out) {
  for (const auto& ref : sel.from) CollectBaseRefs(*ref, out);
  for (const auto& branch : sel.union_all) CollectBaseRefs(*branch, out);
}

void CollectBaseRefs(const sql::TableRef& ref, std::vector<std::string>* out) {
  switch (ref.kind) {
    case sql::TableRefKind::kBase:
      out->push_back(ref.name);
      break;
    case sql::TableRefKind::kSubquery:
      CollectBaseRefs(*ref.subquery, out);
      break;
    case sql::TableRefKind::kJoin:
      CollectBaseRefs(*ref.left, out);
      CollectBaseRefs(*ref.right, out);
      break;
  }
}
}  // namespace

bool Database::SelectReferencesSysTables(const sql::SelectStmt& stmt) const {
  // Walk base refs, expanding views transitively (a view over sys_cqs must
  // trigger the refresh just like a direct scan). The visited set guards
  // against view cycles.
  std::vector<std::string> pending;
  CollectBaseRefs(stmt, &pending);
  std::unordered_set<std::string> visited;
  while (!pending.empty()) {
    std::string name = ToLower(pending.back());
    pending.pop_back();
    if (!visited.insert(name).second) continue;
    if (IsSystemName(name)) return true;
    if (const catalog::ViewInfo* view = catalog_.GetView(name)) {
      CollectBaseRefs(*view->select, &pending);
    }
  }
  return false;
}

Result<stream::ContinuousQuery*> Database::CreateContinuousQuery(
    const std::string& name, const std::string& select_sql,
    bool allow_shared) {
  // Exclusive: creating a CQ splices into shared pipelines and callback
  // vectors that ingest reads lock-free.
  ExclusiveLockGuard lock(&engine_lock_);
  ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                   sql::ParseSingleStatement(select_sql));
  if (stmt->kind() != sql::StatementKind::kSelect) {
    return Status::InvalidArgument(
        "CreateContinuousQuery expects a SELECT statement");
  }
  const auto& select = static_cast<const sql::SelectStmt&>(*stmt);
  // A CQ may subscribe to a quarantine stream before any row has been
  // quarantined; create the dead-letter stream lazily so the plan binds.
  std::vector<std::string> refs;
  CollectBaseRefs(select, &refs);
  for (const std::string& ref : refs) {
    if (stream::StreamRuntime::IsQuarantineName(ref) &&
        catalog_.GetStream(ref) == nullptr) {
      std::string base = ToLower(ref);
      base.resize(base.size() - (sizeof(".__quarantine") - 1));
      if (catalog_.GetStream(base) != nullptr) {
        RETURN_IF_ERROR(runtime_.EnsureQuarantineStream(base));
      }
    }
  }
  return runtime_.CreateCq(name, select, allow_shared);
}

Status Database::DropContinuousQuery(const std::string& name) {
  ExclusiveLockGuard lock(&engine_lock_);
  return runtime_.DropCq(name);
}

Status Database::Ingest(const std::string& stream,
                        const std::vector<Row>& rows, int64_t system_time) {
  // Shared: disjoint streams ingest concurrently; the runtime's per-stream
  // lock serializes same-stream batches. The logical clock is a CAS-max so
  // racing ingests both land their watermarks.
  if (replication_role() == ReplicationRole::kStandby) {
    return Status::InvalidArgument(
        "standby is read-only (replaying the primary's WAL); ingest on the "
        "primary");
  }
  SharedLockGuard lock(&engine_lock_);
  RETURN_IF_ERROR(runtime_.Ingest(stream, rows, system_time));
  const int64_t wm = runtime_.watermark(stream);
  int64_t cur = now_micros_.load(std::memory_order_relaxed);
  while (wm > cur && !now_micros_.compare_exchange_weak(
                         cur, wm, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status Database::Ingest(const std::string& stream, exec::ColumnBatch&& batch,
                        int64_t system_time) {
  // Columnar twin of the row-batch overload above: same shared engine lock,
  // same CAS-max logical clock advance.
  if (replication_role() == ReplicationRole::kStandby) {
    return Status::InvalidArgument(
        "standby is read-only (replaying the primary's WAL); ingest on the "
        "primary");
  }
  SharedLockGuard lock(&engine_lock_);
  RETURN_IF_ERROR(runtime_.Ingest(stream, std::move(batch), system_time));
  const int64_t wm = runtime_.watermark(stream);
  int64_t cur = now_micros_.load(std::memory_order_relaxed);
  while (wm > cur && !now_micros_.compare_exchange_weak(
                         cur, wm, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status Database::AdvanceTime(const std::string& stream, int64_t watermark) {
  if (replication_role() == ReplicationRole::kStandby) {
    return Status::InvalidArgument(
        "standby is read-only (replaying the primary's WAL)");
  }
  SharedLockGuard lock(&engine_lock_);
  RETURN_IF_ERROR(runtime_.AdvanceTime(stream, watermark));
  int64_t cur = now_micros_.load(std::memory_order_relaxed);
  while (watermark > cur && !now_micros_.compare_exchange_weak(
                                cur, watermark, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Result<stream::WalReplayResult> Database::RecoverFromWal() {
  // Exclusive: replay rebuilds table contents and the runtime's recovery
  // walkers iterate stream state with no finer-grained locking.
  ExclusiveLockGuard lock(&engine_lock_);
  ASSIGN_OR_RETURN(stream::WalReplayResult replay,
                   stream::ReplayWal(&catalog_, &txns_, *wal_));
  ++recoveries_;
  last_replay_rows_ = replay.rows_inserted + replay.rows_deleted;
  last_replay_txns_ = replay.transactions_committed;
  return replay;
}

Status Database::BeginStandby() {
  // Exclusive: flips the engine's role and creates the long-lived applier.
  // Must run after the schema DDL (DDL is not WAL-logged; the standby
  // mirrors it exactly like a restarting primary re-runs it) and before
  // any ApplyReplicationFrames call.
  ExclusiveLockGuard lock(&engine_lock_);
  if (replication_role() != ReplicationRole::kPrimary) {
    return Status::InvalidArgument("engine is already a standby or promoted");
  }
  if (wal_->record_count() != 0) {
    return Status::InvalidArgument(
        "cannot become a standby with a non-empty local WAL: the standby's "
        "log must be a byte prefix of the primary's");
  }
  standby_applier_ = std::make_unique<stream::WalApplier>(&catalog_, &txns_);
  repl_role_.store(static_cast<int>(ReplicationRole::kStandby),
                   std::memory_order_release);
  return Status::OK();
}

Status Database::ApplyReplicationFrames(const std::string& bytes,
                                        size_t* consumed) {
  *consumed = 0;
  Status fault = FaultInjector::Instance().Hit("repl.apply");
  if (!fault.ok()) {
    repl_apply_errors_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  // Exclusive: replay mutates tables and channel progress with no
  // finer-grained locking, exactly like startup recovery.
  ExclusiveLockGuard lock(&engine_lock_);
  if (replication_role() != ReplicationRole::kStandby) {
    return Status::InvalidArgument("engine is not a standby");
  }
  std::vector<storage::WalRecord> records;
  Status decode =
      storage::WriteAheadLog::DecodeShipped(bytes, consumed, &records);
  if (!decode.ok()) {
    // In-flight damage: nothing decoded past the last good frame was
    // applied; the fetch loop re-requests from the unchanged offset.
    *consumed = 0;
    repl_apply_errors_.fetch_add(1, std::memory_order_relaxed);
    return decode;
  }
  // Divergence guard: the standby's own durable log must end exactly at
  // the applied offset. If a previous slice was appended but its record
  // application failed partway (the only reachable cause is a heap-page
  // flush failure mid-apply), re-appending the overlapping re-fetch would
  // duplicate frames and silently fork the log from the primary's prefix.
  // Refuse instead: the standby is inconsistent and must be rebuilt.
  if (wal_->synced_bytes() !=
      repl_applied_bytes_.load(std::memory_order_relaxed)) {
    repl_apply_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(
        "standby WAL is ahead of the applied state (a previous slice "
        "failed mid-apply); rebuild this standby from the primary");
  }
  // WAL first, then apply — the same ordering the primary used to produce
  // these records. AppendShipped lands the whole validated slice verbatim
  // in one atomic append+sync, so the standby's log stays byte-identical
  // to the primary's synced prefix up to applied_bytes and a mid-slice
  // failure can never split the acknowledged offset from the durable one.
  RETURN_IF_ERROR(wal_->AppendShipped(
      bytes.substr(0, *consumed), static_cast<int64_t>(records.size())));
  for (const storage::WalRecord& record : records) {
    RETURN_IF_ERROR(standby_applier_->Apply(record));
  }
  repl_applied_bytes_.fetch_add(static_cast<int64_t>(*consumed),
                                std::memory_order_relaxed);
  repl_applied_records_.fetch_add(static_cast<int64_t>(records.size()),
                                  std::memory_order_relaxed);
  repl_applies_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::PromoteStandby() {
  ExclusiveLockGuard lock(&engine_lock_);
  if (replication_role() != ReplicationRole::kStandby) {
    return Status::InvalidArgument("engine is not a standby");
  }
  // Finish the incremental replay (abort transactions the primary left
  // open at the failover cut — their kCommit never shipped), then resume
  // channels and CQs from their durable watermarks exactly as a
  // restarting primary would (active-table strategy, decision 7).
  RETURN_IF_ERROR(standby_applier_->Finish());
  const stream::WalReplayResult replay = *standby_applier_->mutable_result();
  RETURN_IF_ERROR(stream::ResumeFromActiveTables(&runtime_, replay));
  ++recoveries_;
  last_replay_rows_ = replay.rows_inserted + replay.rows_deleted;
  last_replay_txns_ = replay.transactions_committed;
  standby_applier_.reset();
  repl_role_.store(static_cast<int>(ReplicationRole::kPromoted),
                   std::memory_order_release);
  return Status::OK();
}

void Database::SetPromotionHandler(PromotionHandler handler) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  promotion_handler_ = std::move(handler);
}

Result<QueryResult> Database::ExecutePromote() {
  // NO engine lock here (see Execute()); promote_mu_ serializes racing
  // PROMOTE statements so the handler runs at most once.
  std::lock_guard<std::mutex> lock(promote_mu_);
  if (replication_role() == ReplicationRole::kPromoted) {
    return Status::InvalidArgument("already promoted");
  }
  if (replication_role() != ReplicationRole::kStandby) {
    return Status::InvalidArgument(
        "PROMOTE: this engine is not a standby (start with --standby-of or "
        "BeginStandby())");
  }
  if (promotion_handler_) {
    // Stops the replication fetch loop; its in-flight apply finishes
    // first, so everything fetched before the cut lands.
    RETURN_IF_ERROR(promotion_handler_());
  }
  RETURN_IF_ERROR(PromoteStandby());
  QueryResult result;
  result.message = "PROMOTE";
  return result;
}

}  // namespace streamrel::engine
