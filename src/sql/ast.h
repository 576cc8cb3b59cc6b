#ifndef STREAMREL_SQL_AST_H_
#define STREAMREL_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace streamrel::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,          // `*` or `t.*` in a select list / count(*)
  kUnary,         // - x, NOT x
  kBinary,        // arithmetic / comparison / AND / OR / LIKE / ||
  kFunctionCall,  // f(args) incl. aggregates and cq_close(*)
  kCast,          // CAST(e AS t) or e::t
  kCase,          // CASE WHEN ... THEN ... [ELSE ...] END
  kIn,            // e IN (v1, v2, ...)
  kBetween,       // e BETWEEN lo AND hi
  kIsNull,        // e IS [NOT] NULL
};

enum class UnaryOp { kNegate, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
  kConcat,
};

const char* BinaryOpToString(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A parsed SQL expression node. One struct with a kind tag (rather than a
/// class hierarchy) keeps the parser and binder compact.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef: qualifier may be empty. kStar: qualifier may be set (t.*).
  std::string qualifier;
  std::string column_name;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFunctionCall
  std::string function_name;  // lowercased
  bool distinct = false;      // count(DISTINCT x)

  // kCast
  DataType cast_type = DataType::kNull;

  // kIsNull
  bool is_not = false;  // IS NOT NULL / NOT BETWEEN / NOT IN / NOT LIKE

  // Children. kUnary: [operand]. kBinary: [lhs, rhs]. kFunctionCall: args.
  // kCast: [operand]. kCase: [when1, then1, when2, then2, ..., else?]
  // (case_has_else tells whether the last child is the ELSE branch).
  // kIn: [needle, v1, v2, ...]. kBetween: [e, lo, hi]. kIsNull: [e].
  std::vector<ExprPtr> children;
  bool case_has_else = false;

  explicit Expr(ExprKind k) : kind(k) {}

  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumnRef(std::string qualifier, std::string name);
  static ExprPtr MakeStar(std::string qualifier = "");
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args,
                                  bool distinct = false);
  static ExprPtr MakeCast(ExprPtr operand, DataType type);

  /// Deep copy.
  ExprPtr Clone() const;

  /// SQL-ish rendering for error messages, plan display, and output column
  /// naming.
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Window clauses (the TruSQL stream extension)
// ---------------------------------------------------------------------------

enum class WindowUnit { kTime, kRows };

/// `<VISIBLE x ADVANCE y>` (time or row units) or `<SLICES n WINDOWS>`.
/// A bare `<VISIBLE x>` defaults ADVANCE to VISIBLE (a tumbling window).
/// `<SLICES n WINDOWS>` over a derived stream groups every n upstream
/// window-close batches into one relation (Example 5 in the paper uses
/// `<slices 1 windows>` to take each batch as-is).
struct WindowSpecAst {
  bool is_slices = false;
  int64_t slices_count = 0;  // for kSlices

  WindowUnit unit = WindowUnit::kTime;
  int64_t visible = 0;  // micros (kTime) or row count (kRows)
  int64_t advance = 0;  // micros (kTime) or row count (kRows)

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Table references (FROM items)
// ---------------------------------------------------------------------------

struct SelectStmt;

enum class TableRefKind { kBase, kSubquery, kJoin };
enum class JoinType { kInner, kLeft, kCross };

struct TableRef;
using TableRefPtr = std::unique_ptr<TableRef>;

struct TableRef {
  TableRefKind kind;

  // kBase: a table, stream, or view name; window only legal on streams.
  std::string name;
  std::optional<WindowSpecAst> window;

  // kSubquery
  std::unique_ptr<SelectStmt> subquery;

  // kJoin
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr join_condition;  // null for CROSS

  std::string alias;  // empty if none

  explicit TableRef(TableRefKind k) : kind(k) {}
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateStream,         // raw stream DDL
  kCreateDerivedStream,  // CREATE STREAM name AS SELECT ...
  kCreateView,
  kCreateChannel,
  kCreateIndex,
  kDrop,
  kVacuum,
  kExplain,
  kTransaction,  // BEGIN / COMMIT / ROLLBACK
  kShowStats,    // SHOW STATS [FOR CQ|STREAM|CHANNEL <name>]
  kSet,          // SET MEMORY LIMIT <bytes>, SET RETRY LIMIT <n>, ...
  kSetFault,     // SET FAULT '<point>' <policy> | SET FAULT RESET
  kShowFaults,   // SHOW FAULTS
  kSubscribe,    // SUBSCRIBE TO <stream|cq>   (network sessions only)
  kUnsubscribe,  // UNSUBSCRIBE [FROM] <stream|cq>
  kPromote,      // PROMOTE — standby becomes the primary
};

struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
};
using StatementPtr = std::unique_ptr<Statement>;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none
};

struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStmt : Statement {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<TableRefPtr> from;  // comma-joined items (cross product)
  ExprPtr where;                  // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // may be null
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
  /// UNION ALL chain: this select's results followed by each entry's.
  std::vector<std::unique_ptr<SelectStmt>> union_all;

  StatementKind kind() const override { return StatementKind::kSelect; }
  std::unique_ptr<SelectStmt> CloneSelect() const;
};

struct InsertStmt : Statement {
  std::string table;
  std::vector<std::string> columns;    // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> rows;

  StatementKind kind() const override { return StatementKind::kInsert; }
};

struct UpdateStmt : Statement {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;  // col = expr
  ExprPtr where;  // may be null (update all)

  StatementKind kind() const override { return StatementKind::kUpdate; }
};

struct DeleteStmt : Statement {
  std::string table;
  ExprPtr where;  // may be null (delete all)

  StatementKind kind() const override { return StatementKind::kDelete; }
};

/// VACUUM <table>: compacts the heap, dropping row versions invisible to
/// the current snapshot. Reclaims the space REPLACE channels churn through;
/// discards time-travel history for the table.
struct VacuumStmt : Statement {
  std::string table;

  StatementKind kind() const override { return StatementKind::kVacuum; }
};

/// EXPLAIN <select>: returns the physical plan as text rows.
struct ExplainStmt : Statement {
  std::unique_ptr<SelectStmt> select;

  StatementKind kind() const override { return StatementKind::kExplain; }
};

/// SHOW STATS [FOR CQ|STREAM|CHANNEL <name>]: engine observability as
/// ordinary rows (scope, name, metric, value). Without FOR, every metric
/// the engine tracks is returned.
struct ShowStatsStmt : Statement {
  enum class Target { kAll, kCq, kStream, kChannel, kOverload, kNet, kRepl };
  Target target = Target::kAll;
  std::string name;  // empty for kAll

  StatementKind kind() const override { return StatementKind::kShowStats; }
};

/// SUBSCRIBE TO <stream|cq> [RESUME <close-micros>]: live push delivery of
/// window-close batches (or raw-stream batches) over the issuing network
/// session. Only network sessions can execute it — the in-process API is
/// Database::Subscribe. The RESUME clause carries the resume token (the
/// close of the last window this client received); the server backfills
/// everything the channel persisted after it, then attaches live.
struct SubscribeStmt : Statement {
  std::string name;  // stream or CQ name (dotted names allowed)
  bool has_resume = false;
  int64_t resume_close = INT64_MIN;

  StatementKind kind() const override { return StatementKind::kSubscribe; }
};

/// PROMOTE: on a standby, stop replication and become the primary —
/// finish incremental replay, resume channels/CQs from their watermarks,
/// and start accepting writes. An error anywhere else.
struct PromoteStmt : Statement {
  StatementKind kind() const override { return StatementKind::kPromote; }
};

/// UNSUBSCRIBE [FROM] <stream|cq>: removes this session's subscription.
struct UnsubscribeStmt : Statement {
  std::string name;

  StatementKind kind() const override { return StatementKind::kUnsubscribe; }
};

/// SET <option> <value>: engine-level runtime options.
///   SET MEMORY LIMIT <bytes>           — governor budget (0 = unlimited)
///   SET OVERLOAD POLICY <stream> BLOCK|SHED_NEWEST|SHED_OLDEST
///   SET RETRY LIMIT <n>                — sink delivery attempts (1..1000)
///   SET RETRY BACKOFF <micros>         — base retry backoff
struct SetStmt : Statement {
  std::string option;      // lowercased: "memory_limit", "overload_policy",
                           // "retry_limit", "retry_backoff"
  int64_t value = 0;       // numeric operand (bytes, attempts, micros)
  std::string target;      // object operand: stream name for OVERLOAD POLICY
  std::string text_value;  // symbolic operand: policy name, uppercased

  StatementKind kind() const override { return StatementKind::kSet; }
};

/// SET FAULT '<point>' FAIL ONCE | FAIL NTH <n> | PROBABILITY <p> [SEED <s>]
///           | CRASH [NTH <n>] | OFF, and SET FAULT RESET (clear all).
/// Test-only fault injection: arms a named fault point in the engine's
/// FaultInjector. Mirrors common::FaultPolicy so the sql layer stays
/// decoupled from the injector.
struct SetFaultStmt : Statement {
  bool reset_all = false;  // SET FAULT RESET
  std::string point;       // e.g. "wal.sync"
  enum class Policy { kOff, kFailOnce, kFailNth, kProbability, kCrash };
  Policy policy = Policy::kOff;
  int64_t nth = 1;           // kFailNth / kCrash
  double probability = 0.0;  // kProbability
  int64_t seed = 0;          // kProbability

  StatementKind kind() const override { return StatementKind::kSetFault; }
};

/// SHOW FAULTS: every armed (or previously hit) fault point with its
/// policy and hit/fire counters, as ordinary rows.
struct ShowFaultsStmt : Statement {
  StatementKind kind() const override { return StatementKind::kShowFaults; }
};

enum class TransactionOp { kBegin, kCommit, kRollback };

/// BEGIN [TRANSACTION] / COMMIT / ROLLBACK — explicit multi-statement
/// transactions (the engine is autocommit otherwise).
struct TransactionStmt : Statement {
  TransactionOp op = TransactionOp::kBegin;

  StatementKind kind() const override { return StatementKind::kTransaction; }
};

struct ColumnDef {
  std::string name;
  DataType type = DataType::kNull;
  /// CREATE STREAM only: this column carries the stream's CQTIME, i.e. its
  /// logical ordering attribute (Example 1: `atime timestamp CQTIME USER`).
  bool is_cqtime = false;
  /// CQTIME USER: values supplied by the source; CQTIME SYSTEM: stamped by
  /// the engine at ingest.
  bool cqtime_system = false;
};

struct CreateTableStmt : Statement {
  std::string name;
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;
  /// CREATE TABLE name AS SELECT ...: schema comes from the query's output
  /// and the result rows are loaded (columns must then be empty).
  std::unique_ptr<SelectStmt> as_select;

  StatementKind kind() const override { return StatementKind::kCreateTable; }
};

struct CreateStreamStmt : Statement {
  std::string name;
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;

  StatementKind kind() const override { return StatementKind::kCreateStream; }
};

struct CreateDerivedStreamStmt : Statement {
  std::string name;
  std::unique_ptr<SelectStmt> select;

  StatementKind kind() const override {
    return StatementKind::kCreateDerivedStream;
  }
};

struct CreateViewStmt : Statement {
  std::string name;
  std::unique_ptr<SelectStmt> select;

  StatementKind kind() const override { return StatementKind::kCreateView; }
};

enum class ChannelMode { kAppend, kReplace };

struct CreateChannelStmt : Statement {
  std::string name;
  std::string from_stream;
  std::string into_table;
  ChannelMode mode = ChannelMode::kAppend;

  StatementKind kind() const override { return StatementKind::kCreateChannel; }
};

struct CreateIndexStmt : Statement {
  std::string name;
  std::string table;
  std::string column;

  StatementKind kind() const override { return StatementKind::kCreateIndex; }
};

enum class ObjectKind { kTable, kStream, kView, kChannel, kIndex };

struct DropStmt : Statement {
  ObjectKind object_kind = ObjectKind::kTable;
  std::string name;
  bool if_exists = false;

  StatementKind kind() const override { return StatementKind::kDrop; }
};

}  // namespace streamrel::sql

#endif  // STREAMREL_SQL_AST_H_
