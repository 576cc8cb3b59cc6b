#include "sql/parser.h"

#include <unordered_set>

#include "common/string_util.h"
#include "common/time.h"

namespace streamrel::sql {

namespace {

// Words that terminate clauses and therefore cannot be implicit aliases.
const std::unordered_set<std::string>& ReservedWords() {
  static const auto* kSet = new std::unordered_set<std::string>{
      "select", "from",   "where",  "group",  "having", "order",  "limit",
      "offset", "union",  "join",   "inner",  "left",   "cross",  "on",
      "and",    "or",     "not",    "as",     "by",     "asc",    "desc",
      "insert", "into",   "values", "create", "drop",   "when",   "then",
      "else",   "end",    "case",   "is",     "in",     "between", "like",
      "distinct", "all",  "outer"};
  return *kSet;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<StatementPtr>> ParseStatements() {
    std::vector<StatementPtr> stmts;
    while (!AtEnd()) {
      if (MatchOperator(";")) continue;
      ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement());
      stmts.push_back(std::move(stmt));
      if (!AtEnd() && !MatchOperator(";")) {
        return Error("expected ';' between statements");
      }
    }
    return stmts;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) return Error("trailing tokens after expression");
    return e;
  }

 private:
  // --- token plumbing -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool MatchKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchOperator(const char* op) {
    if (Peek().IsOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return Error(std::string("expected keyword ") + ToUpper(kw));
    }
    return Status::OK();
  }
  Status ExpectOperator(const char* op) {
    if (!MatchOperator(op)) {
      return Error(std::string("expected '") + op + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Result<std::string>(
          Error(std::string("expected ") + what));
    }
    return Advance().text;
  }

  Result<int64_t> ExpectInteger(const char* what) {
    if (Peek().type != TokenType::kInteger) {
      return Result<int64_t>(Error(std::string("expected ") + what));
    }
    return Advance().int_value;
  }

  /// Possibly-dotted object name: `ident ('.' ident)*`, joined with dots.
  /// The lexer emits '.' as an operator, so names like
  /// `trades.__quarantine` arrive as three tokens.
  Result<std::string> ParseObjectName(const char* what) {
    ASSIGN_OR_RETURN(std::string name, ExpectIdentifier(what));
    while (Peek().IsOperator(".") && Peek(1).type == TokenType::kIdentifier) {
      Advance();  // '.'
      name += "." + Advance().text;
    }
    return name;
  }

  /// Recursion limiter for the self-recursive productions (parenthesised
  /// expressions, NOT/unary chains, subqueries). Deeply nested input must
  /// come back as a ParseError, never a stack overflow.
  struct DepthGuard {
    explicit DepthGuard(Parser* p) : p_(p) { ++p_->depth_; }
    ~DepthGuard() { --p_->depth_; }
    Parser* p_;
  };
  Status CheckDepth() const {
    if (depth_ > kMaxDepth) {
      return Status::ParseError("statement nesting exceeds the depth limit (" +
                                std::to_string(kMaxDepth) + ")");
    }
    return Status::OK();
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    std::string got = t.type == TokenType::kEnd ? "end of input"
                                                : "'" + t.text + "'";
    return Status::ParseError(msg + ", got " + got + " at offset " +
                              std::to_string(t.position));
  }

  // --- statements ---------------------------------------------------------

  Result<StatementPtr> ParseStatement() {
    if (Peek().IsKeyword("select")) {
      ASSIGN_OR_RETURN(auto sel, ParseSelect());
      return StatementPtr(std::move(sel));
    }
    if (MatchKeyword("insert")) return ParseInsert();
    if (MatchKeyword("update")) return ParseUpdate();
    if (MatchKeyword("delete")) return ParseDelete();
    if (MatchKeyword("create")) return ParseCreate();
    if (MatchKeyword("drop")) return ParseDrop();
    if (MatchKeyword("vacuum")) {
      auto stmt = std::make_unique<VacuumStmt>();
      ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("explain")) {
      auto stmt = std::make_unique<ExplainStmt>();
      ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("show")) return ParseShowStats();
    if (MatchKeyword("set")) return ParseSet();
    if (MatchKeyword("subscribe")) {
      RETURN_IF_ERROR(ExpectKeyword("to"));
      auto stmt = std::make_unique<SubscribeStmt>();
      ASSIGN_OR_RETURN(stmt->name, ParseObjectName("stream or CQ name"));
      if (MatchKeyword("resume")) {
        // SUBSCRIBE TO <name> RESUME <close-micros>: the resume token is
        // the close of the last window this client received.
        stmt->has_resume = true;
        const bool negative = MatchOperator("-");
        ASSIGN_OR_RETURN(stmt->resume_close,
                         ExpectInteger("resume token (window close micros)"));
        if (negative) stmt->resume_close = -stmt->resume_close;
      }
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("promote")) {
      return StatementPtr(std::make_unique<PromoteStmt>());
    }
    if (MatchKeyword("unsubscribe")) {
      MatchKeyword("from");
      auto stmt = std::make_unique<UnsubscribeStmt>();
      ASSIGN_OR_RETURN(stmt->name, ParseObjectName("stream or CQ name"));
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("begin") || MatchKeyword("start")) {
      MatchKeyword("transaction");
      MatchKeyword("work");
      auto stmt = std::make_unique<TransactionStmt>();
      stmt->op = TransactionOp::kBegin;
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("commit")) {
      MatchKeyword("transaction");
      MatchKeyword("work");
      auto stmt = std::make_unique<TransactionStmt>();
      stmt->op = TransactionOp::kCommit;
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("rollback") || MatchKeyword("abort")) {
      MatchKeyword("transaction");
      MatchKeyword("work");
      auto stmt = std::make_unique<TransactionStmt>();
      stmt->op = TransactionOp::kRollback;
      return StatementPtr(std::move(stmt));
    }
    return Result<StatementPtr>(
        Error("expected SELECT, INSERT, UPDATE, DELETE, CREATE, DROP, "
              "VACUUM, EXPLAIN, SHOW, SET, SUBSCRIBE, UNSUBSCRIBE, or "
              "PROMOTE"));
  }

  Result<StatementPtr> ParseSet() {
    if (Peek().IsKeyword("fault")) {
      Advance();
      return ParseSetFault();
    }
    auto stmt = std::make_unique<SetStmt>();
    std::string option;
    ASSIGN_OR_RETURN(option, ExpectIdentifier("option name"));
    stmt->option = ToLower(option);
    if (stmt->option == "memory") {
      // SET MEMORY LIMIT <bytes>
      RETURN_IF_ERROR(ExpectKeyword("limit"));
      stmt->option = "memory_limit";
      ASSIGN_OR_RETURN(stmt->value, ExpectInteger("byte budget"));
      return StatementPtr(std::move(stmt));
    }
    if (stmt->option == "overload") {
      // SET OVERLOAD POLICY <stream> BLOCK|SHED_NEWEST|SHED_OLDEST
      RETURN_IF_ERROR(ExpectKeyword("policy"));
      stmt->option = "overload_policy";
      ASSIGN_OR_RETURN(stmt->target, ParseObjectName("stream name"));
      ASSIGN_OR_RETURN(std::string policy, ExpectIdentifier("overload policy"));
      stmt->text_value = ToUpper(policy);
      if (stmt->text_value != "BLOCK" && stmt->text_value != "SHED_NEWEST" &&
          stmt->text_value != "SHED_OLDEST") {
        return Result<StatementPtr>(
            Error("expected BLOCK, SHED_NEWEST, or SHED_OLDEST"));
      }
      return StatementPtr(std::move(stmt));
    }
    if (stmt->option == "retry") {
      // SET RETRY LIMIT <attempts> | SET RETRY BACKOFF <micros>
      if (MatchKeyword("limit")) {
        stmt->option = "retry_limit";
        ASSIGN_OR_RETURN(stmt->value, ExpectInteger("attempt count"));
      } else if (MatchKeyword("backoff")) {
        stmt->option = "retry_backoff";
        ASSIGN_OR_RETURN(stmt->value, ExpectInteger("backoff microseconds"));
      } else {
        return Result<StatementPtr>(Error("expected LIMIT or BACKOFF"));
      }
      return StatementPtr(std::move(stmt));
    }
    return Result<StatementPtr>(
        Error("unknown SET option '" + option + "'"));
  }

  /// SET FAULT RESET
  /// SET FAULT '<point>' FAIL ONCE | FAIL NTH <n>
  ///                     | PROBABILITY <p> [SEED <s>] | CRASH [NTH <n>] | OFF
  Result<StatementPtr> ParseSetFault() {
    auto stmt = std::make_unique<SetFaultStmt>();
    if (MatchKeyword("reset")) {
      stmt->reset_all = true;
      return StatementPtr(std::move(stmt));
    }
    if (Peek().type != TokenType::kString) {
      return Result<StatementPtr>(
          Error("expected fault point string (e.g. 'wal.sync') or RESET"));
    }
    stmt->point = Advance().text;
    if (MatchKeyword("off")) {
      stmt->policy = SetFaultStmt::Policy::kOff;
    } else if (MatchKeyword("fail")) {
      if (MatchKeyword("once")) {
        stmt->policy = SetFaultStmt::Policy::kFailOnce;
      } else if (MatchKeyword("nth")) {
        stmt->policy = SetFaultStmt::Policy::kFailNth;
        if (Peek().type != TokenType::kInteger) {
          return Result<StatementPtr>(Error("expected hit count after NTH"));
        }
        stmt->nth = Advance().int_value;
      } else {
        return Result<StatementPtr>(Error("expected ONCE or NTH after FAIL"));
      }
    } else if (MatchKeyword("probability")) {
      stmt->policy = SetFaultStmt::Policy::kProbability;
      if (Peek().type == TokenType::kFloat) {
        stmt->probability = Advance().float_value;
      } else if (Peek().type == TokenType::kInteger) {
        stmt->probability = static_cast<double>(Advance().int_value);
      } else {
        return Result<StatementPtr>(
            Error("expected probability value in [0, 1]"));
      }
      if (MatchKeyword("seed")) {
        if (Peek().type != TokenType::kInteger) {
          return Result<StatementPtr>(Error("expected integer seed"));
        }
        stmt->seed = Advance().int_value;
      }
    } else if (MatchKeyword("crash")) {
      stmt->policy = SetFaultStmt::Policy::kCrash;
      if (MatchKeyword("nth")) {
        if (Peek().type != TokenType::kInteger) {
          return Result<StatementPtr>(Error("expected hit count after NTH"));
        }
        stmt->nth = Advance().int_value;
      }
    } else {
      return Result<StatementPtr>(
          Error("expected FAIL, PROBABILITY, CRASH, or OFF"));
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseShowStats() {
    if (MatchKeyword("faults")) {
      return StatementPtr(std::make_unique<ShowFaultsStmt>());
    }
    RETURN_IF_ERROR(ExpectKeyword("stats"));
    auto stmt = std::make_unique<ShowStatsStmt>();
    if (MatchKeyword("for")) {
      if (MatchKeyword("overload")) {
        // Whole overload scope (governor, retry, per-stream admission);
        // takes no object name.
        stmt->target = ShowStatsStmt::Target::kOverload;
        return StatementPtr(std::move(stmt));
      }
      if (MatchKeyword("net")) {
        // Whole network-front-end scope (connections, frames, send
        // queues, slow consumers); takes no object name.
        stmt->target = ShowStatsStmt::Target::kNet;
        return StatementPtr(std::move(stmt));
      }
      if (MatchKeyword("repl")) {
        // Whole replication scope (ship/apply/ack counters, lag,
        // promotion state); takes no object name.
        stmt->target = ShowStatsStmt::Target::kRepl;
        return StatementPtr(std::move(stmt));
      }
      if (MatchKeyword("cq")) {
        stmt->target = ShowStatsStmt::Target::kCq;
      } else if (MatchKeyword("stream")) {
        stmt->target = ShowStatsStmt::Target::kStream;
      } else if (MatchKeyword("channel")) {
        stmt->target = ShowStatsStmt::Target::kChannel;
      } else {
        return Result<StatementPtr>(
            Error("expected CQ, STREAM, CHANNEL, OVERLOAD, NET, or REPL "
                  "after FOR"));
      }
      ASSIGN_OR_RETURN(stmt->name, ParseObjectName("object name"));
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    auto stmt = std::make_unique<UpdateStmt>();
    ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    RETURN_IF_ERROR(ExpectKeyword("set"));
    do {
      std::string column;
      ASSIGN_OR_RETURN(column, ExpectIdentifier("column name"));
      RETURN_IF_ERROR(ExpectOperator("="));
      ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt->assignments.emplace_back(std::move(column), std::move(value));
    } while (MatchOperator(","));
    if (MatchKeyword("where")) {
      ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    RETURN_IF_ERROR(ExpectKeyword("from"));
    auto stmt = std::make_unique<DeleteStmt>();
    ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (MatchKeyword("where")) {
      ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseInsert() {
    RETURN_IF_ERROR(ExpectKeyword("into"));
    auto stmt = std::make_unique<InsertStmt>();
    ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (MatchOperator("(")) {
      do {
        ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (MatchOperator(","));
      RETURN_IF_ERROR(ExpectOperator(")"));
    }
    RETURN_IF_ERROR(ExpectKeyword("values"));
    do {
      RETURN_IF_ERROR(ExpectOperator("("));
      std::vector<ExprPtr> row;
      do {
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (MatchOperator(","));
      RETURN_IF_ERROR(ExpectOperator(")"));
      stmt->rows.push_back(std::move(row));
    } while (MatchOperator(","));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreate() {
    if (MatchKeyword("table")) return ParseCreateTable();
    if (MatchKeyword("stream")) return ParseCreateStream();
    if (MatchKeyword("view")) return ParseCreateView();
    if (MatchKeyword("channel")) return ParseCreateChannel();
    if (MatchKeyword("index")) return ParseCreateIndex();
    return Result<StatementPtr>(
        Error("expected TABLE, STREAM, VIEW, CHANNEL, or INDEX after CREATE"));
  }

  Result<bool> ParseIfNotExists() {
    if (MatchKeyword("if")) {
      RETURN_IF_ERROR(ExpectKeyword("not"));
      RETURN_IF_ERROR(ExpectKeyword("exists"));
      return true;
    }
    return false;
  }

  Result<StatementPtr> ParseCreateTable() {
    auto stmt = std::make_unique<CreateTableStmt>();
    ASSIGN_OR_RETURN(stmt->if_not_exists, ParseIfNotExists());
    ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("table name"));
    if (MatchKeyword("as")) {
      ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    ASSIGN_OR_RETURN(stmt->columns, ParseColumnDefs(/*allow_cqtime=*/false));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateStream() {
    bool if_not_exists = false;
    ASSIGN_OR_RETURN(if_not_exists, ParseIfNotExists());
    ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("stream name"));
    if (MatchKeyword("as")) {
      auto stmt = std::make_unique<CreateDerivedStreamStmt>();
      stmt->name = std::move(name);
      ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    auto stmt = std::make_unique<CreateStreamStmt>();
    stmt->name = std::move(name);
    stmt->if_not_exists = if_not_exists;
    ASSIGN_OR_RETURN(stmt->columns, ParseColumnDefs(/*allow_cqtime=*/true));
    return StatementPtr(std::move(stmt));
  }

  Result<std::vector<ColumnDef>> ParseColumnDefs(bool allow_cqtime) {
    RETURN_IF_ERROR(ExpectOperator("("));
    std::vector<ColumnDef> defs;
    do {
      ColumnDef def;
      ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
      ASSIGN_OR_RETURN(std::string type_name,
                       ExpectIdentifier("column type"));
      ASSIGN_OR_RETURN(def.type, ParseTypeName(type_name));
      // Optional length modifier, e.g. varchar(1024) — accepted, ignored.
      if (MatchOperator("(")) {
        if (Peek().type != TokenType::kInteger) {
          return Result<std::vector<ColumnDef>>(
              Error("expected length in type modifier"));
        }
        Advance();
        RETURN_IF_ERROR(ExpectOperator(")"));
      }
      if (MatchKeyword("cqtime")) {
        if (!allow_cqtime) {
          return Result<std::vector<ColumnDef>>(
              Error("CQTIME is only valid in CREATE STREAM"));
        }
        def.is_cqtime = true;
        if (MatchKeyword("system")) {
          def.cqtime_system = true;
        } else {
          RETURN_IF_ERROR(ExpectKeyword("user"));
        }
      }
      defs.push_back(std::move(def));
    } while (MatchOperator(","));
    RETURN_IF_ERROR(ExpectOperator(")"));
    return defs;
  }

  Result<StatementPtr> ParseCreateView() {
    auto stmt = std::make_unique<CreateViewStmt>();
    ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("view name"));
    RETURN_IF_ERROR(ExpectKeyword("as"));
    ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateChannel() {
    auto stmt = std::make_unique<CreateChannelStmt>();
    ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("channel name"));
    RETURN_IF_ERROR(ExpectKeyword("from"));
    ASSIGN_OR_RETURN(stmt->from_stream, ParseObjectName("stream name"));
    RETURN_IF_ERROR(ExpectKeyword("into"));
    ASSIGN_OR_RETURN(stmt->into_table, ExpectIdentifier("table name"));
    if (MatchKeyword("replace")) {
      stmt->mode = ChannelMode::kReplace;
    } else if (MatchKeyword("append")) {
      stmt->mode = ChannelMode::kAppend;
    }  // default APPEND
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateIndex() {
    auto stmt = std::make_unique<CreateIndexStmt>();
    ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("index name"));
    RETURN_IF_ERROR(ExpectKeyword("on"));
    ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    RETURN_IF_ERROR(ExpectOperator("("));
    ASSIGN_OR_RETURN(stmt->column, ExpectIdentifier("column name"));
    RETURN_IF_ERROR(ExpectOperator(")"));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDrop() {
    auto stmt = std::make_unique<DropStmt>();
    if (MatchKeyword("table")) {
      stmt->object_kind = ObjectKind::kTable;
    } else if (MatchKeyword("stream")) {
      stmt->object_kind = ObjectKind::kStream;
    } else if (MatchKeyword("view")) {
      stmt->object_kind = ObjectKind::kView;
    } else if (MatchKeyword("channel")) {
      stmt->object_kind = ObjectKind::kChannel;
    } else if (MatchKeyword("index")) {
      stmt->object_kind = ObjectKind::kIndex;
    } else {
      return Result<StatementPtr>(
          Error("expected TABLE, STREAM, VIEW, CHANNEL, or INDEX after DROP"));
    }
    if (MatchKeyword("if")) {
      RETURN_IF_ERROR(ExpectKeyword("exists"));
      stmt->if_exists = true;
    }
    ASSIGN_OR_RETURN(stmt->name, ParseObjectName("object name"));
    return StatementPtr(std::move(stmt));
  }

  // --- SELECT -------------------------------------------------------------

  /// Full select: core select, a flat UNION ALL chain, then ORDER BY /
  /// LIMIT / OFFSET applying to the whole result.
  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelectCore());
    while (MatchKeyword("union")) {
      RETURN_IF_ERROR(ExpectKeyword("all"));
      ASSIGN_OR_RETURN(auto rhs, ParseSelectCore());
      stmt->union_all.push_back(std::move(rhs));
    }
    if (MatchKeyword("order")) {
      RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        OrderByItem item;
        ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("desc")) {
          item.ascending = false;
        } else {
          MatchKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (MatchOperator(","));
    }
    if (MatchKeyword("limit")) {
      if (Peek().type != TokenType::kInteger) {
        return Result<std::unique_ptr<SelectStmt>>(
            Error("expected integer after LIMIT"));
      }
      stmt->limit = Advance().int_value;
    }
    if (MatchKeyword("offset")) {
      if (Peek().type != TokenType::kInteger) {
        return Result<std::unique_ptr<SelectStmt>>(
            Error("expected integer after OFFSET"));
      }
      stmt->offset = Advance().int_value;
    }
    return stmt;
  }

  /// SELECT ... FROM ... WHERE ... GROUP BY ... HAVING (no union/order/limit).
  Result<std::unique_ptr<SelectStmt>> ParseSelectCore() {
    DepthGuard guard(this);
    RETURN_IF_ERROR(CheckDepth());
    RETURN_IF_ERROR(ExpectKeyword("select"));
    auto stmt = std::make_unique<SelectStmt>();
    if (MatchKeyword("distinct")) {
      stmt->distinct = true;
    } else {
      MatchKeyword("all");
    }
    do {
      SelectItem item;
      ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("as")) {
        ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (Peek().type == TokenType::kIdentifier &&
                 ReservedWords().count(ToLower(Peek().text)) == 0) {
        item.alias = Advance().text;
      }
      stmt->select_list.push_back(std::move(item));
    } while (MatchOperator(","));

    if (MatchKeyword("from")) {
      do {
        ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
      } while (MatchOperator(","));
    }
    if (MatchKeyword("where")) {
      ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (MatchKeyword("group")) {
      RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (MatchOperator(","));
    }
    if (MatchKeyword("having")) {
      ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    return stmt;
  }

  Result<TableRefPtr> ParseTableRef() {
    ASSIGN_OR_RETURN(TableRefPtr left, ParseTableRefPrimary());
    for (;;) {
      JoinType type;
      if (MatchKeyword("cross")) {
        RETURN_IF_ERROR(ExpectKeyword("join"));
        type = JoinType::kCross;
      } else if (MatchKeyword("inner")) {
        RETURN_IF_ERROR(ExpectKeyword("join"));
        type = JoinType::kInner;
      } else if (MatchKeyword("left")) {
        MatchKeyword("outer");
        RETURN_IF_ERROR(ExpectKeyword("join"));
        type = JoinType::kLeft;
      } else if (MatchKeyword("join")) {
        type = JoinType::kInner;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRefPrimary());
      auto join = std::make_unique<TableRef>(TableRefKind::kJoin);
      join->join_type = type;
      join->left = std::move(left);
      join->right = std::move(right);
      if (type != JoinType::kCross) {
        RETURN_IF_ERROR(ExpectKeyword("on"));
        ASSIGN_OR_RETURN(join->join_condition, ParseExpr());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<TableRefPtr> ParseTableRefPrimary() {
    TableRefPtr ref;
    if (MatchOperator("(")) {
      ref = std::make_unique<TableRef>(TableRefKind::kSubquery);
      ASSIGN_OR_RETURN(ref->subquery, ParseSelect());
      RETURN_IF_ERROR(ExpectOperator(")"));
    } else {
      ref = std::make_unique<TableRef>(TableRefKind::kBase);
      ASSIGN_OR_RETURN(ref->name, ParseObjectName("table or stream name"));
    }
    // Optional TruSQL window clause: `<VISIBLE ... ADVANCE ...>` or
    // `<SLICES n WINDOWS>`. Disambiguated from comparison by the keyword
    // following '<'.
    if (Peek().IsOperator("<") &&
        (Peek(1).IsKeyword("visible") || Peek(1).IsKeyword("slices") ||
         Peek(1).IsKeyword("advance"))) {
      Advance();  // consume '<'
      ASSIGN_OR_RETURN(WindowSpecAst spec, ParseWindowSpec());
      ref->window = spec;
    }
    if (MatchKeyword("as")) {
      ASSIGN_OR_RETURN(ref->alias, ExpectIdentifier("alias"));
    } else if (Peek().type == TokenType::kIdentifier &&
               ReservedWords().count(ToLower(Peek().text)) == 0) {
      ref->alias = Advance().text;
    }
    if (ref->kind == TableRefKind::kSubquery && ref->alias.empty()) {
      return Result<TableRefPtr>(Error("subquery in FROM requires an alias"));
    }
    return ref;
  }

  /// Parses the body of a window clause; '<' already consumed, consumes '>'.
  Result<WindowSpecAst> ParseWindowSpec() {
    WindowSpecAst spec;
    if (MatchKeyword("slices")) {
      if (Peek().type != TokenType::kInteger) {
        return Result<WindowSpecAst>(Error("expected count after SLICES"));
      }
      spec.is_slices = true;
      spec.slices_count = Advance().int_value;
      RETURN_IF_ERROR(ExpectKeyword("windows"));
      RETURN_IF_ERROR(ExpectOperator(">"));
      return spec;
    }
    RETURN_IF_ERROR(ExpectKeyword("visible"));
    ASSIGN_OR_RETURN(auto vis, ParseWindowExtent());
    spec.unit = vis.first;
    spec.visible = vis.second;
    if (MatchKeyword("advance")) {
      ASSIGN_OR_RETURN(auto adv, ParseWindowExtent());
      if (adv.first != spec.unit) {
        return Result<WindowSpecAst>(
            Error("VISIBLE and ADVANCE must use the same unit"));
      }
      spec.advance = adv.second;
    } else {
      spec.advance = spec.visible;  // tumbling window
    }
    RETURN_IF_ERROR(ExpectOperator(">"));
    if (spec.visible <= 0 || spec.advance <= 0) {
      return Result<WindowSpecAst>(
          Error("window VISIBLE/ADVANCE must be positive"));
    }
    return spec;
  }

  /// One extent: '5 minutes' (time) or `100 ROWS`.
  Result<std::pair<WindowUnit, int64_t>> ParseWindowExtent() {
    if (Peek().type == TokenType::kString) {
      std::string text = Advance().text;
      auto micros = ParseIntervalMicros(text);
      if (!micros.ok()) {
        return Result<std::pair<WindowUnit, int64_t>>(
            Status::ParseError(micros.status().message()));
      }
      return std::make_pair(WindowUnit::kTime, *micros);
    }
    if (Peek().type == TokenType::kInteger) {
      int64_t count = Advance().int_value;
      RETURN_IF_ERROR(ExpectKeyword("rows"));
      return std::make_pair(WindowUnit::kRows, count);
    }
    return Result<std::pair<WindowUnit, int64_t>>(
        Error("expected interval string or row count in window clause"));
  }

  // --- expressions (precedence climbing) ----------------------------------

  Result<ExprPtr> ParseExpr() {
    DepthGuard guard(this);
    RETURN_IF_ERROR(CheckDepth());
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (MatchKeyword("or")) {
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Peek().IsKeyword("and")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (MatchKeyword("not")) {
      DepthGuard guard(this);
      RETURN_IF_ERROR(CheckDepth());
      ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    for (;;) {
      BinaryOp op;
      if (MatchOperator("=")) {
        op = BinaryOp::kEq;
      } else if (MatchOperator("<>") || MatchOperator("!=")) {
        op = BinaryOp::kNe;
      } else if (MatchOperator("<=")) {
        op = BinaryOp::kLe;
      } else if (MatchOperator(">=")) {
        op = BinaryOp::kGe;
      } else if (MatchOperator("<")) {
        op = BinaryOp::kLt;
      } else if (MatchOperator(">")) {
        op = BinaryOp::kGt;
      } else if (Peek().IsKeyword("is")) {
        Advance();
        auto e = std::make_unique<Expr>(ExprKind::kIsNull);
        e->is_not = MatchKeyword("not");
        RETURN_IF_ERROR(ExpectKeyword("null"));
        e->children.push_back(std::move(lhs));
        lhs = std::move(e);
        continue;
      } else if (Peek().IsKeyword("like") ||
                 (Peek().IsKeyword("not") && Peek(1).IsKeyword("like"))) {
        bool neg = MatchKeyword("not");
        Advance();  // LIKE
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        lhs = Expr::MakeBinary(BinaryOp::kLike, std::move(lhs),
                               std::move(rhs));
        if (neg) lhs = Expr::MakeUnary(UnaryOp::kNot, std::move(lhs));
        continue;
      } else if (Peek().IsKeyword("in") ||
                 (Peek().IsKeyword("not") && Peek(1).IsKeyword("in"))) {
        bool neg = MatchKeyword("not");
        Advance();  // IN
        RETURN_IF_ERROR(ExpectOperator("("));
        auto e = std::make_unique<Expr>(ExprKind::kIn);
        e->is_not = neg;
        e->children.push_back(std::move(lhs));
        do {
          ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
          e->children.push_back(std::move(item));
        } while (MatchOperator(","));
        RETURN_IF_ERROR(ExpectOperator(")"));
        lhs = std::move(e);
        continue;
      } else if (Peek().IsKeyword("between") ||
                 (Peek().IsKeyword("not") && Peek(1).IsKeyword("between"))) {
        bool neg = MatchKeyword("not");
        Advance();  // BETWEEN
        auto e = std::make_unique<Expr>(ExprKind::kBetween);
        e->is_not = neg;
        e->children.push_back(std::move(lhs));
        ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
        e->children.push_back(std::move(lo));
        RETURN_IF_ERROR(ExpectKeyword("and"));
        ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
        e->children.push_back(std::move(hi));
        lhs = std::move(e);
        continue;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (MatchOperator("+")) {
        op = BinaryOp::kAdd;
      } else if (MatchOperator("-")) {
        op = BinaryOp::kSub;
      } else if (MatchOperator("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (MatchOperator("*")) {
        op = BinaryOp::kMul;
      } else if (MatchOperator("/")) {
        op = BinaryOp::kDiv;
      } else if (MatchOperator("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchOperator("-")) {
      DepthGuard guard(this);
      RETURN_IF_ERROR(CheckDepth());
      ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::MakeUnary(UnaryOp::kNegate, std::move(operand));
    }
    MatchOperator("+");  // unary plus is a no-op
    return ParsePostfix();
  }

  // Handles the `expr::type` cast suffix (Example 5: '1 week'::interval).
  Result<ExprPtr> ParsePostfix() {
    ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    while (MatchOperator("::")) {
      ASSIGN_OR_RETURN(std::string type_name,
                       ExpectIdentifier("type name after ::"));
      ASSIGN_OR_RETURN(DataType type, ParseTypeName(type_name));
      e = Expr::MakeCast(std::move(e), type);
    }
    return e;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.type == TokenType::kInteger) {
      Advance();
      return Expr::MakeLiteral(Value::Int64(t.int_value));
    }
    if (t.type == TokenType::kFloat) {
      Advance();
      return Expr::MakeLiteral(Value::Double(t.float_value));
    }
    if (t.type == TokenType::kString) {
      Advance();
      return Expr::MakeLiteral(Value::String(t.text));
    }
    if (MatchOperator("(")) {
      if (Peek().IsKeyword("select")) {
        return Result<ExprPtr>(
            Error("scalar subqueries are not supported"));
      }
      ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      RETURN_IF_ERROR(ExpectOperator(")"));
      return e;
    }
    if (MatchOperator("*")) {
      return Expr::MakeStar();
    }
    if (t.type != TokenType::kIdentifier) {
      return Result<ExprPtr>(Error("expected expression"));
    }
    // Keyword-led expressions.
    if (t.IsKeyword("null")) {
      Advance();
      return Expr::MakeLiteral(Value::Null());
    }
    if (t.IsKeyword("true")) {
      Advance();
      return Expr::MakeLiteral(Value::Bool(true));
    }
    if (t.IsKeyword("false")) {
      Advance();
      return Expr::MakeLiteral(Value::Bool(false));
    }
    if (t.IsKeyword("interval") && Peek(1).type == TokenType::kString) {
      Advance();
      std::string text = Advance().text;
      auto micros = ParseIntervalMicros(text);
      if (!micros.ok()) {
        return Result<ExprPtr>(Status::ParseError(micros.status().message()));
      }
      return Expr::MakeLiteral(Value::Interval(*micros));
    }
    if (t.IsKeyword("timestamp") && Peek(1).type == TokenType::kString) {
      Advance();
      std::string text = Advance().text;
      auto micros = ParseTimestampMicros(text);
      if (!micros.ok()) {
        return Result<ExprPtr>(Status::ParseError(micros.status().message()));
      }
      return Expr::MakeLiteral(Value::Timestamp(*micros));
    }
    if (t.IsKeyword("cast")) {
      Advance();
      RETURN_IF_ERROR(ExpectOperator("("));
      ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
      RETURN_IF_ERROR(ExpectKeyword("as"));
      ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier("type name"));
      ASSIGN_OR_RETURN(DataType type, ParseTypeName(type_name));
      // Optional length modifier.
      if (MatchOperator("(")) {
        if (Peek().type != TokenType::kInteger) {
          return Result<ExprPtr>(Error("expected length in type modifier"));
        }
        Advance();
        RETURN_IF_ERROR(ExpectOperator(")"));
      }
      RETURN_IF_ERROR(ExpectOperator(")"));
      return Expr::MakeCast(std::move(operand), type);
    }
    if (t.IsKeyword("case")) {
      Advance();
      auto e = std::make_unique<Expr>(ExprKind::kCase);
      while (MatchKeyword("when")) {
        ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
        RETURN_IF_ERROR(ExpectKeyword("then"));
        ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
        e->children.push_back(std::move(cond));
        e->children.push_back(std::move(then));
      }
      if (e->children.empty()) {
        return Result<ExprPtr>(Error("CASE requires at least one WHEN"));
      }
      if (MatchKeyword("else")) {
        ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
        e->children.push_back(std::move(els));
        e->case_has_else = true;
      }
      RETURN_IF_ERROR(ExpectKeyword("end"));
      return ExprPtr(std::move(e));
    }

    // Reserved clause keywords cannot start an expression; catching them
    // here turns "SELECT FROM t" into a clear error instead of binding a
    // column named "from".
    if (ReservedWords().count(ToLower(t.text)) != 0 &&
        !Peek(1).IsOperator("(")) {
      return Result<ExprPtr>(Error("expected expression"));
    }

    // Identifier: function call, qualified column, bare column, or t.*.
    std::string first = Advance().text;
    if (Peek().IsOperator("(")) {
      Advance();
      bool distinct = false;
      std::vector<ExprPtr> args;
      if (!Peek().IsOperator(")")) {
        if (MatchKeyword("distinct")) distinct = true;
        do {
          ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (MatchOperator(","));
      }
      RETURN_IF_ERROR(ExpectOperator(")"));
      return Expr::MakeFunctionCall(ToLower(first), std::move(args),
                                    distinct);
    }
    if (MatchOperator(".")) {
      if (MatchOperator("*")) {
        return Expr::MakeStar(first);
      }
      ASSIGN_OR_RETURN(std::string second,
                       ExpectIdentifier("column name after '.'"));
      return Expr::MakeColumnRef(first, second);
    }
    return Expr::MakeColumnRef("", first);
  }

  // One parenthesis/NOT/unary/subquery level costs one depth unit but ~10
  // stack frames through the precedence chain; 250 keeps the worst case
  // under the default 8 MB stack even with ASan's enlarged frames.
  static constexpr int kMaxDepth = 250;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<std::vector<StatementPtr>> ParseSql(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatements();
}

Result<StatementPtr> ParseSingleStatement(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseSql(sql));
  if (stmts.size() != 1) {
    return Status::ParseError("expected exactly one statement, got " +
                              std::to_string(stmts.size()));
  }
  return std::move(stmts[0]);
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

Result<DataType> ParseTypeName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "varchar" || lower == "text" || lower == "string" ||
      lower == "char") {
    return DataType::kString;
  }
  if (lower == "int" || lower == "integer" || lower == "bigint" ||
      lower == "smallint" || lower == "int8" || lower == "int4") {
    return DataType::kInt64;
  }
  if (lower == "double" || lower == "float" || lower == "real" ||
      lower == "float8" || lower == "numeric" || lower == "decimal") {
    return DataType::kDouble;
  }
  if (lower == "boolean" || lower == "bool") return DataType::kBool;
  if (lower == "timestamp" || lower == "timestamptz") {
    return DataType::kTimestamp;
  }
  if (lower == "interval") return DataType::kInterval;
  return Status::ParseError("unknown type name: " + name);
}

}  // namespace streamrel::sql
