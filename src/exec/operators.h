#ifndef STREAMREL_EXEC_OPERATORS_H_
#define STREAMREL_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/binder.h"
#include "exec/expr.h"
#include "storage/transaction.h"

namespace streamrel::exec {

/// Per-execution state threaded through the operator tree: the MVCC
/// snapshot to read under, the reading transaction, and the window context
/// for cq_close(*).
struct ExecContext {
  const storage::TransactionManager* txns = nullptr;
  storage::Snapshot snapshot;
  storage::TxnId reader = storage::kInvalidTxn;
  EvalContext eval;
};

/// Volcano-style pull iterator. Lifecycle: Open -> Next* -> Close; a plan
/// may be re-executed (continuous queries re-run the same plan once per
/// window close).
class ExecNode {
 public:
  explicit ExecNode(Schema schema) : schema_(std::move(schema)) {}
  virtual ~ExecNode() = default;

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  const Schema& schema() const { return schema_; }

  virtual Status Open(ExecContext* ctx) = 0;
  /// Fills `*row` and returns true, or returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
  virtual void Close() {}

  virtual const char* name() const = 0;
  /// Appends an indented plan-tree rendering (for tests and EXPLAIN-style
  /// debugging).
  virtual void Explain(int indent, std::string* out) const;

  /// Unary operators (filter, project, limit, distinct, sort, aggregate)
  /// return their input; leaves, joins and unions return null.
  virtual ExecNode* input() const { return nullptr; }
  /// Appends a bit-exact encoding of a unary operator's own parameters
  /// (not its input's) to `key`: over equal inputs, operators with equal
  /// encodings produce equal rows. Defined for the operators input()
  /// walks through; the default encodes name() alone, which is exact for
  /// DISTINCT.
  virtual void AppendOperatorKey(std::string* key) const;

 protected:
  Schema schema_;
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

/// Renders the whole plan tree.
std::string ExplainPlan(const ExecNode& root);

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

/// Scans an in-memory batch of rows. The batch is shared and swappable:
/// the continuous-query executor re-points it at each window's contents and
/// re-opens the plan.
class BufferScanNode : public ExecNode {
 public:
  BufferScanNode(Schema schema,
                 std::shared_ptr<const std::vector<Row>> batch);

  /// Swaps the batch (between executions, not while open).
  void SetBatch(std::shared_ptr<const std::vector<Row>> batch);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  const char* name() const override { return "BufferScan"; }

 private:
  std::shared_ptr<const std::vector<Row>> batch_;
  size_t pos_ = 0;
};

/// Full MVCC scan of a heap table with an optional pushed-down predicate.
class SeqScanNode : public ExecNode {
 public:
  SeqScanNode(Schema schema, const catalog::TableInfo* table,
              BoundExprPtr predicate /* may be null */);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  const char* name() const override { return "SeqScan"; }
  void Explain(int indent, std::string* out) const override;

 private:
  const catalog::TableInfo* table_;
  BoundExprPtr predicate_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// B+Tree index range scan: takes the matching RowIds from the index, reads
/// the visible versions in one heap Fetch and applies the residual
/// predicate.
class IndexScanNode : public ExecNode {
 public:
  IndexScanNode(Schema schema, const catalog::TableInfo* table,
                const storage::BTreeIndex* index, std::optional<Value> lo,
                bool lo_inclusive, std::optional<Value> hi, bool hi_inclusive,
                BoundExprPtr residual /* may be null */);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  const char* name() const override { return "IndexScan"; }
  void Explain(int indent, std::string* out) const override;

 private:
  const catalog::TableInfo* table_;
  const storage::BTreeIndex* index_;
  std::optional<Value> lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
  BoundExprPtr residual_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Unary operators
// ---------------------------------------------------------------------------

class FilterNode : public ExecNode {
 public:
  FilterNode(ExecNodePtr child, BoundExprPtr predicate);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Filter"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }
  void AppendOperatorKey(std::string* key) const override;

  const BoundExpr& predicate() const { return *predicate_; }
  /// Hands the predicate to a caller that evaluates it elsewhere (a shared
  /// CQ's stream pipeline); the node must not run afterwards.
  BoundExprPtr TakePredicate() { return std::move(predicate_); }

 private:
  ExecNodePtr child_;
  BoundExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
};

class ProjectNode : public ExecNode {
 public:
  ProjectNode(Schema schema, ExecNodePtr child,
              std::vector<BoundExprPtr> exprs);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Project"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }
  void AppendOperatorKey(std::string* key) const override;

 private:
  ExecNodePtr child_;
  std::vector<BoundExprPtr> exprs_;
  ExecContext* ctx_ = nullptr;
};

class LimitNode : public ExecNode {
 public:
  LimitNode(ExecNodePtr child, int64_t limit, int64_t offset);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Limit"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }
  void AppendOperatorKey(std::string* key) const override;

 private:
  ExecNodePtr child_;
  int64_t limit_, offset_;
  int64_t returned_ = 0, skipped_ = 0;
};

class DistinctNode : public ExecNode {
 public:
  explicit DistinctNode(ExecNodePtr child);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Distinct"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }

 private:
  ExecNodePtr child_;
  std::vector<Row> unique_rows_;
  size_t pos_ = 0;
};

struct SortKey {
  BoundExprPtr expr;
  bool ascending = true;
};

class SortNode : public ExecNode {
 public:
  SortNode(ExecNodePtr child, std::vector<SortKey> keys);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Sort"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }
  void AppendOperatorKey(std::string* key) const override;

  /// Orders only the first `bound` rows and emits no more (top-K); a
  /// LimitNode directly above sets it to its limit + offset. Negative, the
  /// default, orders every row.
  void set_bound(int64_t bound) { bound_ = bound; }

 private:
  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  int64_t bound_ = -1;
  std::vector<Row> rows_;     // in arrival order
  std::vector<size_t> order_;  // rows_ indexes in sorted order
  size_t pos_ = 0;
};

/// Hash aggregation. Output layout: [group keys..., aggregate results...].
/// With no group keys, exactly one output row is produced even for empty
/// input (SQL scalar-aggregate semantics).
///
/// A shared continuous query groups its rows in a stream pipeline as they
/// arrive instead: it takes the node's input, keys and calls (TakeInput)
/// and at each window close hands the node that window's merged groups
/// (Feed), so every operator above the node runs as in any other query.
class HashAggregateNode : public ExecNode {
 public:
  HashAggregateNode(Schema schema, ExecNodePtr child,
                    std::vector<BoundExprPtr> group_exprs,
                    std::vector<AggregateCall> agg_calls);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override {
    if (child_ != nullptr) child_->Close();
  }
  const char* name() const override { return "HashAggregate"; }
  void Explain(int indent, std::string* out) const override;
  ExecNode* input() const override { return child_.get(); }

  const std::vector<BoundExprPtr>& group_exprs() const { return group_exprs_; }
  const std::vector<AggregateCall>& agg_calls() const { return agg_calls_; }

  /// What the node aggregates, taken out of it; from then on Open emits
  /// the rows of the last Feed instead.
  struct Input {
    ExecNodePtr child;
    std::vector<BoundExprPtr> group_exprs;
    std::vector<AggregateCall> agg_calls;
  };
  Input TakeInput();
  /// Sets the rows the next Open emits, laid out like the node's output.
  /// Next moves them out.
  void Feed(std::vector<Row> groups);

 private:
  ExecNodePtr child_;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggregateCall> agg_calls_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Hash equi-join; the right side is built into a hash table, the left side
/// probes. Supports INNER and LEFT (left rows preserved). An optional
/// residual predicate is evaluated on the concatenated row.
class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(Schema schema, ExecNodePtr left, ExecNodePtr right,
               std::vector<BoundExprPtr> left_keys,
               std::vector<BoundExprPtr> right_keys, BoundExprPtr residual,
               sql::JoinType join_type);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  const char* name() const override { return "HashJoin"; }
  void Explain(int indent, std::string* out) const override;

 private:
  Result<bool> PullLeft();

  ExecNodePtr left_, right_;
  std::vector<BoundExprPtr> left_keys_, right_keys_;
  BoundExprPtr residual_;
  sql::JoinType join_type_;
  ExecContext* ctx_ = nullptr;

  std::unordered_map<size_t, std::vector<Row>> hash_table_;
  Row current_left_;
  const std::vector<Row>* current_bucket_ = nullptr;
  size_t bucket_pos_ = 0;
  std::vector<Value> current_left_key_;
  bool left_exhausted_ = false;
  bool current_matched_ = false;
  bool started_ = false;
};

/// Index nested-loop join: for each left row, the join key expression is
/// evaluated and probed into a B+Tree index on the right base table, the
/// visible matches are read in one heap Fetch, and the residual is applied
/// to each joined row. The preferred plan for the paper's stream-table
/// joins: the left side is one window's worth of rows while the right side
/// is an ever-growing active table that must not be scanned or hashed in
/// full per window.
class IndexLookupJoinNode : public ExecNode {
 public:
  IndexLookupJoinNode(Schema schema, ExecNodePtr left,
                      const catalog::TableInfo* table,
                      const storage::BTreeIndex* index,
                      BoundExprPtr left_key,
                      BoundExprPtr residual /* may be null */,
                      sql::JoinType join_type);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override { left_->Close(); }
  const char* name() const override { return "IndexLookupJoin"; }
  void Explain(int indent, std::string* out) const override;

 private:
  Result<bool> PullLeft();

  ExecNodePtr left_;
  const catalog::TableInfo* table_;
  const storage::BTreeIndex* index_;
  BoundExprPtr left_key_;
  BoundExprPtr residual_;
  sql::JoinType join_type_;
  ExecContext* ctx_ = nullptr;

  Row current_left_;
  std::vector<storage::RowId> match_ids_;
  std::vector<Row> matches_;  // the current left row's visible right rows
  size_t match_pos_ = 0;
  bool left_exhausted_ = false;
  bool started_ = false;
  bool current_matched_ = false;
};

/// Nested-loop join for arbitrary (non-equi) conditions; the right side is
/// materialized once. Supports INNER, LEFT, and CROSS.
class NestedLoopJoinNode : public ExecNode {
 public:
  NestedLoopJoinNode(Schema schema, ExecNodePtr left, ExecNodePtr right,
                     BoundExprPtr condition /* may be null (cross) */,
                     sql::JoinType join_type);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  const char* name() const override { return "NestedLoopJoin"; }
  void Explain(int indent, std::string* out) const override;

 private:
  ExecNodePtr left_, right_;
  BoundExprPtr condition_;
  sql::JoinType join_type_;
  ExecContext* ctx_ = nullptr;

  std::vector<Row> right_rows_;
  Row current_left_;
  size_t right_pos_ = 0;
  bool left_valid_ = false;
  bool current_matched_ = false;
};

class UnionAllNode : public ExecNode {
 public:
  UnionAllNode(Schema schema, std::vector<ExecNodePtr> children);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  const char* name() const override { return "UnionAll"; }
  void Explain(int indent, std::string* out) const override;

 private:
  std::vector<ExecNodePtr> children_;
  size_t current_ = 0;
  ExecContext* ctx_ = nullptr;
};

// ---------------------------------------------------------------------------
// Helpers shared with the stream runtime
// ---------------------------------------------------------------------------

/// Hash of a key-value vector, consistent with RowKeyEquals.
size_t HashValues(const std::vector<Value>& values);

/// Element-wise equality via Value::Compare.
bool ValuesEqual(const std::vector<Value>& a, const std::vector<Value>& b);

/// Runs a plan to completion and collects its output.
Result<std::vector<Row>> CollectRows(ExecNode* root, ExecContext* ctx);

}  // namespace streamrel::exec

#endif  // STREAMREL_EXEC_OPERATORS_H_
