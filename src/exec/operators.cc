#include "exec/operators.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "exec/aggregates.h"
#include "exec/group_index.h"

namespace streamrel::exec {

void ExecNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(name());
  out->append("\n");
}

void ExecNode::AppendOperatorKey(std::string* key) const {
  Value::String(name()).Serialize(key);
}

std::string ExplainPlan(const ExecNode& root) {
  std::string out;
  root.Explain(0, &out);
  return out;
}

size_t HashValues(const std::vector<Value>& values) {
  size_t h = 0x345678;
  for (const Value& v : values) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

bool ValuesEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

Result<std::vector<Row>> CollectRows(ExecNode* root, ExecContext* ctx) {
  RETURN_IF_ERROR(root->Open(ctx));
  std::vector<Row> rows;
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, root->Next(&row));
    if (!has) break;
    // Every Next assigns its output row whole, so the row can move.
    rows.push_back(std::move(row));
  }
  root->Close();
  return rows;
}

// --- BufferScanNode ---------------------------------------------------------

BufferScanNode::BufferScanNode(Schema schema,
                               std::shared_ptr<const std::vector<Row>> batch)
    : ExecNode(std::move(schema)), batch_(std::move(batch)) {}

void BufferScanNode::SetBatch(std::shared_ptr<const std::vector<Row>> batch) {
  batch_ = std::move(batch);
}

Status BufferScanNode::Open(ExecContext*) {
  pos_ = 0;
  return Status::OK();
}

Result<bool> BufferScanNode::Next(Row* row) {
  if (batch_ == nullptr || pos_ >= batch_->size()) return false;
  *row = (*batch_)[pos_++];
  return true;
}

// --- Heap reads -------------------------------------------------------------

namespace {

/// Moves the rows of a heap read that pass `predicate` (null passes every
/// row) into `rows`. An evaluation error ends the read and lands in
/// `error`.
struct Collector {
  const BoundExpr* predicate;
  const EvalContext* eval;
  std::vector<Row>* rows;
  Status error = Status::OK();

  // Captures only `this`, so the std::function holds it without
  // allocating.
  storage::HeapTable::Visitor Visitor() {
    return [this](storage::RowId, const storage::HeapTable::RowMeta&,
                  Row&& row) {
      if (predicate != nullptr) {
        Result<bool> keep = EvalPredicate(*predicate, row, *eval);
        if (!keep.ok()) {
          error = keep.status();
          return false;
        }
        if (!*keep) return true;
      }
      rows->push_back(std::move(row));
      return true;
    };
  }
};

}  // namespace

// --- SeqScanNode ------------------------------------------------------------

SeqScanNode::SeqScanNode(Schema schema, const catalog::TableInfo* table,
                         BoundExprPtr predicate)
    : ExecNode(std::move(schema)),
      table_(table),
      predicate_(std::move(predicate)) {}

Status SeqScanNode::Open(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  Collector keep{predicate_.get(), &ctx->eval, &rows_};
  RETURN_IF_ERROR(table_->heap->Scan(*ctx->txns, ctx->snapshot, ctx->reader,
                                     keep.Visitor()));
  return keep.error;
}

Result<bool> SeqScanNode::Next(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = std::move(rows_[pos_++]);
  return true;
}

void SeqScanNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("SeqScan(");
  out->append(table_->name);
  if (predicate_ != nullptr) out->append(", filtered");
  out->append(")\n");
}

// --- IndexScanNode ----------------------------------------------------------

IndexScanNode::IndexScanNode(Schema schema, const catalog::TableInfo* table,
                             const storage::BTreeIndex* index,
                             std::optional<Value> lo, bool lo_inclusive,
                             std::optional<Value> hi, bool hi_inclusive,
                             BoundExprPtr residual)
    : ExecNode(std::move(schema)),
      table_(table),
      index_(index),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      lo_inclusive_(lo_inclusive),
      hi_inclusive_(hi_inclusive),
      residual_(std::move(residual)) {}

Status IndexScanNode::Open(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  std::vector<storage::RowId> ids;
  index_->ScanRange(lo_, lo_inclusive_, hi_, hi_inclusive_,
                    [&](const Value&, storage::RowId id) {
                      ids.push_back(id);
                      return true;
                    });
  Collector keep{residual_.get(), &ctx->eval, &rows_};
  RETURN_IF_ERROR(table_->heap->Fetch(*ctx->txns, ctx->snapshot, ctx->reader,
                                      ids, keep.Visitor()));
  return keep.error;
}

Result<bool> IndexScanNode::Next(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = std::move(rows_[pos_++]);
  return true;
}

void IndexScanNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("IndexScan(");
  out->append(table_->name);
  out->append(".");
  out->append(index_->column_name());
  out->append(")\n");
}

// --- FilterNode -------------------------------------------------------------

FilterNode::FilterNode(ExecNodePtr child, BoundExprPtr predicate)
    : ExecNode(child->schema()),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {}

Status FilterNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> FilterNode::Next(Row* row) {
  for (;;) {
    ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, *row, ctx_->eval));
    if (keep) return true;
  }
}

void FilterNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  child_->Explain(indent + 1, out);
}

void FilterNode::AppendOperatorKey(std::string* key) const {
  ExecNode::AppendOperatorKey(key);
  AppendExprKey(*predicate_, key);
}

// --- ProjectNode ------------------------------------------------------------

ProjectNode::ProjectNode(Schema schema, ExecNodePtr child,
                         std::vector<BoundExprPtr> exprs)
    : ExecNode(std::move(schema)),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {}

Status ProjectNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> ProjectNode::Next(Row* row) {
  Row input;
  ASSIGN_OR_RETURN(bool has, child_->Next(&input));
  if (!has) return false;
  row->clear();
  row->reserve(exprs_.size());
  for (const auto& expr : exprs_) {
    ASSIGN_OR_RETURN(Value v, expr->Eval(input, ctx_->eval));
    row->push_back(std::move(v));
  }
  return true;
}

void ProjectNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  child_->Explain(indent + 1, out);
}

void ProjectNode::AppendOperatorKey(std::string* key) const {
  ExecNode::AppendOperatorKey(key);
  AppendKey(static_cast<int64_t>(exprs_.size()), key);
  for (const auto& expr : exprs_) AppendExprKey(*expr, key);
}

// --- LimitNode --------------------------------------------------------------

LimitNode::LimitNode(ExecNodePtr child, int64_t limit, int64_t offset)
    : ExecNode(child->schema()),
      child_(std::move(child)),
      limit_(limit),
      offset_(offset) {
  // A sort directly below need only order the rows this node can return.
  auto* sort = dynamic_cast<SortNode*>(child_.get());
  if (sort != nullptr && limit_ >= 0 &&
      limit_ <= std::numeric_limits<int64_t>::max() - offset_) {
    sort->set_bound(limit_ + offset_);
  }
}

Status LimitNode::Open(ExecContext* ctx) {
  returned_ = 0;
  skipped_ = 0;
  return child_->Open(ctx);
}

Result<bool> LimitNode::Next(Row* row) {
  while (skipped_ < offset_) {
    ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ++skipped_;
  }
  if (limit_ >= 0 && returned_ >= limit_) return false;
  ASSIGN_OR_RETURN(bool has, child_->Next(row));
  if (!has) return false;
  ++returned_;
  return true;
}

void LimitNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("Limit(" + std::to_string(limit_) +
              (offset_ > 0 ? ", offset " + std::to_string(offset_) : "") +
              ")\n");
  child_->Explain(indent + 1, out);
}

void LimitNode::AppendOperatorKey(std::string* key) const {
  ExecNode::AppendOperatorKey(key);
  AppendKey(limit_, key);
  AppendKey(offset_, key);
}

// --- DistinctNode -----------------------------------------------------------

DistinctNode::DistinctNode(ExecNodePtr child)
    : ExecNode(child->schema()), child_(std::move(child)) {}

Status DistinctNode::Open(ExecContext* ctx) {
  unique_rows_.clear();
  pos_ = 0;
  RETURN_IF_ERROR(child_->Open(ctx));
  GroupIndex seen;
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    const size_t h = HashValues(row);
    if (seen.Find(h, [&](size_t idx) {
          return ValuesEqual(unique_rows_[idx], row);
        }) == GroupIndex::kNone) {
      seen.Insert(h, unique_rows_.size());
      unique_rows_.push_back(std::move(row));
    }
  }
  child_->Close();
  return Status::OK();
}

Result<bool> DistinctNode::Next(Row* row) {
  if (pos_ >= unique_rows_.size()) return false;
  *row = std::move(unique_rows_[pos_++]);
  return true;
}

void DistinctNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  child_->Explain(indent + 1, out);
}

// --- SortNode ---------------------------------------------------------------

SortNode::SortNode(ExecNodePtr child, std::vector<SortKey> keys)
    : ExecNode(child->schema()),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

Status SortNode::Open(ExecContext* ctx) {
  rows_.clear();
  order_.clear();
  pos_ = 0;
  RETURN_IF_ERROR(child_->Open(ctx));
  // Keys go into one flat array and the sort permutes row indexes, so no
  // row moves and no key costs an allocation of its own.
  std::vector<Value> keys;
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    for (const SortKey& k : keys_) {
      ASSIGN_OR_RETURN(Value v, k.expr->Eval(row, ctx->eval));
      keys.push_back(std::move(v));
    }
    rows_.push_back(std::move(row));
  }
  child_->Close();
  const size_t width = keys_.size();
  order_.resize(rows_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  auto by_keys = [&](size_t a, size_t b) {
    for (size_t i = 0; i < width; ++i) {
      int c = keys[a * width + i].Compare(keys[b * width + i]);
      if (c != 0) return keys_[i].ascending ? c < 0 : c > 0;
    }
    return false;
  };
  if (bound_ >= 0 && static_cast<size_t>(bound_) < order_.size()) {
    // Top-K: arrival order breaks ties, so the first bound_ rows are the
    // prefix the stable sort below would produce.
    std::partial_sort(order_.begin(), order_.begin() + bound_, order_.end(),
                      [&](size_t a, size_t b) {
                        if (by_keys(a, b)) return true;
                        return !by_keys(b, a) && a < b;
                      });
    order_.resize(static_cast<size_t>(bound_));
  } else {
    std::stable_sort(order_.begin(), order_.end(), by_keys);
  }
  return Status::OK();
}

Result<bool> SortNode::Next(Row* row) {
  if (pos_ >= order_.size()) return false;
  *row = std::move(rows_[order_[pos_++]]);
  return true;
}

void SortNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  child_->Explain(indent + 1, out);
}

void SortNode::AppendOperatorKey(std::string* key) const {
  ExecNode::AppendOperatorKey(key);
  AppendKey(bound_, key);
  AppendKey(static_cast<int64_t>(keys_.size()), key);
  for (const SortKey& k : keys_) {
    AppendKey(k.ascending ? 1 : 0, key);
    AppendExprKey(*k.expr, key);
  }
}

// --- HashAggregateNode ------------------------------------------------------

HashAggregateNode::HashAggregateNode(Schema schema, ExecNodePtr child,
                                     std::vector<BoundExprPtr> group_exprs,
                                     std::vector<AggregateCall> agg_calls)
    : ExecNode(std::move(schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)) {}

HashAggregateNode::Input HashAggregateNode::TakeInput() {
  return Input{std::move(child_), std::move(group_exprs_),
               std::move(agg_calls_)};
}

void HashAggregateNode::Feed(std::vector<Row> groups) {
  results_ = std::move(groups);
}

Status HashAggregateNode::Open(ExecContext* ctx) {
  pos_ = 0;
  if (child_ == nullptr) return Status::OK();  // emits the fed groups
  results_.clear();
  std::vector<AggKind> kinds;
  kinds.reserve(agg_calls_.size());
  for (const AggregateCall& call : agg_calls_) {
    ASSIGN_OR_RETURN(AggKind kind,
                     ResolveAggregate(call.function, call.star, call.distinct));
    kinds.push_back(kind);
  }
  AggregateTable table(group_exprs_.size(), std::move(kinds));
  RETURN_IF_ERROR(child_->Open(ctx));

  // The child's rows are evaluated into chunks of key and argument
  // columns, and each chunk is absorbed through the table's kernels.
  std::vector<const BoundExpr*> exprs;
  for (const auto& g : group_exprs_) exprs.push_back(g.get());
  for (const AggregateCall& call : agg_calls_) {
    if (call.argument != nullptr) exprs.push_back(call.argument.get());
  }
  constexpr size_t kChunkRows = 1024;
  std::vector<RowIndex> identity(kChunkRows);
  for (size_t i = 0; i < kChunkRows; ++i) {
    identity[i] = static_cast<RowIndex>(i);
  }
  ColumnBatch chunk(exprs.size());
  std::vector<CellSource> keys(group_exprs_.size());
  std::vector<CellSource> args(agg_calls_.size());
  std::vector<size_t> hashes(kChunkRows);
  auto flush = [&]() -> Status {
    const size_t n = chunk.row_count();
    if (n == 0) return Status::OK();
    size_t col = 0;
    for (CellSource& k : keys) k = CellSource{&chunk, col++, identity.data()};
    for (size_t i = 0; i < agg_calls_.size(); ++i) {
      args[i] = agg_calls_[i].argument != nullptr
                    ? CellSource{&chunk, col++, identity.data()}
                    : CellSource{};
    }
    AggregateTable::HashKeys(keys, 0, n, hashes.data());
    int64_t new_bytes = 0;
    RETURN_IF_ERROR(table.Add(keys, args, hashes.data(), 0, n, &new_bytes));
    chunk.Clear();
    return Status::OK();
  };

  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    for (size_t c = 0; c < exprs.size(); ++c) {
      ASSIGN_OR_RETURN(Value v, exprs[c]->Eval(row, ctx->eval));
      chunk.AppendValue(c, v);
    }
    chunk.CommitRow();
    if (chunk.row_count() == kChunkRows) RETURN_IF_ERROR(flush());
  }
  RETURN_IF_ERROR(flush());
  child_->Close();

  // Scalar aggregation produces one row even on empty input.
  if (group_exprs_.empty()) table.EnsureScalarGroup();
  table.Finalize(nullptr, &results_);
  return Status::OK();
}

Result<bool> HashAggregateNode::Next(Row* row) {
  if (pos_ >= results_.size()) return false;
  *row = std::move(results_[pos_++]);
  return true;
}

void HashAggregateNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("HashAggregate(groups=" + std::to_string(group_exprs_.size()) +
              ", aggs=" + std::to_string(agg_calls_.size()) + ")\n");
  if (child_ != nullptr) child_->Explain(indent + 1, out);
}

// --- HashJoinNode -----------------------------------------------------------

HashJoinNode::HashJoinNode(Schema schema, ExecNodePtr left, ExecNodePtr right,
                           std::vector<BoundExprPtr> left_keys,
                           std::vector<BoundExprPtr> right_keys,
                           BoundExprPtr residual, sql::JoinType join_type)
    : ExecNode(std::move(schema)),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      join_type_(join_type) {}

Status HashJoinNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  hash_table_.clear();
  current_bucket_ = nullptr;
  bucket_pos_ = 0;
  left_exhausted_ = false;
  current_matched_ = false;
  started_ = false;
  RETURN_IF_ERROR(left_->Open(ctx));
  RETURN_IF_ERROR(right_->Open(ctx));
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    std::vector<Value> key;
    key.reserve(right_keys_.size());
    bool has_null = false;
    for (const auto& k : right_keys_) {
      ASSIGN_OR_RETURN(Value v, k->Eval(row, ctx->eval));
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    if (has_null) continue;  // NULL keys never join
    // Store the key values with the row so probes can confirm equality.
    size_t h = HashValues(key);
    Row keyed = row;
    for (Value& v : key) keyed.push_back(std::move(v));
    hash_table_[h].push_back(std::move(keyed));
  }
  right_->Close();
  return Status::OK();
}

Result<bool> HashJoinNode::PullLeft() {
  ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
  if (!has) {
    left_exhausted_ = true;
    return false;
  }
  current_left_key_.clear();
  current_left_key_.reserve(left_keys_.size());
  bool has_null = false;
  for (const auto& k : left_keys_) {
    ASSIGN_OR_RETURN(Value v, k->Eval(current_left_, ctx_->eval));
    if (v.is_null()) has_null = true;
    current_left_key_.push_back(std::move(v));
  }
  if (has_null) {
    current_bucket_ = nullptr;
  } else {
    auto it = hash_table_.find(HashValues(current_left_key_));
    current_bucket_ = it == hash_table_.end() ? nullptr : &it->second;
  }
  bucket_pos_ = 0;
  current_matched_ = false;
  return true;
}

Result<bool> HashJoinNode::Next(Row* row) {
  if (!started_) {
    started_ = true;
    ASSIGN_OR_RETURN(bool has, PullLeft());
    if (!has) return false;
  }
  for (;;) {
    if (left_exhausted_) return false;
    while (current_bucket_ != nullptr &&
           bucket_pos_ < current_bucket_->size()) {
      const Row& keyed = (*current_bucket_)[bucket_pos_++];
      size_t right_width = keyed.size() - right_keys_.size();
      std::vector<Value> rkey(keyed.begin() + right_width, keyed.end());
      if (!ValuesEqual(current_left_key_, rkey)) continue;
      Row joined = current_left_;
      joined.insert(joined.end(), keyed.begin(),
                    keyed.begin() + right_width);
      if (residual_ != nullptr) {
        ASSIGN_OR_RETURN(bool keep,
                         EvalPredicate(*residual_, joined, ctx_->eval));
        if (!keep) continue;
      }
      current_matched_ = true;
      *row = std::move(joined);
      return true;
    }
    // Bucket exhausted for this left row.
    if (join_type_ == sql::JoinType::kLeft && !current_matched_) {
      Row joined = current_left_;
      size_t right_width = schema_.num_columns() - current_left_.size();
      for (size_t i = 0; i < right_width; ++i) joined.push_back(Value::Null());
      current_matched_ = true;  // emit the null-padded row only once
      *row = std::move(joined);
      return true;
    }
    ASSIGN_OR_RETURN(bool has, PullLeft());
    if (!has) return false;
  }
}

void HashJoinNode::Close() {
  left_->Close();
  hash_table_.clear();
}

void HashJoinNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(std::string("HashJoin(") +
              (join_type_ == sql::JoinType::kLeft ? "left" : "inner") + ")\n");
  left_->Explain(indent + 1, out);
  right_->Explain(indent + 1, out);
}

// --- IndexLookupJoinNode ----------------------------------------------------

IndexLookupJoinNode::IndexLookupJoinNode(Schema schema, ExecNodePtr left,
                                         const catalog::TableInfo* table,
                                         const storage::BTreeIndex* index,
                                         BoundExprPtr left_key,
                                         BoundExprPtr residual,
                                         sql::JoinType join_type)
    : ExecNode(std::move(schema)),
      left_(std::move(left)),
      table_(table),
      index_(index),
      left_key_(std::move(left_key)),
      residual_(std::move(residual)),
      join_type_(join_type) {}

Status IndexLookupJoinNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  matches_.clear();
  match_pos_ = 0;
  left_exhausted_ = false;
  started_ = false;
  current_matched_ = false;
  return left_->Open(ctx);
}

Result<bool> IndexLookupJoinNode::PullLeft() {
  ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
  if (!has) {
    left_exhausted_ = true;
    return false;
  }
  matches_.clear();
  match_pos_ = 0;
  current_matched_ = false;
  ASSIGN_OR_RETURN(Value key, left_key_->Eval(current_left_, ctx_->eval));
  if (key.is_null()) return true;  // NULL keys never join
  match_ids_.clear();
  index_->ScanEqual(key, [&](storage::RowId id) {
    match_ids_.push_back(id);
    return true;
  });
  Collector keep{nullptr, &ctx_->eval, &matches_};
  RETURN_IF_ERROR(table_->heap->Fetch(*ctx_->txns, ctx_->snapshot,
                                      ctx_->reader, match_ids_,
                                      keep.Visitor()));
  RETURN_IF_ERROR(keep.error);
  return true;
}

Result<bool> IndexLookupJoinNode::Next(Row* row) {
  if (!started_) {
    started_ = true;
    ASSIGN_OR_RETURN(bool has, PullLeft());
    if (!has) return false;
  }
  for (;;) {
    if (left_exhausted_) return false;
    while (match_pos_ < matches_.size()) {
      Row& right_row = matches_[match_pos_++];
      Row joined = current_left_;
      joined.insert(joined.end(), std::make_move_iterator(right_row.begin()),
                    std::make_move_iterator(right_row.end()));
      if (residual_ != nullptr) {
        ASSIGN_OR_RETURN(bool keep,
                         EvalPredicate(*residual_, joined, ctx_->eval));
        if (!keep) continue;
      }
      current_matched_ = true;
      *row = std::move(joined);
      return true;
    }
    if (join_type_ == sql::JoinType::kLeft && !current_matched_) {
      Row joined = current_left_;
      size_t right_width = table_->schema.num_columns();
      for (size_t i = 0; i < right_width; ++i) joined.push_back(Value::Null());
      current_matched_ = true;
      *row = std::move(joined);
      return true;
    }
    ASSIGN_OR_RETURN(bool has, PullLeft());
    if (!has) return false;
  }
}

void IndexLookupJoinNode::Explain(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(std::string("IndexLookupJoin(") + table_->name + "." +
              index_->column_name() + ", " +
              (join_type_ == sql::JoinType::kLeft ? "left" : "inner") +
              ")\n");
  left_->Explain(indent + 1, out);
}

// --- NestedLoopJoinNode -----------------------------------------------------

NestedLoopJoinNode::NestedLoopJoinNode(Schema schema, ExecNodePtr left,
                                       ExecNodePtr right,
                                       BoundExprPtr condition,
                                       sql::JoinType join_type)
    : ExecNode(std::move(schema)),
      left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      join_type_(join_type) {}

Status NestedLoopJoinNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  right_rows_.clear();
  right_pos_ = 0;
  left_valid_ = false;
  current_matched_ = false;
  RETURN_IF_ERROR(left_->Open(ctx));
  RETURN_IF_ERROR(right_->Open(ctx));
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    right_rows_.push_back(std::move(row));
  }
  right_->Close();
  return Status::OK();
}

Result<bool> NestedLoopJoinNode::Next(Row* row) {
  for (;;) {
    if (!left_valid_) {
      ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
      if (!has) return false;
      left_valid_ = true;
      right_pos_ = 0;
      current_matched_ = false;
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_pos_++];
      Row joined = current_left_;
      joined.insert(joined.end(), right_row.begin(), right_row.end());
      if (condition_ != nullptr) {
        ASSIGN_OR_RETURN(bool keep,
                         EvalPredicate(*condition_, joined, ctx_->eval));
        if (!keep) continue;
      }
      current_matched_ = true;
      *row = std::move(joined);
      return true;
    }
    if (join_type_ == sql::JoinType::kLeft && !current_matched_) {
      Row joined = current_left_;
      size_t right_width = schema_.num_columns() - current_left_.size();
      for (size_t i = 0; i < right_width; ++i) joined.push_back(Value::Null());
      left_valid_ = false;
      *row = std::move(joined);
      return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinNode::Close() {
  left_->Close();
  right_rows_.clear();
}

void NestedLoopJoinNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  left_->Explain(indent + 1, out);
  right_->Explain(indent + 1, out);
}

// --- UnionAllNode -----------------------------------------------------------

UnionAllNode::UnionAllNode(Schema schema, std::vector<ExecNodePtr> children)
    : ExecNode(std::move(schema)), children_(std::move(children)) {}

Status UnionAllNode::Open(ExecContext* ctx) {
  ctx_ = ctx;
  current_ = 0;
  if (!children_.empty()) {
    RETURN_IF_ERROR(children_[0]->Open(ctx));
  }
  return Status::OK();
}

Result<bool> UnionAllNode::Next(Row* row) {
  while (current_ < children_.size()) {
    ASSIGN_OR_RETURN(bool has, children_[current_]->Next(row));
    if (has) return true;
    children_[current_]->Close();
    ++current_;
    if (current_ < children_.size()) {
      RETURN_IF_ERROR(children_[current_]->Open(ctx_));
    }
  }
  return false;
}

void UnionAllNode::Close() {
  if (current_ < children_.size()) children_[current_]->Close();
}

void UnionAllNode::Explain(int indent, std::string* out) const {
  ExecNode::Explain(indent, out);
  for (const auto& child : children_) child->Explain(indent + 1, out);
}

}  // namespace streamrel::exec
