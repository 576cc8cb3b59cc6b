#include "exec/column_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

namespace streamrel::exec {

namespace {

/// Mirrors streamrel::EstimateValueBytes without materializing a Value:
/// the admission model charges sizeof(Value) per cell plus string payload.
inline int64_t CellBytes(DataType t, size_t string_len) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (t == DataType::kString) bytes += static_cast<int64_t>(string_len);
  return bytes;
}

inline bool IsFixedTag(DataType t) {
  return t == DataType::kBool || t == DataType::kInt64 ||
         t == DataType::kTimestamp || t == DataType::kInterval;
}

}  // namespace

ColumnBatch::ColumnBatch(size_t num_columns) : columns_(num_columns) {
  for (Column& c : columns_) c.offsets.push_back(0);
}

void ColumnBatch::Reserve(size_t rows) {
  for (Column& c : columns_) {
    c.tags.reserve(rows);
    c.fixed.reserve(rows);
    c.offsets.reserve(rows + 1);
    c.nulls.reserve((rows + 63) / 64);
  }
  row_bytes_.reserve(rows);
}

void ColumnBatch::Clear() {
  for (Column& c : columns_) {
    c.tags.clear();
    c.fixed.clear();
    c.offsets.assign(1, 0);
    c.arena.clear();
    c.nulls.clear();
    c.null_count = 0;
    c.seen_tag = kUnseen;
  }
  row_count_ = 0;
  row_bytes_.clear();
  total_row_bytes_ = 0;
  torn_.clear();
}

void ColumnBatch::AppendCell(Column* c, DataType t, int64_t fixed_payload) {
  const size_t row = c->tags.size();
  c->tags.push_back(static_cast<uint8_t>(t));
  c->fixed.push_back(fixed_payload);
  c->offsets.push_back(c->arena.size() > 0
                           ? static_cast<uint32_t>(c->arena.size())
                           : 0);
  if ((row & 63) == 0) c->nulls.push_back(0);
  if (t == DataType::kNull) {
    c->nulls[row >> 6] |= uint64_t{1} << (row & 63);
    ++c->null_count;
  }
  if (c->seen_tag == kUnseen) {
    c->seen_tag = static_cast<uint8_t>(t);
  } else if (c->seen_tag != static_cast<uint8_t>(t)) {
    c->seen_tag = kMixed;
  }
}

void ColumnBatch::AppendNull(size_t col) {
  AppendCell(&columns_[col], DataType::kNull, 0);
}
void ColumnBatch::AppendBool(size_t col, bool v) {
  AppendCell(&columns_[col], DataType::kBool, v ? 1 : 0);
}
void ColumnBatch::AppendInt64(size_t col, int64_t v) {
  AppendCell(&columns_[col], DataType::kInt64, v);
}
void ColumnBatch::AppendDouble(size_t col, double v) {
  int64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendCell(&columns_[col], DataType::kDouble, bits);
}
void ColumnBatch::AppendString(size_t col, std::string_view v) {
  Column& c = columns_[col];
  c.arena.append(v.data(), v.size());
  AppendCell(&c, DataType::kString, 0);
  c.offsets.back() = static_cast<uint32_t>(c.arena.size());
}
void ColumnBatch::AppendTimestamp(size_t col, int64_t micros) {
  AppendCell(&columns_[col], DataType::kTimestamp, micros);
}
void ColumnBatch::AppendInterval(size_t col, int64_t micros) {
  AppendCell(&columns_[col], DataType::kInterval, micros);
}

void ColumnBatch::CommitRow() {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  const RowIndex row = static_cast<RowIndex>(row_count_);
  for (const Column& c : columns_) {
    bytes += CellBytes(static_cast<DataType>(c.tags[row]),
                       c.offsets[row + 1] - c.offsets[row]);
  }
  row_bytes_.push_back(bytes);
  total_row_bytes_ += bytes;
  ++row_count_;
}

void ColumnBatch::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    torn_.emplace_back(static_cast<RowIndex>(row_count_), row);
    for (Column& c : columns_) AppendCell(&c, DataType::kNull, 0);
    const int64_t bytes = EstimateRowBytes(row);
    row_bytes_.push_back(bytes);
    total_row_bytes_ += bytes;
    ++row_count_;
    return;
  }
  for (size_t col = 0; col < columns_.size(); ++col) {
    AppendValue(col, row[col]);
  }
  CommitRow();
}

void ColumnBatch::AppendValue(size_t col, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      AppendNull(col);
      break;
    case DataType::kBool:
      AppendBool(col, v.AsBool());
      break;
    case DataType::kInt64:
      AppendInt64(col, v.AsInt64());
      break;
    case DataType::kDouble:
      AppendDouble(col, v.AsDouble());
      break;
    case DataType::kString:
      AppendString(col, v.AsString());
      break;
    case DataType::kTimestamp:
      AppendTimestamp(col, v.AsTimestampMicros());
      break;
    case DataType::kInterval:
      AppendInterval(col, v.AsIntervalMicros());
      break;
  }
}

Value CellValue(DataType tag, int64_t fixed, std::string_view str) {
  switch (tag) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(fixed != 0);
    case DataType::kInt64:
      return Value::Int64(fixed);
    case DataType::kDouble:
      return Value::Double(column_batch_internal::BitsToDouble(fixed));
    case DataType::kString:
      return Value::String(std::string(str));
    case DataType::kTimestamp:
      return Value::Timestamp(fixed);
    case DataType::kInterval:
      return Value::Interval(fixed);
  }
  return Value::Null();
}

Value ColumnBatch::GetValue(size_t col, RowIndex row) const {
  const DataType t = tag(col, row);
  return CellValue(t, fixed(col, row),
                   t == DataType::kString ? str(col, row) : std::string_view());
}

const Row* ColumnBatch::FindTorn(RowIndex row) const {
  auto it = std::lower_bound(torn_.begin(), torn_.end(), row,
                             [](const std::pair<RowIndex, Row>& t,
                                RowIndex r) { return t.first < r; });
  return it != torn_.end() && it->first == row ? &it->second : nullptr;
}

void ColumnBatch::MaterializeRow(RowIndex row, Row* out) const {
  if (const Row* torn = torn_row(row)) {
    *out = *torn;
    return;
  }
  out->clear();
  out->reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    out->push_back(GetValue(col, row));
  }
}

std::vector<Row> ColumnBatch::MaterializeAll() const {
  std::vector<Row> rows(row_count_);
  for (size_t i = 0; i < row_count_; ++i) {
    MaterializeRow(static_cast<RowIndex>(i), &rows[i]);
  }
  return rows;
}

void ColumnBatch::StampTimestamp(size_t col, RowIndex row, int64_t micros) {
  Column& c = columns_[col];
  const DataType old_tag = static_cast<DataType>(c.tags[row]);
  const int64_t old_bytes =
      CellBytes(old_tag, c.offsets[row + 1] - c.offsets[row]);
  if (old_tag == DataType::kNull) {
    c.nulls[row >> 6] &= ~(uint64_t{1} << (row & 63));
    --c.null_count;
  }
  // Stamping rewrites the tag only (the stale arena span, if any, keeps its
  // offsets so later rows' spans stay valid; the estimate drops the bytes).
  c.tags[row] = static_cast<uint8_t>(DataType::kTimestamp);
  c.fixed[row] = micros;
  if (c.seen_tag != static_cast<uint8_t>(DataType::kTimestamp)) {
    c.seen_tag = kMixed;
  }
  const int64_t new_bytes = CellBytes(DataType::kTimestamp, 0);
  // The string span is still physically in the arena but no longer part of
  // the logical row, and str() on a stamped cell is never called (tag is
  // kTimestamp); the estimate must match the materialized row.
  const int64_t delta = new_bytes - old_bytes;
  row_bytes_[row] += delta;
  total_row_bytes_ += delta;
}

DataType ColumnBatch::uniform_tag(size_t col) const {
  const Column& c = columns_[col];
  if (c.seen_tag == kUnseen || c.seen_tag == kMixed || c.null_count > 0) {
    return DataType::kNull;
  }
  return static_cast<DataType>(c.seen_tag);
}

// --- VectorPredicate --------------------------------------------------------

bool VectorPredicate::CompileNode(const BoundExpr& expr, Node* node) {
  switch (expr.kind) {
    case BoundExprKind::kBinary: {
      if (expr.binary_op == sql::BinaryOp::kAnd) {
        // Decompose only when BOTH sides specialize: a generic side could
        // error at runtime, and the row path surfaces that error even for
        // rows the other side rejects (no reordering of failure behavior).
        Node lhs, rhs;
        if (!CompileNode(*expr.children[0], &lhs) ||
            !CompileNode(*expr.children[1], &rhs)) {
          return false;
        }
        node->kind = NodeKind::kAnd;
        node->children.push_back(std::move(lhs));
        node->children.push_back(std::move(rhs));
        return true;
      }
      const bool is_cmp = expr.binary_op == sql::BinaryOp::kEq ||
                          expr.binary_op == sql::BinaryOp::kNe ||
                          expr.binary_op == sql::BinaryOp::kLt ||
                          expr.binary_op == sql::BinaryOp::kLe ||
                          expr.binary_op == sql::BinaryOp::kGt ||
                          expr.binary_op == sql::BinaryOp::kGe;
      const bool is_like = expr.binary_op == sql::BinaryOp::kLike;
      if (!is_cmp && !is_like) return false;
      const BoundExpr& l = *expr.children[0];
      const BoundExpr& r = *expr.children[1];
      if (l.kind == BoundExprKind::kColumn &&
          r.kind == BoundExprKind::kLiteral) {
        // LIKE patterns must be string literals: the row path renders both
        // operands with ToString(), which only equals AsString() for strings.
        if (is_like && r.literal.type() != DataType::kString) return false;
        node->kind = is_like ? NodeKind::kLike : NodeKind::kCompare;
        node->col = l.column_index;
        node->op = expr.binary_op;
        node->literal = r.literal;
        return true;
      }
      if (is_cmp && l.kind == BoundExprKind::kLiteral &&
          r.kind == BoundExprKind::kColumn) {
        // literal <cmp> col: flip the operator so the column is the lhs.
        node->kind = NodeKind::kCompare;
        node->col = r.column_index;
        node->literal = l.literal;
        switch (expr.binary_op) {
          case sql::BinaryOp::kLt: node->op = sql::BinaryOp::kGt; break;
          case sql::BinaryOp::kLe: node->op = sql::BinaryOp::kGe; break;
          case sql::BinaryOp::kGt: node->op = sql::BinaryOp::kLt; break;
          case sql::BinaryOp::kGe: node->op = sql::BinaryOp::kLe; break;
          default: node->op = expr.binary_op; break;  // Eq/Ne symmetric
        }
        return true;
      }
      return false;
    }
    case BoundExprKind::kIsNull:
      if (expr.children[0]->kind != BoundExprKind::kColumn) return false;
      node->kind = NodeKind::kIsNull;
      node->col = expr.children[0]->column_index;
      node->is_not = expr.is_not;
      return true;
    default:
      return false;
  }
}

VectorPredicate VectorPredicate::Compile(const BoundExpr* expr) {
  VectorPredicate p;
  if (expr == nullptr) {
    p.root_.kind = NodeKind::kPassAll;
    return p;
  }
  if (!CompileNode(*expr, &p.root_)) {
    p.generic_ = expr;
  }
  return p;
}

bool VectorPredicate::RowPasses(const Node& node, const ColumnBatch& batch,
                                RowIndex row) {
  switch (node.kind) {
    case NodeKind::kPassAll:
      return true;
    case NodeKind::kCompare: {
      // EvalComparison: NULL operand => NULL => reject; otherwise
      // Value::Compare three-way. CellEquals covers Eq; for ordering we
      // materialize only the cheap scalar comparison inline.
      if (batch.is_null(node.col, row) || node.literal.is_null()) {
        return false;
      }
      int c;
      const DataType t = batch.tag(node.col, row);
      const DataType lt = node.literal.type();
      if (IsNumericType(t) && IsNumericType(lt)) {
        if (t == DataType::kInt64 && lt == DataType::kInt64) {
          const int64_t a = batch.fixed(node.col, row);
          const int64_t b = node.literal.AsInt64();
          c = a < b ? -1 : (a > b ? 1 : 0);
        } else {
          const double a = t == DataType::kDouble
                               ? batch.dbl(node.col, row)
                               : static_cast<double>(
                                     batch.fixed(node.col, row));
          const double b = node.literal.AsDouble();
          c = a < b ? -1 : (a > b ? 1 : 0);
        }
      } else if (t != lt) {
        c = static_cast<int>(t) < static_cast<int>(lt) ? -1 : 1;
      } else if (t == DataType::kString) {
        const std::string_view a = batch.str(node.col, row);
        const int r = a.compare(node.literal.AsString());
        c = r < 0 ? -1 : (r > 0 ? 1 : 0);
      } else if (t == DataType::kDouble) {
        const double a = batch.dbl(node.col, row);
        const double b = node.literal.AsDouble();
        c = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        const int64_t a = batch.fixed(node.col, row);
        const int64_t b = node.literal.AsInt64();
        c = a < b ? -1 : (a > b ? 1 : 0);
      }
      switch (node.op) {
        case sql::BinaryOp::kEq: return c == 0;
        case sql::BinaryOp::kNe: return c != 0;
        case sql::BinaryOp::kLt: return c < 0;
        case sql::BinaryOp::kLe: return c <= 0;
        case sql::BinaryOp::kGt: return c > 0;
        case sql::BinaryOp::kGe: return c >= 0;
        default: return false;
      }
    }
    case NodeKind::kLike: {
      if (batch.is_null(node.col, row) || node.literal.is_null()) {
        return false;
      }
      if (batch.tag(node.col, row) == DataType::kString) {
        return LikeMatch(batch.str(node.col, row),
                         node.literal.AsString());
      }
      return LikeMatch(batch.GetValue(node.col, row).ToString(),
                       node.literal.ToString());
    }
    case NodeKind::kIsNull: {
      const bool null = batch.is_null(node.col, row);
      return node.is_not ? !null : null;
    }
    case NodeKind::kAnd:
      return RowPasses(node.children[0], batch, row) &&
             RowPasses(node.children[1], batch, row);
  }
  return false;
}

Status VectorPredicate::Filter(const ColumnBatch& batch,
                               SelectionVector* sel) const {
  const size_t n = batch.row_count();
  if (generic_ != nullptr) {
    Row scratch;
    EvalContext ctx;
    for (RowIndex i = 0; i < n; ++i) {
      batch.MaterializeRow(i, &scratch);
      ASSIGN_OR_RETURN(bool keep, EvalPredicate(*generic_, scratch, ctx));
      if (keep) sel->push_back(i);
    }
    return Status::OK();
  }
  if (root_.kind == NodeKind::kPassAll) {
    sel->reserve(sel->size() + n);
    for (RowIndex i = 0; i < n; ++i) sel->push_back(i);
    return Status::OK();
  }
  for (RowIndex i = 0; i < n; ++i) {
    if (RowPasses(root_, batch, i)) sel->push_back(i);
  }
  return Status::OK();
}

Status VectorPredicate::FilterPositions(const ColumnBatch& batch,
                                        const SelectionVector& sel,
                                        size_t from, size_t to,
                                        std::vector<uint32_t>* positions) const {
  if (generic_ != nullptr) {
    Row scratch;
    EvalContext ctx;
    for (size_t p = from; p < to; ++p) {
      batch.MaterializeRow(sel[p], &scratch);
      ASSIGN_OR_RETURN(bool keep, EvalPredicate(*generic_, scratch, ctx));
      if (keep) positions->push_back(static_cast<uint32_t>(p));
    }
    return Status::OK();
  }
  if (root_.kind == NodeKind::kPassAll) {
    positions->reserve(positions->size() + (to - from));
    for (size_t p = from; p < to; ++p) {
      positions->push_back(static_cast<uint32_t>(p));
    }
    return Status::OK();
  }
  for (size_t p = from; p < to; ++p) {
    if (RowPasses(root_, batch, sel[p])) {
      positions->push_back(static_cast<uint32_t>(p));
    }
  }
  return Status::OK();
}

Status VectorPredicate::FilterSelection(const ColumnBatch& batch,
                                        const SelectionVector& sel_in,
                                        SelectionVector* sel_out) const {
  if (generic_ != nullptr) {
    Row scratch;
    EvalContext ctx;
    for (RowIndex i : sel_in) {
      batch.MaterializeRow(i, &scratch);
      ASSIGN_OR_RETURN(bool keep, EvalPredicate(*generic_, scratch, ctx));
      if (keep) sel_out->push_back(i);
    }
    return Status::OK();
  }
  if (root_.kind == NodeKind::kPassAll) {
    sel_out->insert(sel_out->end(), sel_in.begin(), sel_in.end());
    return Status::OK();
  }
  for (RowIndex i : sel_in) {
    if (RowPasses(root_, batch, i)) sel_out->push_back(i);
  }
  return Status::OK();
}

}  // namespace streamrel::exec
