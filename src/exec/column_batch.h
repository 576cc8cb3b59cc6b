#ifndef STREAMREL_EXEC_COLUMN_BATCH_H_
#define STREAMREL_EXEC_COLUMN_BATCH_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/memory_governor.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/expr.h"

namespace streamrel::exec {

/// Index of a row within a ColumnBatch (32 bits: batches are bounded by
/// the ingest batch size, far below 4B rows).
using RowIndex = uint32_t;

/// Ordered list of passing row indices produced by a filter kernel.
using SelectionVector = std::vector<RowIndex>;

/// A batch of rows in columnar layout: per column, a contiguous fixed-width
/// payload array, a per-cell type-tag array, a null bitmap, and (for
/// strings) an offset array into a shared append-only arena. This is the
/// unit the vectorized ingest hot path operates on — decode fills columns
/// directly, filters run as tight per-column selection loops, and the slice
/// aggregator folds whole batches without ever materializing `Row` vectors.
///
/// Cells keep their exact runtime DataType (rows may mix NULLs and, for
/// untyped sources, types within a column), so materializing a row back out
/// reproduces the input `Row` byte-for-byte — the property the vectorize
/// differential suite leans on. Uniform-type tracking per column lets
/// kernels take branch-free fast paths when a column is homogeneous.
class ColumnBatch {
 public:
  explicit ColumnBatch(size_t num_columns);

  /// Pre-sizes every per-column array for `rows` rows (arena excluded —
  /// string payload sizes are unknown until append).
  void Reserve(size_t rows);

  /// Drops every row, keeping the arrays' capacity for refilling.
  void Clear();

  size_t num_columns() const { return columns_.size(); }
  size_t row_count() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  // --- row-major fill (ingest path) ---------------------------------------

  /// Appends one row. A row whose size differs from num_columns() is kept
  /// whole as a *torn* row: its cells read as NULL, torn_row() and
  /// MaterializeRow() return it unchanged, and its byte estimate is the
  /// original row's (ingest quarantines it for arity).
  void AppendRow(const Row& row);

  /// The original row if `row` was appended torn, else nullptr.
  const Row* torn_row(RowIndex row) const {
    return torn_.empty() ? nullptr : FindTorn(row);
  }

  // --- column-major fill (wire decode path) -------------------------------
  //
  // The decoder appends one cell per column, then commits the row. Every
  // column must receive exactly one value between commits.

  void AppendNull(size_t col);
  void AppendBool(size_t col, bool v);
  void AppendInt64(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  void AppendString(size_t col, std::string_view v);
  void AppendTimestamp(size_t col, int64_t micros);
  void AppendInterval(size_t col, int64_t micros);
  /// Appends `v` with its own type (any of the above).
  void AppendValue(size_t col, const Value& v);
  /// Seals the current row (advances row_count, finalizes its byte
  /// estimate). Call after appending one cell to every column.
  void CommitRow();

  // --- cell access ---------------------------------------------------------

  DataType tag(size_t col, RowIndex row) const {
    return static_cast<DataType>(columns_[col].tags[row]);
  }
  bool is_null(size_t col, RowIndex row) const {
    return (columns_[col].nulls[row >> 6] >> (row & 63)) & 1;
  }
  /// Payload for bool/int64/timestamp/interval cells (doubles are bit-cast;
  /// use dbl()).
  int64_t fixed(size_t col, RowIndex row) const {
    return columns_[col].fixed[row];
  }
  double dbl(size_t col, RowIndex row) const {
    double d;
    const int64_t bits = columns_[col].fixed[row];
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  std::string_view str(size_t col, RowIndex row) const {
    const Column& c = columns_[col];
    const uint32_t begin = c.offsets[row];
    return std::string_view(c.arena.data() + begin, c.offsets[row + 1] - begin);
  }

  /// Materializes one cell as a Value (allocates for strings).
  Value GetValue(size_t col, RowIndex row) const;
  /// Materializes one full row (clears and refills *out).
  void MaterializeRow(RowIndex row, Row* out) const;
  /// Materializes every row, in order.
  std::vector<Row> MaterializeAll() const;

  /// Overwrites a cell with a non-null timestamp (CQTIME SYSTEM stamping).
  /// The row's byte estimate is re-derived, so it still equals
  /// EstimateRowBytes of the materialized row after stamping.
  void StampTimestamp(size_t col, RowIndex row, int64_t micros);

  // --- column summaries (kernel fast-path dispatch) ------------------------

  /// Number of NULL cells in `col`.
  size_t null_count(size_t col) const { return columns_[col].null_count; }
  /// If every cell of `col` shares one non-null DataType, returns it;
  /// kNull otherwise (mixed, or any NULL present).
  DataType uniform_tag(size_t col) const;

  // --- governor accounting --------------------------------------------------

  /// Exact per-row size estimate: equals streamrel::EstimateRowBytes of the
  /// materialized row, by construction (asserted by column_batch_test).
  /// Batch admission charges these without re-walking Value vectors.
  int64_t row_bytes(RowIndex row) const { return row_bytes_[row]; }
  /// Sum of row_bytes over the whole batch (maintained incrementally; O(1)).
  int64_t total_row_bytes() const { return total_row_bytes_; }

  // --- hash / equality kernels (group-id resolution) ------------------------

  // These sit on the per-row group-resolve hot path of the batch
  // aggregation kernel, so they are defined inline (below the class).

  /// Hash of one cell, identical to Value::Hash() of the materialized cell
  /// (strings hash via std::hash<string_view>, which the standard requires
  /// to agree with std::hash<string> for the same bytes).
  size_t CellHash(size_t col, RowIndex row) const;
  /// True iff the cell compares equal (Value::Compare == 0) to `v`:
  /// NULL == NULL, cross-type numeric equality included.
  bool CellEquals(size_t col, RowIndex row, const Value& v) const;

 private:
  struct Column {
    std::vector<uint8_t> tags;      // DataType per cell
    std::vector<int64_t> fixed;     // non-string payload (doubles bit-cast)
    std::vector<uint32_t> offsets;  // arena end-offset per cell; [0] == 0
    std::string arena;              // concatenated string payload
    std::vector<uint64_t> nulls;    // bitmap, bit set = NULL
    size_t null_count = 0;
    /// Tag shared by every cell so far; kMixed once two tags disagree.
    uint8_t seen_tag = kUnseen;
  };
  static constexpr uint8_t kUnseen = 0xFF;
  static constexpr uint8_t kMixed = 0xFE;

  void AppendCell(Column* c, DataType t, int64_t fixed_payload);
  const Row* FindTorn(RowIndex row) const;

  std::vector<Column> columns_;
  size_t row_count_ = 0;
  std::vector<int64_t> row_bytes_;
  int64_t total_row_bytes_ = 0;
  std::vector<std::pair<RowIndex, Row>> torn_;  // ascending by index
};

namespace column_batch_internal {

/// Value::Hash for an exact-integer double (kept bit-identical with
/// value.cc so group hashes never diverge between the row and batch paths).
inline size_t DoubleHash(double d) {
  double r = std::round(d);
  if (r == d && std::abs(d) < 9.2e18) {
    return std::hash<int64_t>()(static_cast<int64_t>(d));
  }
  return std::hash<double>()(d);
}

inline constexpr size_t kNullHash = 0x9e3779b97f4a7c15ull;

inline double BitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace column_batch_internal

/// The Value of a cell held as a tag, a fixed-width payload (doubles
/// bit-cast) and, for strings, its bytes.
Value CellValue(DataType tag, int64_t fixed, std::string_view str);

/// Value::Compare(a, b) == 0 for two cells held as a tag and a fixed-width
/// payload (doubles bit-cast), as ColumnBatch holds them: NULL equals NULL,
/// numbers compare across int64 and double, and doubles are equal unless
/// one is less than the other (so NaN equals NaN). `str_a`/`str_b` return
/// a string cell's bytes and are called only for strings.
template <typename StrA, typename StrB>
inline bool CellsEqual(DataType ta, int64_t fa, DataType tb, int64_t fb,
                       StrA&& str_a, StrB&& str_b) {
  if (ta == DataType::kNull || tb == DataType::kNull) return ta == tb;
  if (IsNumericType(ta) && IsNumericType(tb)) {
    if (ta == DataType::kInt64 && tb == DataType::kInt64) return fa == fb;
    const double a = ta == DataType::kDouble
                         ? column_batch_internal::BitsToDouble(fa)
                         : static_cast<double>(fa);
    const double b = tb == DataType::kDouble
                         ? column_batch_internal::BitsToDouble(fb)
                         : static_cast<double>(fb);
    return !(a < b) && !(b < a);
  }
  if (ta != tb) return false;
  if (ta == DataType::kString) return str_a() == str_b();
  return fa == fb;
}

inline size_t ColumnBatch::CellHash(size_t col, RowIndex row) const {
  switch (tag(col, row)) {
    case DataType::kNull:
      return column_batch_internal::kNullHash;
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval:
      return std::hash<int64_t>()(fixed(col, row));
    case DataType::kDouble:
      return column_batch_internal::DoubleHash(dbl(col, row));
    case DataType::kString:
      return std::hash<std::string_view>()(str(col, row));
  }
  return 0;
}

inline bool ColumnBatch::CellEquals(size_t col, RowIndex row,
                                    const Value& v) const {
  int64_t vbits = v.AsInt64();
  if (v.type() == DataType::kDouble) {
    const double d = v.AsDouble();
    std::memcpy(&vbits, &d, sizeof(d));
  }
  return CellsEqual(
      tag(col, row), fixed(col, row), v.type(), vbits,
      [&] { return str(col, row); },
      [&] { return std::string_view(v.AsString()); });
}

/// A predicate compiled for batch evaluation. Comparisons of a column
/// against a literal (and AND-combinations, LIKE, IS [NOT] NULL) run as
/// tight per-column loops; anything else falls back to the row-at-a-time
/// Eval on a scratch row, so every predicate the row path accepts is
/// accepted here with identical accept/reject/error behavior.
class VectorPredicate {
 public:
  VectorPredicate() = default;

  /// Compiles `expr` (nullable: null means "accept everything"). The
  /// pointer must outlive this object; it is retained for the fallback.
  static VectorPredicate Compile(const BoundExpr* expr);

  /// Appends the indices of passing rows in [0, batch.row_count()) to
  /// *sel, in order. NULL and false both reject (EvalPredicate semantics).
  /// Errors surface exactly where the row path would surface them.
  Status Filter(const ColumnBatch& batch, SelectionVector* sel) const;

  /// Same, over an input selection (filters sel_in into *sel_out).
  Status FilterSelection(const ColumnBatch& batch,
                         const SelectionVector& sel_in,
                         SelectionVector* sel_out) const;

  /// Appends to *positions each p in [from, to) for which row sel[p]
  /// passes. Callers with per-position side arrays (timestamps, sequence
  /// numbers) use this to filter without losing the alignment.
  Status FilterPositions(const ColumnBatch& batch, const SelectionVector& sel,
                         size_t from, size_t to,
                         std::vector<uint32_t>* positions) const;

  /// True when the whole predicate runs columnar (no per-row Eval).
  bool vectorized() const { return generic_ == nullptr; }

  /// True when every row passes (no WHERE clause). Callers iterate the
  /// selection directly instead of materializing a positions vector.
  bool pass_all() const {
    return generic_ == nullptr && root_.kind == NodeKind::kPassAll;
  }

 private:
  enum class NodeKind {
    kPassAll,   // no predicate
    kCompare,   // column <cmp> literal
    kLike,      // column LIKE literal
    kIsNull,    // column IS [NOT] NULL
    kAnd,       // both children specialized
  };
  struct Node {
    NodeKind kind = NodeKind::kPassAll;
    size_t col = 0;
    sql::BinaryOp op = sql::BinaryOp::kEq;
    Value literal;
    bool is_not = false;  // kIsNull negation
    std::vector<Node> children;
  };

  static bool CompileNode(const BoundExpr& expr, Node* node);
  static bool RowPasses(const Node& node, const ColumnBatch& batch,
                        RowIndex row);

  Node root_;
  const BoundExpr* generic_ = nullptr;  // non-null => fall back to Eval
};

}  // namespace streamrel::exec

#endif  // STREAMREL_EXEC_COLUMN_BATCH_H_
