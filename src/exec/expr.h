#ifndef STREAMREL_EXEC_EXPR_H_
#define STREAMREL_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "sql/ast.h"

namespace streamrel::exec {

/// Per-evaluation ambient state. Continuous queries evaluate once per window
/// close; `window_close_micros` feeds the TruSQL cq_close(*) function.
struct EvalContext {
  bool has_window = false;
  int64_t window_close_micros = 0;
  /// The engine's logical clock (max stream watermark); feeds now().
  int64_t now_micros = 0;
};

enum class BoundExprKind {
  kLiteral,
  kColumn,      // input row slot
  kUnary,
  kBinary,
  kFunction,    // scalar builtin
  kCast,
  kCase,
  kIn,
  kBetween,
  kIsNull,
  kCqClose,     // cq_close(*): the closing window's timestamp
  kNow,         // now() / current_timestamp: the engine's logical clock
};

/// A type-resolved executable expression tree. Built by the binder from an
/// AST expression; evaluated row-at-a-time with SQL three-valued logic.
class BoundExpr {
 public:
  BoundExprKind kind;
  DataType type = DataType::kNull;  // static result type (kNull = unknown)

  Value literal;                    // kLiteral
  size_t column_index = 0;          // kColumn
  sql::UnaryOp unary_op = sql::UnaryOp::kNegate;
  sql::BinaryOp binary_op = sql::BinaryOp::kAdd;
  std::string function_name;        // kFunction (lowercased)
  DataType cast_type = DataType::kNull;
  bool is_not = false;              // kIn / kBetween / kIsNull negation
  bool case_has_else = false;
  std::vector<std::unique_ptr<BoundExpr>> children;

  explicit BoundExpr(BoundExprKind k) : kind(k) {}

  /// Evaluates against `row` (positional) and `ctx`.
  Result<Value> Eval(const Row& row, const EvalContext& ctx) const;

  /// True if any node reads an input column (false => constant-foldable).
  bool ReferencesInput() const;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// SQL LIKE with '%' and '_' wildcards. Takes views so columnar kernels can
/// match arena-backed strings without materializing.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Appends `v` to `key` in a bit-exact, self-delimiting encoding
/// (Value::Serialize): keys built from these pieces are equal exactly when
/// the pieces are.
void AppendKey(int64_t v, std::string* key);

/// Appends a bit-exact encoding of `e` to `key`: equal encodings mean
/// equal expressions, so 1 vs 1.0, 0.0 vs -0.0 and 'a,b' vs 'a','b' all
/// differ. Continuous queries key shared pipelines and shared close
/// evaluations on it.
void AppendExprKey(const BoundExpr& e, std::string* key);

/// Evaluates a WHERE/HAVING/JOIN predicate: NULL and false both reject.
Result<bool> EvalPredicate(const BoundExpr& predicate, const Row& row,
                           const EvalContext& ctx);

/// Returns the static result type of applying `op` to (`lhs`, `rhs`), or an
/// error for incompatible operand types. kNull operands are permissive.
Result<DataType> InferBinaryType(sql::BinaryOp op, DataType lhs, DataType rhs);

/// True if `name` is a recognized scalar builtin; sets `*out_type` from the
/// argument types when deducible.
bool IsScalarFunction(const std::string& name);

/// Static result type for scalar builtin `name` given argument types.
Result<DataType> InferFunctionType(const std::string& name,
                                   const std::vector<DataType>& args);

}  // namespace streamrel::exec

#endif  // STREAMREL_EXEC_EXPR_H_
