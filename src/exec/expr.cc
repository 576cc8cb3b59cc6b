#include "exec/expr.h"

#include <cmath>
#include <cstdint>

#include "common/time.h"

namespace streamrel::exec {

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matching with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool BoundExpr::ReferencesInput() const {
  if (kind == BoundExprKind::kColumn || kind == BoundExprKind::kCqClose ||
      kind == BoundExprKind::kNow) {
    return true;
  }
  for (const auto& child : children) {
    if (child->ReferencesInput()) return true;
  }
  return false;
}

void AppendKey(int64_t v, std::string* key) { Value::Int64(v).Serialize(key); }

void AppendExprKey(const BoundExpr& e, std::string* key) {
  AppendKey(static_cast<int64_t>(e.kind), key);
  AppendKey(static_cast<int64_t>(e.type), key);
  e.literal.Serialize(key);
  AppendKey(static_cast<int64_t>(e.column_index), key);
  AppendKey(static_cast<int64_t>(e.unary_op), key);
  AppendKey(static_cast<int64_t>(e.binary_op), key);
  Value::String(e.function_name).Serialize(key);
  AppendKey(static_cast<int64_t>(e.cast_type), key);
  AppendKey(e.is_not ? 1 : 0, key);
  AppendKey(e.case_has_else ? 1 : 0, key);
  AppendKey(static_cast<int64_t>(e.children.size()), key);
  for (const auto& child : e.children) AppendExprKey(*child, key);
}

namespace {

Result<Value> EvalComparison(sql::BinaryOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  int c = lhs.Compare(rhs);
  switch (op) {
    case sql::BinaryOp::kEq:
      return Value::Bool(c == 0);
    case sql::BinaryOp::kNe:
      return Value::Bool(c != 0);
    case sql::BinaryOp::kLt:
      return Value::Bool(c < 0);
    case sql::BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case sql::BinaryOp::kGt:
      return Value::Bool(c > 0);
    case sql::BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> EvalScalarFunction(const std::string& name,
                                 const std::vector<Value>& args) {
  auto arity_error = [&]() {
    return Status::ExecutionError("wrong number of arguments to " + name +
                                  "()");
  };
  if (name == "lower" || name == "upper" || name == "length") {
    if (args.size() != 1) return arity_error();
    if (args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    if (name == "length") {
      return Value::Int64(static_cast<int64_t>(s.size()));
    }
    std::string out = s;
    for (char& c : out) {
      c = name == "lower"
              ? static_cast<char>(tolower(static_cast<unsigned char>(c)))
              : static_cast<char>(toupper(static_cast<unsigned char>(c)));
    }
    return Value::String(std::move(out));
  }
  if (name == "substr" || name == "substring") {
    if (args.size() != 2 && args.size() != 3) return arity_error();
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt64();  // 1-based, SQL style
    int64_t len = args.size() == 3 && !args[2].is_null()
                      ? args[2].AsInt64()
                      : static_cast<int64_t>(s.size());
    if (start < 1) start = 1;
    if (start > static_cast<int64_t>(s.size()) || len <= 0) {
      return Value::String("");
    }
    return Value::String(s.substr(static_cast<size_t>(start - 1),
                                  static_cast<size_t>(len)));
  }
  if (name == "abs") {
    if (args.size() != 1) return arity_error();
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInt64) {
      return Value::Int64(std::abs(args[0].AsInt64()));
    }
    return Value::Double(std::abs(args[0].AsDouble()));
  }
  if (name == "round" || name == "floor" || name == "ceil" ||
      name == "ceiling") {
    if (args.empty() || args.size() > 2) return arity_error();
    if (args[0].is_null()) return Value::Null();
    double v = args[0].AsDouble();
    if (name == "floor") return Value::Double(std::floor(v));
    if (name != "round") return Value::Double(std::ceil(v));
    int64_t digits = args.size() == 2 ? args[1].AsInt64() : 0;
    double scale = std::pow(10.0, static_cast<double>(digits));
    return Value::Double(std::round(v * scale) / scale);
  }
  if (name == "sqrt") {
    if (args.size() != 1) return arity_error();
    if (args[0].is_null()) return Value::Null();
    double v = args[0].AsDouble();
    if (v < 0) return Status::ExecutionError("sqrt of negative value");
    return Value::Double(std::sqrt(v));
  }
  if (name == "power" || name == "pow") {
    if (args.size() != 2) return arity_error();
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (name == "mod") {
    if (args.size() != 2) return arity_error();
    return ValueMod(args[0], args[1]);
  }
  if (name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (name == "nullif") {
    if (args.size() != 2) return arity_error();
    if (!args[0].is_null() && !args[1].is_null() && args[0] == args[1]) {
      return Value::Null();
    }
    return args[0];
  }
  if (name == "greatest" || name == "least") {
    if (args.empty()) return arity_error();
    Value best = Value::Null();
    for (const Value& v : args) {
      if (v.is_null()) continue;
      if (best.is_null() || (name == "greatest" ? best < v : v < best)) {
        best = v;
      }
    }
    return best;
  }
  if (name == "date_trunc") {
    if (args.size() != 2) return arity_error();
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    const std::string& unit = args[0].AsString();
    int64_t micros = args[1].AsTimestampMicros();
    int64_t quantum;
    if (unit == "second") {
      quantum = kMicrosPerSecond;
    } else if (unit == "minute") {
      quantum = kMicrosPerMinute;
    } else if (unit == "hour") {
      quantum = kMicrosPerHour;
    } else if (unit == "day") {
      quantum = kMicrosPerDay;
    } else if (unit == "week") {
      quantum = kMicrosPerWeek;
    } else {
      return Status::ExecutionError("unsupported date_trunc unit: " + unit);
    }
    int64_t floored = micros - ((micros % quantum) + quantum) % quantum;
    return Value::Timestamp(floored);
  }
  if (name == "concat") {
    std::string out;
    for (const Value& v : args) {
      if (!v.is_null()) out += v.ToString();
    }
    return Value::String(std::move(out));
  }
  return Status::ExecutionError("unknown function: " + name + "()");
}

}  // namespace

Result<Value> BoundExpr::Eval(const Row& row, const EvalContext& ctx) const {
  switch (kind) {
    case BoundExprKind::kLiteral:
      return literal;
    case BoundExprKind::kColumn:
      if (column_index >= row.size()) {
        return Status::Internal("column index out of range");
      }
      return row[column_index];
    case BoundExprKind::kCqClose:
      if (!ctx.has_window) {
        return Status::ExecutionError(
            "cq_close(*) is only valid in a continuous query");
      }
      return Value::Timestamp(ctx.window_close_micros);
    case BoundExprKind::kNow:
      return Value::Timestamp(ctx.now_micros);
    case BoundExprKind::kUnary: {
      ASSIGN_OR_RETURN(Value v, children[0]->Eval(row, ctx));
      if (unary_op == sql::UnaryOp::kNegate) {
        if (v.is_null()) return Value::Null();
        if (v.type() == DataType::kInt64) {
          if (v.AsInt64() == INT64_MIN) {
            return Status::ExecutionError("bigint out of range");
          }
          return Value::Int64(-v.AsInt64());
        }
        if (v.type() == DataType::kDouble) {
          return Value::Double(-v.AsDouble());
        }
        if (v.type() == DataType::kInterval) {
          if (v.AsIntervalMicros() == INT64_MIN) {
            return Status::ExecutionError("interval out of range");
          }
          return Value::Interval(-v.AsIntervalMicros());
        }
        return Status::ExecutionError("cannot negate non-numeric value");
      }
      // NOT: three-valued.
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.AsBool());
    }
    case BoundExprKind::kBinary: {
      // Short-circuit 3VL AND/OR.
      if (binary_op == sql::BinaryOp::kAnd ||
          binary_op == sql::BinaryOp::kOr) {
        ASSIGN_OR_RETURN(Value lhs, children[0]->Eval(row, ctx));
        bool is_and = binary_op == sql::BinaryOp::kAnd;
        if (!lhs.is_null() && lhs.AsBool() != is_and) {
          return Value::Bool(!is_and);  // false AND _, true OR _
        }
        ASSIGN_OR_RETURN(Value rhs, children[1]->Eval(row, ctx));
        if (!rhs.is_null() && rhs.AsBool() != is_and) {
          return Value::Bool(!is_and);
        }
        if (lhs.is_null() || rhs.is_null()) return Value::Null();
        return Value::Bool(is_and);
      }
      ASSIGN_OR_RETURN(Value lhs, children[0]->Eval(row, ctx));
      ASSIGN_OR_RETURN(Value rhs, children[1]->Eval(row, ctx));
      switch (binary_op) {
        case sql::BinaryOp::kAdd:
          return ValueAdd(lhs, rhs);
        case sql::BinaryOp::kSub:
          return ValueSub(lhs, rhs);
        case sql::BinaryOp::kMul:
          return ValueMul(lhs, rhs);
        case sql::BinaryOp::kDiv:
          return ValueDiv(lhs, rhs);
        case sql::BinaryOp::kMod:
          return ValueMod(lhs, rhs);
        case sql::BinaryOp::kLike: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          return Value::Bool(LikeMatch(lhs.ToString(), rhs.ToString()));
        }
        case sql::BinaryOp::kConcat: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          return Value::String(lhs.ToString() + rhs.ToString());
        }
        default:
          return EvalComparison(binary_op, lhs, rhs);
      }
    }
    case BoundExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(children.size());
      for (const auto& child : children) {
        ASSIGN_OR_RETURN(Value v, child->Eval(row, ctx));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(function_name, args);
    }
    case BoundExprKind::kCast: {
      ASSIGN_OR_RETURN(Value v, children[0]->Eval(row, ctx));
      auto cast = v.CastTo(cast_type);
      if (!cast.ok()) {
        return Status::ExecutionError(cast.status().message());
      }
      return *cast;
    }
    case BoundExprKind::kCase: {
      size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        ASSIGN_OR_RETURN(Value cond, children[2 * i]->Eval(row, ctx));
        if (!cond.is_null() && cond.AsBool()) {
          return children[2 * i + 1]->Eval(row, ctx);
        }
      }
      if (case_has_else) return children.back()->Eval(row, ctx);
      return Value::Null();
    }
    case BoundExprKind::kIn: {
      ASSIGN_OR_RETURN(Value needle, children[0]->Eval(row, ctx));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < children.size(); ++i) {
        ASSIGN_OR_RETURN(Value v, children[i]->Eval(row, ctx));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle == v) return Value::Bool(!is_not);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(is_not);
    }
    case BoundExprKind::kBetween: {
      ASSIGN_OR_RETURN(Value v, children[0]->Eval(row, ctx));
      ASSIGN_OR_RETURN(Value lo, children[1]->Eval(row, ctx));
      ASSIGN_OR_RETURN(Value hi, children[2]->Eval(row, ctx));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in_range = lo.Compare(v) <= 0 && v.Compare(hi) <= 0;
      return Value::Bool(is_not ? !in_range : in_range);
    }
    case BoundExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Value v, children[0]->Eval(row, ctx));
      return Value::Bool(is_not ? !v.is_null() : v.is_null());
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalPredicate(const BoundExpr& predicate, const Row& row,
                           const EvalContext& ctx) {
  ASSIGN_OR_RETURN(Value v, predicate.Eval(row, ctx));
  return !v.is_null() && v.AsBool();
}

Result<DataType> InferBinaryType(sql::BinaryOp op, DataType lhs,
                                 DataType rhs) {
  using sql::BinaryOp;
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
    case BinaryOp::kLike:
      return DataType::kBool;
    case BinaryOp::kConcat:
      return DataType::kString;
    default:
      break;
  }
  // Arithmetic.
  if (lhs == DataType::kNull || rhs == DataType::kNull) return DataType::kNull;
  if (lhs == DataType::kTimestamp && rhs == DataType::kInterval) {
    return DataType::kTimestamp;
  }
  if (lhs == DataType::kInterval && rhs == DataType::kTimestamp &&
      op == BinaryOp::kAdd) {
    return DataType::kTimestamp;
  }
  if (lhs == DataType::kTimestamp && rhs == DataType::kTimestamp &&
      op == BinaryOp::kSub) {
    return DataType::kInterval;
  }
  if (lhs == DataType::kInterval || rhs == DataType::kInterval) {
    return DataType::kInterval;
  }
  if (lhs == DataType::kString && rhs == DataType::kString &&
      op == BinaryOp::kAdd) {
    return DataType::kString;
  }
  if (IsNumericType(lhs) && IsNumericType(rhs)) {
    return (lhs == DataType::kDouble || rhs == DataType::kDouble)
               ? DataType::kDouble
               : DataType::kInt64;
  }
  return Status::BindError(std::string("operator ") +
                           sql::BinaryOpToString(op) +
                           " not defined for types " + DataTypeToString(lhs) +
                           " and " + DataTypeToString(rhs));
}

bool IsScalarFunction(const std::string& name) {
  static const char* kNames[] = {
      "lower",  "upper",    "length",  "substr",   "substring", "abs",
      "round",  "floor",    "ceil",    "ceiling",  "sqrt",      "power",
      "pow",    "mod",      "coalesce", "nullif",  "greatest",  "least",
      "date_trunc", "concat"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

Result<DataType> InferFunctionType(const std::string& name,
                                   const std::vector<DataType>& args) {
  if (name == "lower" || name == "upper" || name == "substr" ||
      name == "substring" || name == "concat") {
    return DataType::kString;
  }
  if (name == "length") return DataType::kInt64;
  if (name == "round" || name == "floor" || name == "ceil" ||
      name == "ceiling" || name == "sqrt" || name == "power" ||
      name == "pow") {
    return DataType::kDouble;
  }
  if (name == "date_trunc") return DataType::kTimestamp;
  if (name == "abs" || name == "mod" || name == "coalesce" ||
      name == "nullif" || name == "greatest" || name == "least") {
    for (DataType t : args) {
      if (t != DataType::kNull) return t;
    }
    return DataType::kNull;
  }
  return Status::BindError("unknown function: " + name + "()");
}

}  // namespace streamrel::exec
