#include "exec/binder.h"

namespace streamrel::exec {

bool ExprBinder::ContainsAggregate(const sql::Expr& expr) {
  if (expr.kind == sql::ExprKind::kFunctionCall &&
      IsAggregateFunction(expr.function_name)) {
    return true;
  }
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

Status ExprBinder::EnterAggregateMode(
    const std::vector<const sql::Expr*>& group_exprs) {
  aggregate_mode_ = true;
  for (const sql::Expr* g : group_exprs) {
    if (ContainsAggregate(*g)) {
      return Status::BindError("aggregate functions are not allowed in GROUP BY");
    }
    ASSIGN_OR_RETURN(BoundExprPtr bound, BindInternal(*g, /*post_agg=*/false));
    group_texts_.push_back(g->ToString());
    group_exprs_.push_back(std::move(bound));
  }
  return Status::OK();
}

Result<BoundExprPtr> ExprBinder::BindScalar(const sql::Expr& expr) {
  if (ContainsAggregate(expr)) {
    return Status::BindError(
        "aggregate functions are not allowed in this context: " +
        expr.ToString());
  }
  return BindInternal(expr, /*post_agg=*/false);
}

Result<BoundExprPtr> ExprBinder::BindProjection(const sql::Expr& expr) {
  return BindInternal(expr, aggregate_mode_);
}

Schema ExprBinder::PostAggregateSchema() const {
  std::vector<Column> cols;
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    cols.emplace_back(group_texts_[i], group_exprs_[i]->type);
  }
  for (const AggregateCall& call : agg_calls_) {
    cols.emplace_back(call.display_name, call.result_type);
  }
  return Schema(std::move(cols));
}

BoundExprPtr ExprBinder::MaybeFold(BoundExprPtr expr) {
  switch (expr->kind) {
    case BoundExprKind::kLiteral:
    case BoundExprKind::kColumn:
    case BoundExprKind::kCqClose:
      return expr;
    default:
      break;
  }
  if (expr->ReferencesInput()) return expr;
  Row empty;
  EvalContext ctx;
  auto folded = expr->Eval(empty, ctx);
  if (!folded.ok()) return expr;  // fold-time error: leave for runtime
  auto literal = std::make_unique<BoundExpr>(BoundExprKind::kLiteral);
  literal->literal = *folded;
  literal->type = expr->type;
  return literal;
}

Result<BoundExprPtr> ExprBinder::BindColumnRef(const sql::Expr& expr) {
  ASSIGN_OR_RETURN(size_t index,
                   input_.FindColumn(expr.column_name, expr.qualifier));
  auto bound = std::make_unique<BoundExpr>(BoundExprKind::kColumn);
  bound->column_index = index;
  bound->type = input_.column(index).type;
  return BoundExprPtr(std::move(bound));
}

Result<BoundExprPtr> ExprBinder::BindAggregateCall(const sql::Expr& expr) {
  AggregateCall call;
  call.function = expr.function_name;
  call.distinct = expr.distinct;
  call.display_name = expr.ToString();
  DataType input_type = DataType::kNull;
  if (expr.children.size() == 1 &&
      expr.children[0]->kind == sql::ExprKind::kStar) {
    call.star = true;
  } else if (expr.children.size() == 1) {
    ASSIGN_OR_RETURN(call.argument,
                     BindInternal(*expr.children[0], /*post_agg=*/false));
    input_type = call.argument->type;
  } else if (expr.children.empty() && expr.function_name == "count") {
    call.star = true;  // count() treated as count(*)
  } else {
    return Status::BindError("aggregate " + expr.function_name +
                             "() takes exactly one argument");
  }
  ASSIGN_OR_RETURN(call.result_type,
                   InferAggregateType(call.function, call.star, input_type));
  // Validate the aggregate/DISTINCT combination eagerly.
  RETURN_IF_ERROR(
      ResolveAggregate(call.function, call.star, call.distinct).status());

  // Reuse an identical prior call (e.g. HAVING count(*) > 1 with count(*)
  // already in the select list) — this is intra-query sharing.
  size_t slot = agg_calls_.size();
  for (size_t i = 0; i < agg_calls_.size(); ++i) {
    if (agg_calls_[i].display_name == call.display_name) {
      slot = i;
      break;
    }
  }
  if (slot == agg_calls_.size()) agg_calls_.push_back(std::move(call));

  auto bound = std::make_unique<BoundExpr>(BoundExprKind::kColumn);
  bound->column_index = group_exprs_.size() + slot;
  bound->type = agg_calls_[slot].result_type;
  return BoundExprPtr(std::move(bound));
}

Result<BoundExprPtr> ExprBinder::BindInternal(const sql::Expr& expr,
                                              bool post_agg) {
  if (post_agg) {
    // A subtree that matches a GROUP BY item refers to its key slot.
    std::string text = expr.ToString();
    for (size_t i = 0; i < group_texts_.size(); ++i) {
      if (group_texts_[i] == text) {
        auto bound = std::make_unique<BoundExpr>(BoundExprKind::kColumn);
        bound->column_index = i;
        bound->type = group_exprs_[i]->type;
        return BoundExprPtr(std::move(bound));
      }
    }
    if (expr.kind == sql::ExprKind::kFunctionCall &&
        IsAggregateFunction(expr.function_name)) {
      return BindAggregateCall(expr);
    }
    if (expr.kind == sql::ExprKind::kColumnRef) {
      return Status::BindError("column '" + expr.ToString() +
                               "' must appear in GROUP BY or inside an "
                               "aggregate function");
    }
  }

  switch (expr.kind) {
    case sql::ExprKind::kLiteral: {
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kLiteral);
      bound->literal = expr.literal;
      bound->type = expr.literal.type();
      return BoundExprPtr(std::move(bound));
    }
    case sql::ExprKind::kColumnRef:
      return BindColumnRef(expr);
    case sql::ExprKind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case sql::ExprKind::kUnary: {
      ASSIGN_OR_RETURN(BoundExprPtr child,
                       BindInternal(*expr.children[0], post_agg));
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kUnary);
      bound->unary_op = expr.unary_op;
      bound->type = expr.unary_op == sql::UnaryOp::kNot ? DataType::kBool
                                                        : child->type;
      bound->children.push_back(std::move(child));
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kBinary: {
      ASSIGN_OR_RETURN(BoundExprPtr lhs,
                       BindInternal(*expr.children[0], post_agg));
      ASSIGN_OR_RETURN(BoundExprPtr rhs,
                       BindInternal(*expr.children[1], post_agg));
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kBinary);
      bound->binary_op = expr.binary_op;
      ASSIGN_OR_RETURN(bound->type,
                       InferBinaryType(expr.binary_op, lhs->type, rhs->type));
      bound->children.push_back(std::move(lhs));
      bound->children.push_back(std::move(rhs));
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kFunctionCall: {
      if (IsAggregateFunction(expr.function_name)) {
        return Status::BindError("aggregate function " + expr.function_name +
                                 "() is not allowed here");
      }
      if (expr.function_name == "cq_close") {
        auto bound = std::make_unique<BoundExpr>(BoundExprKind::kCqClose);
        bound->type = DataType::kTimestamp;
        return BoundExprPtr(std::move(bound));
      }
      if (expr.function_name == "now" ||
          expr.function_name == "current_timestamp") {
        if (!expr.children.empty()) {
          return Status::BindError(expr.function_name + "() takes no arguments");
        }
        auto bound = std::make_unique<BoundExpr>(BoundExprKind::kNow);
        bound->type = DataType::kTimestamp;
        return BoundExprPtr(std::move(bound));
      }
      if (!IsScalarFunction(expr.function_name)) {
        return Status::BindError("unknown function: " + expr.function_name +
                                 "()");
      }
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kFunction);
      bound->function_name = expr.function_name;
      std::vector<DataType> arg_types;
      for (const auto& arg : expr.children) {
        ASSIGN_OR_RETURN(BoundExprPtr child, BindInternal(*arg, post_agg));
        arg_types.push_back(child->type);
        bound->children.push_back(std::move(child));
      }
      ASSIGN_OR_RETURN(bound->type,
                       InferFunctionType(expr.function_name, arg_types));
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kCast: {
      ASSIGN_OR_RETURN(BoundExprPtr child,
                       BindInternal(*expr.children[0], post_agg));
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kCast);
      bound->cast_type = expr.cast_type;
      bound->type = expr.cast_type;
      bound->children.push_back(std::move(child));
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kCase: {
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kCase);
      bound->case_has_else = expr.case_has_else;
      DataType result = DataType::kNull;
      size_t pairs = (expr.children.size() - (expr.case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < expr.children.size(); ++i) {
        ASSIGN_OR_RETURN(BoundExprPtr child,
                         BindInternal(*expr.children[i], post_agg));
        bool is_result_branch =
            (i < 2 * pairs) ? (i % 2 == 1) : expr.case_has_else;
        if (is_result_branch && result == DataType::kNull) {
          result = child->type;
        }
        bound->children.push_back(std::move(child));
      }
      bound->type = result;
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kIn: {
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kIn);
      bound->is_not = expr.is_not;
      bound->type = DataType::kBool;
      for (const auto& child : expr.children) {
        ASSIGN_OR_RETURN(BoundExprPtr b, BindInternal(*child, post_agg));
        bound->children.push_back(std::move(b));
      }
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kBetween: {
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kBetween);
      bound->is_not = expr.is_not;
      bound->type = DataType::kBool;
      for (const auto& child : expr.children) {
        ASSIGN_OR_RETURN(BoundExprPtr b, BindInternal(*child, post_agg));
        bound->children.push_back(std::move(b));
      }
      return MaybeFold(std::move(bound));
    }
    case sql::ExprKind::kIsNull: {
      auto bound = std::make_unique<BoundExpr>(BoundExprKind::kIsNull);
      bound->is_not = expr.is_not;
      bound->type = DataType::kBool;
      ASSIGN_OR_RETURN(BoundExprPtr child,
                       BindInternal(*expr.children[0], post_agg));
      bound->children.push_back(std::move(child));
      return MaybeFold(std::move(bound));
    }
  }
  return Status::Internal("unreachable AST expression kind");
}

}  // namespace streamrel::exec
