#include "stream/continuous_query.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"
#include "exec/binder.h"
#include "exec/operators.h"

namespace streamrel::stream {

// --- SliceAggregatorRegistry -------------------------------------------------

Result<SliceAggregatorRegistry::Registration> SliceAggregatorRegistry::Attach(
    const std::string& stream_name, const std::string& signature,
    int64_t slice_width, exec::BoundExprPtr filter,
    std::vector<exec::BoundExprPtr> group_exprs,
    std::vector<exec::AggregateCall> calls) {
  std::lock_guard<std::mutex> lock(mu_);
  int& version = versions_[signature];
  for (int v = 0; v <= version; ++v) {
    std::string key = signature + "#" + std::to_string(v);
    auto it = aggregators_.find(key);
    if (it == aggregators_.end()) continue;
    if (!it->second.aggregator->CanAccept(calls)) continue;
    ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                     it->second.aggregator->RegisterCalls(std::move(calls)));
    Registration reg;
    reg.aggregator = it->second.aggregator.get();
    reg.slot_mapping = std::move(mapping);
    return reg;
  }
  // No compatible pipeline: open a fresh version. A CQ whose aggregates are
  // missing from a live pipeline cannot share it (its history cannot be
  // backfilled), so it starts a new one that future CQs can join.
  ++version;
  std::string key = signature + "#" + std::to_string(version);
  auto aggregator = std::make_unique<SliceAggregator>(
      slice_width, std::move(filter), std::move(group_exprs));
  ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                   aggregator->RegisterCalls(std::move(calls)));
  Registration reg;
  reg.aggregator = aggregator.get();
  reg.slot_mapping = std::move(mapping);
  reg.newly_created = true;
  by_stream_[ToLower(stream_name)].push_back(aggregator.get());
  aggregators_[key] = Entry{ToLower(stream_name), std::move(aggregator)};
  return reg;
}

std::string SliceAggregatorRegistry::Detach(SliceAggregator* aggregator) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aggregator->RemoveMember() > 0) return "";
  for (auto it = aggregators_.begin(); it != aggregators_.end(); ++it) {
    if (it->second.aggregator.get() != aggregator) continue;
    std::erase(by_stream_[it->second.stream], aggregator);
    std::string key = it->first;
    aggregators_.erase(it);
    return key;
  }
  return "";
}

const std::vector<SliceAggregator*>& SliceAggregatorRegistry::ForStream(
    const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(mu_);
  return by_stream_[ToLower(stream_name)];
}

std::vector<SliceAggregatorRegistry::PipelineRef>
SliceAggregatorRegistry::Pipelines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PipelineRef> refs;
  refs.reserve(aggregators_.size());
  for (const auto& [key, entry] : aggregators_) {
    refs.push_back(PipelineRef{key, entry.stream, entry.aggregator.get()});
  }
  return refs;
}

// --- ContinuousQuery build ---------------------------------------------------

namespace {

/// Resolves GROUP BY ordinals and select-list aliases, mirroring the
/// planner's rules.
const sql::Expr* ResolveGroupItem(
    const sql::Expr* g, const std::vector<sql::SelectItem>& select_list,
    const Schema& input) {
  if (g->kind == sql::ExprKind::kLiteral &&
      g->literal.type() == DataType::kInt64) {
    int64_t ordinal = g->literal.AsInt64();
    if (ordinal >= 1 && ordinal <= static_cast<int64_t>(select_list.size())) {
      return select_list[static_cast<size_t>(ordinal - 1)].expr.get();
    }
    return g;
  }
  if (g->kind == sql::ExprKind::kColumnRef && g->qualifier.empty() &&
      !input.IndexOf(g->column_name).has_value()) {
    for (const auto& item : select_list) {
      if (EqualsIgnoreCase(item.alias, g->column_name)) {
        return item.expr.get();
      }
    }
  }
  return g;
}

bool ContainsCqClose(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunctionCall && e.function_name == "cq_close") {
    return true;
  }
  for (const auto& c : e.children) {
    if (ContainsCqClose(*c)) return true;
  }
  return false;
}

// Program-key encoding: every field goes through Value::Serialize, whose
// output is self-delimiting and bit-exact, so equal keys mean equal
// programs (1 vs 1.0, 0.0 vs -0.0 and 'a,b' vs 'a','b' all differ).
void AppendKey(int64_t v, std::string* key) { Value::Int64(v).Serialize(key); }

void AppendExprKey(const exec::BoundExpr& e, std::string* key) {
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

}  // namespace

Result<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Build(
    std::string name, const sql::SelectStmt& stmt,
    const catalog::Catalog* catalog, const storage::TransactionManager* txns,
    SliceAggregatorRegistry* registry, bool allow_shared) {
  // ---- Try the shared slice-aggregation strategy. --------------------------
  auto try_shared =
      [&]() -> Result<std::unique_ptr<ContinuousQuery>> {
    if (!allow_shared || registry == nullptr) {
      return Status::Aborted("shared path disabled");
    }
    if (!stmt.union_all.empty() || stmt.distinct || stmt.from.size() != 1 ||
        stmt.from[0]->kind != sql::TableRefKind::kBase ||
        !stmt.from[0]->window.has_value()) {
      return Status::Aborted("query shape not shareable");
    }
    const catalog::StreamInfo* stream =
        catalog->GetStream(stmt.from[0]->name);
    if (stream == nullptr || stream->is_derived) {
      return Status::Aborted("not a raw stream");
    }
    ASSIGN_OR_RETURN(WindowSpec window,
                     WindowSpec::FromAst(*stmt.from[0]->window));
    if (window.kind != WindowSpec::Kind::kTime) {
      return Status::Aborted("only time windows share slices");
    }
    bool any_aggregate = !stmt.group_by.empty() || stmt.having != nullptr;
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind == sql::ExprKind::kStar) {
        return Status::Aborted("star select is not an aggregate query");
      }
      if (exec::ExprBinder::ContainsAggregate(*item.expr)) {
        any_aggregate = true;
      }
    }
    if (!any_aggregate) return Status::Aborted("no aggregates");

    std::string qualifier =
        stmt.from[0]->alias.empty() ? stmt.from[0]->name : stmt.from[0]->alias;
    Schema input = stream->schema.WithQualifier(qualifier);

    // Filter.
    exec::BoundExprPtr filter;
    std::string filter_text;
    if (stmt.where != nullptr) {
      if (ContainsCqClose(*stmt.where)) {
        return Status::Aborted("cq_close in WHERE needs the generic path");
      }
      exec::ExprBinder where_binder(input);
      ASSIGN_OR_RETURN(filter, where_binder.BindScalar(*stmt.where));
      filter_text = stmt.where->ToString();
    }

    // Group-by resolution and binding.
    std::vector<const sql::Expr*> group_asts;
    std::string group_text;
    for (const auto& g : stmt.group_by) {
      const sql::Expr* resolved =
          ResolveGroupItem(g.get(), stmt.select_list, input);
      if (ContainsCqClose(*resolved)) {
        return Status::Aborted("cq_close in GROUP BY needs the generic path");
      }
      group_asts.push_back(resolved);
      group_text += resolved->ToString();
      group_text += "|";
    }
    exec::ExprBinder binder(input);
    RETURN_IF_ERROR(binder.EnterAggregateMode(group_asts));

    // Select list and HAVING.
    std::vector<exec::BoundExprPtr> projections;
    std::vector<Column> output_columns;
    for (const auto& item : stmt.select_list) {
      ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                       binder.BindProjection(*item.expr));
      std::string col_name = !item.alias.empty()
                                 ? item.alias
                                 : (item.expr->kind ==
                                            sql::ExprKind::kColumnRef
                                        ? item.expr->column_name
                                        : item.expr->ToString());
      output_columns.emplace_back(std::move(col_name), bound->type);
      projections.push_back(std::move(bound));
    }
    exec::BoundExprPtr having;
    if (stmt.having != nullptr) {
      ASSIGN_OR_RETURN(having, binder.BindProjection(*stmt.having));
    }

    // ORDER BY keys evaluated over the post-aggregation row.
    std::vector<SharedOrderKey> order_keys;
    for (const auto& ob : stmt.order_by) {
      const sql::Expr* target = ob.expr.get();
      if (target->kind == sql::ExprKind::kLiteral &&
          target->literal.type() == DataType::kInt64) {
        int64_t ordinal = target->literal.AsInt64();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(stmt.select_list.size())) {
          return Status::BindError("ORDER BY ordinal out of range");
        }
        target = stmt.select_list[static_cast<size_t>(ordinal - 1)].expr.get();
      } else if (target->kind == sql::ExprKind::kColumnRef &&
                 target->qualifier.empty()) {
        for (const auto& item : stmt.select_list) {
          if (EqualsIgnoreCase(item.alias, target->column_name)) {
            target = item.expr.get();
            break;
          }
        }
      }
      ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                       binder.BindProjection(*target));
      order_keys.push_back(SharedOrderKey{std::move(bound), ob.ascending});
    }

    size_t group_count = binder.group_exprs().size();
    std::string signature = ToLower(stream->name) + "|" +
                            std::to_string(window.SliceWidthMicros()) + "|" +
                            filter_text + "|" + group_text;
    ASSIGN_OR_RETURN(
        SliceAggregatorRegistry::Registration reg,
        registry->Attach(stream->name, signature, window.SliceWidthMicros(),
                         std::move(filter), binder.TakeGroupExprs(),
                         binder.TakeAggCalls()));
    reg.aggregator->NoteWindowVisible(window.visible);

    auto cq = std::unique_ptr<ContinuousQuery>(new ContinuousQuery());
    cq->name_ = name;
    cq->stream_name_ = stream->name;
    cq->window_ = window;
    cq->output_schema_ = Schema(std::move(output_columns));
    cq->txns_ = txns;
    cq->shared_agg_ = reg.aggregator;
    cq->slot_mapping_ = std::move(reg.slot_mapping);
    cq->group_count_ = group_count;
    cq->projections_ = std::move(projections);
    cq->having_ = std::move(having);
    cq->order_keys_ = std::move(order_keys);
    cq->limit_ = stmt.limit.value_or(-1);
    cq->offset_ = stmt.offset.value_or(0);
    std::string& key = cq->program_key_;
    AppendKey(window.visible, &key);
    AppendKey(static_cast<int64_t>(group_count), &key);
    AppendKey(static_cast<int64_t>(cq->slot_mapping_.size()), &key);
    for (size_t slot : cq->slot_mapping_) {
      AppendKey(static_cast<int64_t>(slot), &key);
    }
    AppendKey(static_cast<int64_t>(cq->projections_.size()), &key);
    for (const auto& p : cq->projections_) AppendExprKey(*p, &key);
    AppendKey(cq->having_ != nullptr ? 1 : 0, &key);
    if (cq->having_ != nullptr) AppendExprKey(*cq->having_, &key);
    AppendKey(static_cast<int64_t>(cq->order_keys_.size()), &key);
    for (const SharedOrderKey& ok : cq->order_keys_) {
      AppendKey(ok.ascending ? 1 : 0, &key);
      AppendExprKey(*ok.expr, &key);
    }
    AppendKey(cq->limit_, &key);
    AppendKey(cq->offset_, &key);
    return cq;
  };

  auto shared = try_shared();
  if (shared.ok()) return shared;
  if (shared.status().code() != StatusCode::kAborted) {
    // Real bind errors (not shape mismatches) surface to the user; the
    // generic planner would report them too, so let it decide.
  }

  // ---- Generic strategy: full plan re-executed per window. -----------------
  exec::Planner planner(catalog);
  ASSIGN_OR_RETURN(exec::PlannedQuery plan, planner.PlanSelect(stmt));
  if (!plan.is_continuous()) {
    return Status::InvalidArgument(
        "statement has no stream reference; it is a snapshot query, not a "
        "continuous query");
  }
  ASSIGN_OR_RETURN(WindowSpec window,
                   WindowSpec::FromAst(plan.stream_leaves[0].window));
  auto cq = std::unique_ptr<ContinuousQuery>(new ContinuousQuery());
  cq->name_ = std::move(name);
  cq->stream_name_ = plan.stream_leaves[0].stream_name;
  cq->window_ = window;
  cq->output_schema_ = plan.output_schema;
  cq->txns_ = txns;
  cq->plan_ = std::make_unique<exec::PlannedQuery>(std::move(plan));
  return cq;
}

// --- Execution ---------------------------------------------------------------

Status ContinuousQuery::OnWindowClose(const WindowBatch& batch,
                                      CloseMemo* memo) {
  windows_evaluated_.fetch_add(1, std::memory_order_relaxed);
  auto start = std::chrono::steady_clock::now();
  std::vector<Row> own;
  const std::vector<Row>* out = &own;
  if (shared_agg_ != nullptr) {
    ASSIGN_OR_RETURN(out, EvaluateShared(batch.close_micros, memo, &own));
  } else {
    RETURN_IF_ERROR(EvaluateGeneric(batch, &own));
  }
  int64_t eval_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  eval_micros_total_.fetch_add(eval_micros, std::memory_order_relaxed);
  if (windows_metric_ != nullptr) windows_metric_->Add();
  if (eval_metric_ != nullptr) eval_metric_->Record(eval_micros);
  if (batch.close_micros > emit_watermark_.load(std::memory_order_relaxed)) {
    rows_emitted_.fetch_add(static_cast<int64_t>(out->size()),
                            std::memory_order_relaxed);
    if (rows_metric_ != nullptr) {
      rows_metric_->Add(static_cast<int64_t>(out->size()));
    }
    RETURN_IF_ERROR(Deliver(batch.close_micros, *out));
  }
  return Status::OK();
}

Status ContinuousQuery::EvaluateGeneric(const WindowBatch& batch,
                                        std::vector<Row>* out) {
  exec::StreamLeaf& leaf = plan_->stream_leaves[0];
  leaf.buffer->SetBatch(std::make_shared<std::vector<Row>>(batch.rows));
  exec::ExecContext ctx;
  ctx.txns = txns_;
  // Window consistency (Section 4): table state is read as of the window
  // close, so every CQ evaluation sees a snapshot aligned with a window
  // boundary.
  ctx.snapshot = txns_->SnapshotAsOf(batch.close_micros);
  ctx.eval.has_window = true;
  ctx.eval.window_close_micros = batch.close_micros;
  ctx.eval.now_micros = batch.close_micros;
  ASSIGN_OR_RETURN(*out, exec::CollectRows(plan_->root.get(), &ctx));
  leaf.buffer->SetBatch(nullptr);
  return Status::OK();
}

Result<const std::vector<Row>*> ContinuousQuery::EvaluateShared(
    int64_t close, CloseMemo* memo, std::vector<Row>* own) {
  if (shared_agg_->member_cqs() < 2) {
    // Dedicated pipeline: merge exactly this CQ's aggregate slots.
    ASSIGN_OR_RETURN(
        std::vector<Row> local,
        shared_agg_->ComputeWindow(close, window_.visible, &slot_mapping_));
    RETURN_IF_ERROR(PostAggregate(close, local, own));
    return own;
  }
  for (const auto& e : memo->evals_) {
    if (e->pipeline == shared_agg_ && e->close == close &&
        e->program == program_key_) {
      shared_agg_->NoteEvalReused();
      return &e->rows;
    }
  }
  const std::vector<Row>* merged = nullptr;
  for (const auto& m : memo->merges_) {
    if (m->pipeline == shared_agg_ && m->close == close &&
        m->visible == window_.visible) {
      merged = &m->rows;
      break;
    }
  }
  if (merged == nullptr) {
    // First member to close this window: merge every union slot once.
    ASSIGN_OR_RETURN(std::vector<Row> rows,
                     shared_agg_->ComputeWindow(close, window_.visible));
    memo->merges_.push_back(std::make_unique<CloseMemo::Merge>(
        CloseMemo::Merge{shared_agg_, close, window_.visible,
                         std::move(rows)}));
    merged = &memo->merges_.back()->rows;
  }
  // Project this CQ's slots out of the union rows: the same values, in
  // the same group order, that merging only those slots would produce.
  std::vector<Row> local;
  local.reserve(merged->size());
  for (const Row& u : *merged) {
    Row& row = local.emplace_back();
    row.reserve(group_count_ + slot_mapping_.size());
    row.insert(row.end(), u.begin(),
               u.begin() + static_cast<ptrdiff_t>(group_count_));
    for (size_t slot : slot_mapping_) row.push_back(u[group_count_ + slot]);
  }
  auto eval = std::make_unique<CloseMemo::Eval>(
      CloseMemo::Eval{shared_agg_, close, program_key_, {}});
  RETURN_IF_ERROR(PostAggregate(close, local, &eval->rows));
  memo->evals_.push_back(std::move(eval));
  return &memo->evals_.back()->rows;
}

Status ContinuousQuery::PostAggregate(int64_t close,
                                      const std::vector<Row>& local,
                                      std::vector<Row>* out) const {
  exec::EvalContext ctx;
  ctx.has_window = true;
  ctx.window_close_micros = close;
  ctx.now_micros = close;

  struct Keyed {
    Row output;
    std::vector<Value> sort_key;
  };
  std::vector<Keyed> kept;
  kept.reserve(local.size());
  for (const Row& row : local) {
    if (having_ != nullptr) {
      ASSIGN_OR_RETURN(bool keep, exec::EvalPredicate(*having_, row, ctx));
      if (!keep) continue;
    }
    Keyed k;
    k.output.reserve(projections_.size());
    for (const auto& p : projections_) {
      ASSIGN_OR_RETURN(Value v, p->Eval(row, ctx));
      k.output.push_back(std::move(v));
    }
    k.sort_key.reserve(order_keys_.size());
    for (const auto& ok : order_keys_) {
      ASSIGN_OR_RETURN(Value v, ok.expr->Eval(row, ctx));
      k.sort_key.push_back(std::move(v));
    }
    kept.push_back(std::move(k));
  }
  if (!order_keys_.empty()) {
    std::stable_sort(kept.begin(), kept.end(),
                     [this](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < order_keys_.size(); ++i) {
                         int c = a.sort_key[i].Compare(b.sort_key[i]);
                         if (c != 0) {
                           return order_keys_[i].ascending ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
  }
  size_t begin = std::min(static_cast<size_t>(std::max<int64_t>(offset_, 0)),
                          kept.size());
  size_t end = limit_ >= 0 ? std::min(begin + static_cast<size_t>(limit_),
                                      kept.size())
                           : kept.size();
  out->reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out->push_back(std::move(kept[i].output));
  }
  return Status::OK();
}

Status ContinuousQuery::Deliver(int64_t close, const std::vector<Row>& rows) {
  // Index loop: a callback may re-enter the engine and add/remove
  // subscriptions, invalidating iterators into callbacks_.
  for (size_t i = 0; i < callbacks_.size(); ++i) {
    RETURN_IF_ERROR(callbacks_[i].callback(close, rows));
  }
  return Status::OK();
}

}  // namespace streamrel::stream
