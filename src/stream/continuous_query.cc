#include "stream/continuous_query.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"
#include "exec/operators.h"

namespace streamrel::stream {

// --- ContinuousQuery build ---------------------------------------------------

namespace {

/// True if `e` reads the window close (cq_close(*), now()), which does not
/// exist yet when a shared pipeline absorbs a row.
bool ReadsClose(const exec::BoundExpr& e) {
  if (e.kind == exec::BoundExprKind::kCqClose ||
      e.kind == exec::BoundExprKind::kNow) {
    return true;
  }
  for (const auto& child : e.children) {
    if (ReadsClose(*child)) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Build(
    std::string name, const sql::SelectStmt& stmt,
    const catalog::Catalog* catalog,
    const storage::TransactionManager* txns) {
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

Status ContinuousQuery::Share(const catalog::Catalog* catalog,
                              std::vector<SharedPipeline>* pipelines,
                              int64_t* created) {
  const exec::StreamLeaf& leaf = plan_->stream_leaves[0];
  const catalog::StreamInfo* stream = catalog->GetStream(leaf.stream_name);
  if (stream == nullptr || stream->is_derived ||
      window_.kind != WindowSpec::Kind::kTime) {
    return Status::OK();
  }
  // The aggregate must sit below unary operators only and read the stream
  // directly or through the WHERE filter.
  exec::ExecNode* node = plan_->root.get();
  exec::HashAggregateNode* agg = nullptr;
  while (node != nullptr &&
         (agg = dynamic_cast<exec::HashAggregateNode*>(node)) == nullptr) {
    node = node->input();
  }
  if (agg == nullptr) return Status::OK();
  auto* filter = dynamic_cast<exec::FilterNode*>(agg->input());
  if ((filter != nullptr ? filter->input() : agg->input()) != leaf.buffer) {
    return Status::OK();
  }
  if (filter != nullptr && ReadsClose(filter->predicate())) {
    return Status::OK();
  }
  for (const auto& g : agg->group_exprs()) {
    if (ReadsClose(*g)) return Status::OK();
  }
  for (const exec::AggregateCall& call : agg->agg_calls()) {
    if (call.argument != nullptr && ReadsClose(*call.argument)) {
      return Status::OK();
    }
  }

  // The pipeline's label is "<stream>|<slice µs>" plus "|<key>" per
  // GROUP BY item (its text, which names the aggregate's key column); the
  // signature adds the exact filter and keys.
  const int64_t slice_width = window_.SliceWidthMicros();
  std::string label = ToLower(stream->name) + "|" + std::to_string(slice_width);
  for (size_t i = 0; i < agg->group_exprs().size(); ++i) {
    label += "|" + agg->schema().column(i).name;
  }
  std::string signature = label;
  exec::AppendKey(filter != nullptr ? 1 : 0, &signature);
  if (filter != nullptr) exec::AppendExprKey(filter->predicate(), &signature);
  for (const auto& g : agg->group_exprs()) {
    exec::AppendExprKey(*g, &signature);
  }
  std::string operators;
  for (node = plan_->root.get(); node != agg; node = node->input()) {
    node->AppendOperatorKey(&operators);
  }

  // The stream leaf goes with the aggregate's input.
  exec::HashAggregateNode::Input input = agg->TakeInput();
  plan_->stream_leaves[0].buffer = nullptr;
  auto joined = std::find_if(
      pipelines->begin(), pipelines->end(), [&](const SharedPipeline& p) {
        return p.signature == signature &&
               p.aggregator->CanAccept(input.agg_calls);
      });
  if (joined != pipelines->end()) {
    ASSIGN_OR_RETURN(slot_mapping_, joined->aggregator->RegisterCalls(
                                        std::move(input.agg_calls)));
    shared_agg_ = joined->aggregator.get();
  } else {
    auto aggregator = std::make_unique<SliceAggregator>(
        slice_width, filter != nullptr ? filter->TakePredicate() : nullptr,
        std::move(input.group_exprs));
    ASSIGN_OR_RETURN(slot_mapping_, aggregator->RegisterCalls(
                                        std::move(input.agg_calls)));
    shared_agg_ = aggregator.get();
    pipelines->push_back(
        SharedPipeline{label + "#" + std::to_string(++*created),
                       std::move(signature), std::move(aggregator)});
  }
  shared_agg_->NoteWindowVisible(window_.visible);
  fed_ = agg;
  exec::AppendKey(window_.visible, &program_key_);
  exec::AppendKey(static_cast<int64_t>(slot_mapping_.size()), &program_key_);
  for (size_t slot : slot_mapping_) {
    exec::AppendKey(static_cast<int64_t>(slot), &program_key_);
  }
  program_key_ += operators;
  return Status::OK();
}

// --- Execution ---------------------------------------------------------------

Status ContinuousQuery::OnWindowClose(const WindowBatch& batch,
                                      CloseMemo* memo) {
  auto start = std::chrono::steady_clock::now();
  std::vector<Row> own;
  const std::vector<Row>* out = &own;
  if (shared_agg_ != nullptr) {
    ASSIGN_OR_RETURN(out, EvaluateShared(batch.close_micros, memo, &own));
  } else {
    exec::BufferScanNode* leaf = plan_->stream_leaves[0].buffer;
    leaf->SetBatch(std::make_shared<std::vector<Row>>(batch.rows));
    Status run = RunPlan(batch.close_micros, &own);
    leaf->SetBatch(nullptr);
    RETURN_IF_ERROR(run);
  }
  eval_micros_.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  if (batch.close_micros > emit_watermark_.load(std::memory_order_relaxed)) {
    rows_emitted_.fetch_add(static_cast<int64_t>(out->size()),
                            std::memory_order_relaxed);
    RETURN_IF_ERROR(Deliver(batch.close_micros, *out));
  }
  return Status::OK();
}

Status ContinuousQuery::RunPlan(int64_t close, std::vector<Row>* out) {
  exec::ExecContext ctx;
  ctx.txns = txns_;
  // Window consistency (Section 4): table state is read as of the window
  // close, so every CQ evaluation sees a snapshot aligned with a window
  // boundary.
  ctx.snapshot = txns_->SnapshotAsOf(close);
  ctx.eval.has_window = true;
  ctx.eval.window_close_micros = close;
  ctx.eval.now_micros = close;
  ASSIGN_OR_RETURN(*out, exec::CollectRows(plan_->root.get(), &ctx));
  return Status::OK();
}

Result<const std::vector<Row>*> ContinuousQuery::EvaluateShared(
    int64_t close, CloseMemo* memo, std::vector<Row>* own) {
  if (shared_agg_->member_cqs() < 2) {
    // Dedicated pipeline: merge exactly this CQ's aggregate slots.
    ASSIGN_OR_RETURN(
        std::vector<Row> groups,
        shared_agg_->ComputeWindow(close, window_.visible, &slot_mapping_));
    fed_->Feed(std::move(groups));
    RETURN_IF_ERROR(RunPlan(close, own));
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
  const size_t keys = fed_->schema().num_columns() - slot_mapping_.size();
  std::vector<Row> groups;
  groups.reserve(merged->size());
  for (const Row& u : *merged) {
    Row& row = groups.emplace_back();
    row.reserve(keys + slot_mapping_.size());
    row.insert(row.end(), u.begin(), u.begin() + static_cast<ptrdiff_t>(keys));
    for (size_t slot : slot_mapping_) row.push_back(u[keys + slot]);
  }
  fed_->Feed(std::move(groups));
  auto eval = std::make_unique<CloseMemo::Eval>(
      CloseMemo::Eval{shared_agg_, close, program_key_, {}});
  RETURN_IF_ERROR(RunPlan(close, &eval->rows));
  memo->evals_.push_back(std::move(eval));
  return &memo->evals_.back()->rows;
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
