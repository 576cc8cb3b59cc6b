#include "stream/continuous_query.h"

#include <chrono>

#include "common/string_util.h"
#include "exec/operators.h"

namespace streamrel::stream {

// --- SliceAggregatorRegistry -------------------------------------------------

Result<SliceAggregatorRegistry::Registration> SliceAggregatorRegistry::Attach(
    const std::string& stream_name, const std::string& label,
    const std::string& signature, int64_t slice_width,
    exec::BoundExprPtr filter, std::vector<exec::BoundExprPtr> group_exprs,
    std::vector<exec::AggregateCall> calls) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : pipelines_) {
    if (entry.signature != signature ||
        !entry.aggregator->CanAccept(calls)) {
      continue;
    }
    ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                     entry.aggregator->RegisterCalls(std::move(calls)));
    Registration reg;
    reg.aggregator = entry.aggregator.get();
    reg.slot_mapping = std::move(mapping);
    return reg;
  }
  // No compatible pipeline: open a fresh one. A CQ whose aggregates are
  // missing from a live pipeline cannot share it (its history cannot be
  // backfilled), so it starts a new one that future CQs can join.
  auto aggregator = std::make_unique<SliceAggregator>(
      slice_width, std::move(filter), std::move(group_exprs));
  ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                   aggregator->RegisterCalls(std::move(calls)));
  Registration reg;
  reg.aggregator = aggregator.get();
  reg.slot_mapping = std::move(mapping);
  by_stream_[ToLower(stream_name)].push_back(aggregator.get());
  pipelines_.push_back(Entry{label + "#" + std::to_string(++created_),
                             signature, ToLower(stream_name),
                             std::move(aggregator)});
  return reg;
}

std::string SliceAggregatorRegistry::Detach(SliceAggregator* aggregator) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aggregator->RemoveMember() > 0) return "";
  for (auto it = pipelines_.begin(); it != pipelines_.end(); ++it) {
    if (it->aggregator.get() != aggregator) continue;
    std::erase(by_stream_[it->stream], aggregator);
    std::string name = std::move(it->name);
    pipelines_.erase(it);
    return name;
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
  refs.reserve(pipelines_.size());
  for (const Entry& entry : pipelines_) {
    refs.push_back(
        PipelineRef{entry.name, entry.stream, entry.aggregator.get()});
  }
  return refs;
}

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
    const catalog::Catalog* catalog, const storage::TransactionManager* txns,
    SliceAggregatorRegistry* registry, bool allow_shared) {
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
  if (allow_shared && registry != nullptr) {
    RETURN_IF_ERROR(cq->Share(catalog, registry));
  }
  return cq;
}

Status ContinuousQuery::Share(const catalog::Catalog* catalog,
                              SliceAggregatorRegistry* registry) {
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
  ASSIGN_OR_RETURN(
      SliceAggregatorRegistry::Registration reg,
      registry->Attach(stream->name, label, signature, slice_width,
                       filter != nullptr ? filter->TakePredicate() : nullptr,
                       std::move(input.group_exprs),
                       std::move(input.agg_calls)));
  reg.aggregator->NoteWindowVisible(window_.visible);
  shared_agg_ = reg.aggregator;
  fed_ = agg;
  slot_mapping_ = std::move(reg.slot_mapping);
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
  windows_evaluated_.fetch_add(1, std::memory_order_relaxed);
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
