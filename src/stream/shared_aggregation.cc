#include "stream/shared_aggregation.h"

#include "exec/operators.h"

namespace streamrel::stream {

SliceAggregator::SliceAggregator(int64_t slice_width_micros,
                                 exec::BoundExprPtr filter,
                                 std::vector<exec::BoundExprPtr> group_exprs)
    : slice_width_(slice_width_micros),
      filter_(std::move(filter)),
      group_exprs_(std::move(group_exprs)) {}

SliceAggregator::~SliceAggregator() { ReleaseAllCharges(); }

void SliceAggregator::ReleaseAllCharges() {
  if (governor_ != nullptr && bytes_held_ != 0) {
    governor_->Release(MemoryGovernor::Account::kAggregator, bytes_held_);
  }
  bytes_held_ = 0;
}

void SliceAggregator::BindGovernor(MemoryGovernor* governor) {
  if (governor_ == governor) return;
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kAggregator, bytes_held_);
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kAggregator, bytes_held_);
  }
}

Result<std::vector<size_t>> SliceAggregator::RegisterCalls(
    std::vector<exec::AggregateCall> calls) {
  std::vector<size_t> mapping;
  mapping.reserve(calls.size());
  for (exec::AggregateCall& call : calls) {
    size_t slot = calls_.size();
    for (size_t i = 0; i < calls_.size(); ++i) {
      if (calls_[i].display_name == call.display_name) {
        slot = i;
        break;
      }
    }
    if (slot == calls_.size()) {
      if (HasAbsorbed()) {
        return Status::Aborted(
            "cannot add aggregate '" + call.display_name +
            "' to a live shared pipeline (no backfill); use a fresh "
            "aggregator");
      }
      ASSIGN_OR_RETURN(
          exec::AggKind kind,
          exec::ResolveAggregate(call.function, call.star, call.distinct));
      kinds_.push_back(kind);
      calls_.push_back(std::move(call));
    }
    mapping.push_back(slot);
  }
  ++member_cqs_;
  return mapping;
}

bool SliceAggregator::CanAccept(
    const std::vector<exec::AggregateCall>& calls) const {
  if (!HasAbsorbed()) return true;
  for (const exec::AggregateCall& call : calls) {
    bool found = false;
    for (const exec::AggregateCall& mine : calls_) {
      if (mine.display_name == call.display_name) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

void SliceAggregator::EnsureBatchKernels() {
  if (kernels_ != nullptr && kernels_->args.size() == calls_.size()) return;
  auto k = std::make_unique<BatchKernels>();
  k->filter = exec::VectorPredicate::Compile(filter_.get());
  using Source = BatchKernels::Source;
  auto source = [&](const exec::BoundExpr* e) {
    Source src;
    if (e == nullptr) return src;
    if (e->kind == exec::BoundExprKind::kColumn) {
      src.kind = Source::Kind::kColumn;
      src.col = e->column_index;
    } else {
      src.kind = Source::Kind::kComputed;
      src.col = k->computed.size();
      k->computed.push_back(e);
    }
    return src;
  };
  for (const auto& g : group_exprs_) k->keys.push_back(source(g.get()));
  for (const exec::AggregateCall& call : calls_) {
    k->args.push_back(source(call.argument.get()));
  }
  kernels_ = std::move(k);
}

Status SliceAggregator::AddBatch(const exec::ColumnBatch& batch,
                                 const exec::SelectionVector& sel,
                                 const std::vector<int64_t>& ts, size_t from,
                                 size_t to) {
  if (from >= to) return Status::OK();
  EnsureBatchKernels();
  const BatchKernels& k = *kernels_;

  // The absorbed positions, and the batch row of each.
  std::vector<uint32_t>& pos = positions_;
  pos.clear();
  RETURN_IF_ERROR(k.filter.FilterPositions(batch, sel, from, to, &pos));
  const size_t n = pos.size();
  if (n == 0) return Status::OK();
  rows_.resize(n);
  for (size_t i = 0; i < n; ++i) rows_[i] = sel[pos[i]];

  // Computed keys and arguments, evaluated once per batch in row order
  // (keys, then arguments, per row: the order a row loop would fail in).
  exec::ColumnBatch computed(k.computed.size());
  if (!k.computed.empty()) {
    exec::EvalContext ctx;  // cq_close is not available pre-aggregation
    Row scratch;
    for (size_t i = 0; i < n; ++i) {
      batch.MaterializeRow(rows_[i], &scratch);
      for (size_t c = 0; c < k.computed.size(); ++c) {
        ASSIGN_OR_RETURN(Value v, k.computed[c]->Eval(scratch, ctx));
        computed.AppendValue(c, v);
      }
      computed.CommitRow();
    }
    identity_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      identity_[i] = static_cast<exec::RowIndex>(i);
    }
  }
  auto bind = [&](const BatchKernels::Source& src) {
    switch (src.kind) {
      case BatchKernels::Source::Kind::kColumn:
        return exec::CellSource{&batch, src.col, rows_.data()};
      case BatchKernels::Source::Kind::kComputed:
        return exec::CellSource{&computed, src.col, identity_.data()};
      default:
        return exec::CellSource{};
    }
  };
  key_sources_.clear();
  for (const auto& src : k.keys) key_sources_.push_back(bind(src));
  arg_sources_.clear();
  for (const auto& src : k.args) arg_sources_.push_back(bind(src));
  hashes_.resize(n);
  exec::AggregateTable::HashKeys(key_sources_, 0, n, hashes_.data());

  // Timestamps are non-decreasing, so the positions split into one run per
  // slice; each run is absorbed into its slice's table in one call.
  int64_t charged = 0;
  Status status;
  for (size_t begin = 0; begin < n && status.ok();) {
    const int64_t t = ts[pos[begin]];
    int64_t q = t / slice_width_;
    if (t % slice_width_ != 0 && t < 0) --q;  // floor division
    const int64_t slice_start = q * slice_width_;
    size_t end = begin + 1;
    // Unsigned subtraction keeps the in-slice test overflow-safe.
    while (end < n && static_cast<uint64_t>(ts[pos[end]]) -
                              static_cast<uint64_t>(slice_start) <
                          static_cast<uint64_t>(slice_width_)) {
      ++end;
    }
    auto it = slices_.find(slice_start);
    if (it == slices_.end()) {
      it = slices_
               .emplace(slice_start,
                        Slice(exec::AggregateTable(k.keys.size(), kinds_)))
               .first;
      live_slice_count_.fetch_add(1, std::memory_order_relaxed);
    }
    Slice& slice = it->second;
    int64_t bytes = 0;
    status = slice.table.Add(key_sources_, arg_sources_, hashes_.data(),
                             begin, end, &bytes);
    slice.bytes += bytes;
    charged += bytes;
    begin = end;
  }
  // One governor charge per call, for every group it appended.
  bytes_held_ += charged;
  if (governor_ != nullptr && charged != 0) {
    governor_->Add(MemoryGovernor::Account::kAggregator, charged);
  }
  RETURN_IF_ERROR(status);
  rows_absorbed_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return Status::OK();
}

Result<std::vector<Row>> SliceAggregator::ComputeWindow(
    int64_t close, int64_t visible,
    const std::vector<size_t>* slots) const {
  if (visible % slice_width_ != 0) {
    return Status::Internal("window width is not a multiple of slice width");
  }
  window_merges_.fetch_add(1, std::memory_order_relaxed);
  int64_t open = close - visible;

  if (slots != nullptr) {
    for (size_t slot : *slots) {
      if (slot >= calls_.size()) {
        return Status::Internal("aggregate slot out of range");
      }
    }
  }

  // Slices in time order.
  std::vector<const exec::AggregateTable*> covered;
  for (auto it = slices_.lower_bound(open);
       it != slices_.end() && it->first < close; ++it) {
    covered.push_back(&it->second.table);
  }

  std::vector<Row> rows;
  if (covered.size() == 1) {
    // One slice (every tumbling window): finalize straight from it.
    covered[0]->Finalize(slots, &rows);
    return rows;
  }
  // Several slices merge, in time order, into a scratch table; a scalar
  // aggregation over none still emits its one row.
  std::vector<exec::AggKind> kinds = kinds_;
  if (slots != nullptr) {
    kinds.clear();
    for (size_t slot : *slots) kinds.push_back(kinds_[slot]);
  }
  exec::AggregateTable merged(group_exprs_.size(), std::move(kinds));
  for (const exec::AggregateTable* table : covered) {
    RETURN_IF_ERROR(merged.Merge(*table, slots));
  }
  if (group_exprs_.empty()) merged.EnsureScalarGroup();
  merged.Finalize(nullptr, &rows);
  return rows;
}

void SliceAggregator::EvictBefore(int64_t ts) {
  while (!slices_.empty() && slices_.begin()->first + slice_width_ <= ts) {
    int64_t bytes = slices_.begin()->second.bytes;
    bytes_held_ -= bytes;
    if (governor_ != nullptr && bytes != 0) {
      governor_->Release(MemoryGovernor::Account::kAggregator, bytes);
    }
    slices_.erase(slices_.begin());
    live_slice_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace streamrel::stream
