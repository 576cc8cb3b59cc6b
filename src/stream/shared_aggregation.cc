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

// Aggregate states are small fixed-size accumulators (count/sum/min/max
// cells); DISTINCT states can grow, but a stable flat estimate keeps the
// charge deterministic across runs and platforms.
static constexpr int64_t kAggStateBytes = 64;

int64_t SliceAggregator::GroupBytes(const Group& g) {
  int64_t bytes = static_cast<int64_t>(sizeof(Group));
  for (const Value& v : g.keys) bytes += EstimateValueBytes(v);
  bytes += static_cast<int64_t>(g.states.size()) * kAggStateBytes;
  return bytes;
}

void SliceAggregator::ChargeSlice(Slice* slice, int64_t bytes) {
  slice->bytes += bytes;
  bytes_held_ += bytes;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kAggregator, bytes);
  }
}

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

Result<std::vector<exec::AggStatePtr>> SliceAggregator::NewStates() const {
  std::vector<exec::AggStatePtr> states;
  states.reserve(calls_.size());
  for (const exec::AggregateCall& call : calls_) {
    ASSIGN_OR_RETURN(exec::AggStatePtr state,
                     exec::MakeAggState(call.function, call.star,
                                        call.distinct));
    states.push_back(std::move(state));
  }
  return states;
}

SliceAggregator::Group* SliceAggregator::FindOrCreateGroup(
    Slice* slice, std::vector<Value> keys, Status* status) {
  size_t h = exec::HashValues(keys);
  const size_t found = slice->lookup.Find(h, [&](size_t idx) {
    return exec::ValuesEqual(slice->groups[idx].keys, keys);
  });
  if (found != exec::GroupIndex::kNone) return &slice->groups[found];
  slice->lookup.Insert(h, slice->groups.size());
  Group g;
  g.keys = std::move(keys);
  auto states = NewStates();
  if (!states.ok()) {
    *status = states.status();
    return nullptr;
  }
  g.states = states.TakeValue();
  slice->groups.push_back(std::move(g));
  ChargeSlice(slice, GroupBytes(slice->groups.back()));
  return &slice->groups.back();
}

void SliceAggregator::EnsureBatchKernels() {
  const std::vector<exec::AggregateCall>& all = calls_;
  if (kernels_ != nullptr && kernels_->args.size() == all.size()) return;
  auto k = std::make_unique<BatchKernels>();
  k->filter = exec::VectorPredicate::Compile(filter_.get());
  k->keys_columnar = true;
  for (const auto& g : group_exprs_) {
    if (g->kind != exec::BoundExprKind::kColumn) {
      k->keys_columnar = false;
      k->key_cols.clear();
      break;
    }
    k->key_cols.push_back(g->column_index);
  }
  k->args.resize(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].argument == nullptr) {
      k->args[i].kind = BatchKernels::ArgKernel::Kind::kNone;
    } else if (all[i].argument->kind == exec::BoundExprKind::kColumn) {
      k->args[i].kind = BatchKernels::ArgKernel::Kind::kColumn;
      k->args[i].col = all[i].argument->column_index;
    } else {
      k->args[i].kind = BatchKernels::ArgKernel::Kind::kGeneric;
      k->args[i].expr = all[i].argument.get();
    }
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
  exec::EvalContext ctx;  // cq_close is not available pre-aggregation

  // With no WHERE clause every position passes: iterate [from, to)
  // directly and skip materializing a positions vector.
  const bool pass_all = k.filter.pass_all();
  std::vector<uint32_t> pass;
  if (!pass_all) {
    RETURN_IF_ERROR(k.filter.FilterPositions(batch, sel, from, to, &pass));
    if (pass.empty()) return Status::OK();
  }

  // Scratch row for the generic (non-column) kernels, materialized at most
  // once per row.
  Row scratch;
  int64_t scratch_row = -1;
  auto materialized = [&](exec::RowIndex row) -> const Row& {
    if (scratch_row != static_cast<int64_t>(row)) {
      batch.MaterializeRow(row, &scratch);
      scratch_row = row;
    }
    return scratch;
  };

  static const Value kNullArg = Value::Null();

  // Hoisted vector internals: the compiler cannot prove these heap arrays
  // unaliased across the opaque per-row calls below, so without locals it
  // reloads base pointers and sizes every row.
  const size_t* key_cols = k.key_cols.data();
  const size_t num_keys = k.key_cols.size();
  const BatchKernels::ArgKernel* args = k.args.data();
  const size_t num_args = k.args.size();

  // Columnar keys: hash every row's key cells in one tight pass first
  // (sequential reads of the tag/payload/arena arrays), so the probe loop
  // below can prefetch each row's lookup slot a few rows ahead — the
  // probe's dependent loads overlap earlier rows' group updates instead
  // of serializing behind them.
  std::vector<size_t>& hashes = hash_scratch_;
  hashes.clear();
  if (k.keys_columnar) {
    hashes.reserve(pass_all ? to - from : pass.size());
    auto hash_row = [&](uint32_t p) {
      const exec::RowIndex row = sel[p];
      size_t h = 0x345678;
      for (size_t c = 0; c < num_keys; ++c) {
        h = h * 1000003 ^ batch.CellHash(key_cols[c], row);
      }
      hashes.push_back(h);
    };
    if (pass_all) {
      for (size_t p = from; p < to; ++p) hash_row(static_cast<uint32_t>(p));
    } else {
      for (uint32_t p : pass) hash_row(p);
    }
  }
  constexpr size_t kProbeAhead = 8;

  // Timestamps are non-decreasing, so consecutive rows usually share a
  // slice: resolve the slice once per run instead of once per row, and
  // skip the floor division entirely while t stays inside the run
  // (unsigned subtraction keeps the in-range test overflow-safe).
  Slice* slice = nullptr;
  int64_t cur_slice_start = 0;
  auto body = [&](uint32_t p, size_t idx) -> Status {
    const exec::RowIndex row = sel[p];
    const int64_t t = ts[p];
    if (slice == nullptr || t < cur_slice_start ||
        static_cast<uint64_t>(t) - static_cast<uint64_t>(cur_slice_start) >=
            static_cast<uint64_t>(slice_width_)) {
      int64_t q = t / slice_width_;
      if (t % slice_width_ != 0 && t < 0) --q;  // floor division
      const int64_t slice_start = q * slice_width_;
      auto [slice_it, created] = slices_.try_emplace(slice_start);
      if (created) live_slice_count_.fetch_add(1, std::memory_order_relaxed);
      slice = &slice_it->second;
      cur_slice_start = slice_start;
    }

    Group* group = nullptr;
    if (k.keys_columnar) {
      // Hash mirrors exec::HashValues over the key cells (precomputed
      // above) — no Value materialization unless the group is new. The
      // prefetch assumes the upcoming row shares this slice; a wrong
      // guess at a slice boundary is a harmless extra cache hint.
      if (idx + kProbeAhead < hashes.size()) {
        slice->lookup.Prefetch(hashes[idx + kProbeAhead]);
      }
      const size_t h = hashes[idx];
      const size_t found = slice->lookup.Find(h, [&](size_t gidx) {
        const Group& cand = slice->groups[gidx];
        for (size_t c = 0; c < num_keys; ++c) {
          if (!batch.CellEquals(key_cols[c], row, cand.keys[c])) {
            return false;
          }
        }
        return true;
      });
      if (found != exec::GroupIndex::kNone) {
        group = &slice->groups[found];
      } else {
        slice->lookup.Insert(h, slice->groups.size());
        Group g;
        g.keys.reserve(num_keys);
        for (size_t c = 0; c < num_keys; ++c) {
          g.keys.push_back(batch.GetValue(key_cols[c], row));
        }
        ASSIGN_OR_RETURN(g.states, NewStates());
        slice->groups.push_back(std::move(g));
        ChargeSlice(slice, GroupBytes(slice->groups.back()));
        group = &slice->groups.back();
      }
    } else {
      std::vector<Value> keys;
      keys.reserve(group_exprs_.size());
      const Row& r = materialized(row);
      for (const auto& g : group_exprs_) {
        ASSIGN_OR_RETURN(Value v, g->Eval(r, ctx));
        keys.push_back(std::move(v));
      }
      Status status;
      group = FindOrCreateGroup(slice, std::move(keys), &status);
      if (group == nullptr) return status;
    }

    const exec::AggStatePtr* states = group->states.data();
    for (size_t i = 0; i < num_args; ++i) {
      switch (args[i].kind) {
        case BatchKernels::ArgKernel::Kind::kNone: {
          exec::AggState* s = states[i].get();
          if (int64_t* slot = s->unconditional_count_slot()) {
            ++*slot;  // count(*): equivalent to Update, minus the dispatch
          } else {
            s->Update(kNullArg);
          }
          break;
        }
        case BatchKernels::ArgKernel::Kind::kColumn: {
          Value arg = batch.GetValue(args[i].col, row);
          states[i]->Update(arg);
          break;
        }
        case BatchKernels::ArgKernel::Kind::kGeneric: {
          ASSIGN_OR_RETURN(Value arg, args[i].expr->Eval(materialized(row),
                                                         ctx));
          states[i]->Update(arg);
          break;
        }
      }
    }
    return Status::OK();
  };

  int64_t absorbed;
  if (pass_all) {
    for (size_t p = from; p < to; ++p) {
      RETURN_IF_ERROR(body(static_cast<uint32_t>(p), p - from));
    }
    absorbed = static_cast<int64_t>(to - from);
  } else {
    for (size_t i = 0; i < pass.size(); ++i) {
      RETURN_IF_ERROR(body(pass[i], i));
    }
    absorbed = static_cast<int64_t>(pass.size());
  }
  rows_absorbed_.fetch_add(absorbed, std::memory_order_relaxed);
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

  // Which union slots to merge/finalize, in output order.
  std::vector<size_t> all;
  if (slots == nullptr) {
    all.resize(calls_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    slots = &all;
  }
  for (size_t slot : *slots) {
    if (slot >= calls_.size()) {
      return Status::Internal("aggregate slot out of range");
    }
  }

  std::vector<Group> merged;
  exec::GroupIndex lookup;

  // Folds one partial group into the window accumulator, preserving
  // first-occurrence order (the order `absorb` is called in).
  auto absorb = [&](const Group& g) -> Status {
    size_t h = exec::HashValues(g.keys);
    const size_t found = lookup.Find(h, [&](size_t idx) {
      return exec::ValuesEqual(merged[idx].keys, g.keys);
    });
    Group* target =
        found != exec::GroupIndex::kNone ? &merged[found] : nullptr;
    if (target == nullptr) {
      lookup.Insert(h, merged.size());
      Group copy;
      copy.keys = g.keys;
      copy.states.reserve(slots->size());
      for (size_t slot : *slots) {
        copy.states.push_back(g.states[slot]->Clone());
      }
      merged.push_back(std::move(copy));
      return Status::OK();
    }
    for (size_t i = 0; i < slots->size(); ++i) {
      RETURN_IF_ERROR(target->states[i]->Merge(*g.states[(*slots)[i]]));
    }
    return Status::OK();
  };

  // Slices in time order, groups in insertion (= arrival) order.
  for (auto it = slices_.lower_bound(open);
       it != slices_.end() && it->first < close; ++it) {
    for (const Group& g : it->second.groups) {
      RETURN_IF_ERROR(absorb(g));
    }
  }

  // Scalar aggregation emits one row even for an empty window.
  if (merged.empty() && group_exprs_.empty()) {
    Group g;
    ASSIGN_OR_RETURN(std::vector<exec::AggStatePtr> fresh, NewStates());
    g.states.reserve(slots->size());
    for (size_t slot : *slots) g.states.push_back(std::move(fresh[slot]));
    merged.push_back(std::move(g));
  }

  std::vector<Row> rows;
  rows.reserve(merged.size());
  for (Group& g : merged) {
    Row row = std::move(g.keys);
    for (const auto& state : g.states) row.push_back(state->Final());
    rows.push_back(std::move(row));
  }
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
