#include "stream/runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault_injector.h"
#include "common/string_util.h"

namespace streamrel::stream {

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "BLOCK";
    case OverloadPolicy::kShedNewest:
      return "SHED_NEWEST";
    case OverloadPolicy::kShedOldest:
      return "SHED_OLDEST";
  }
  return "?";
}

StreamRuntime::StreamRuntime(catalog::Catalog* catalog,
                             storage::TransactionManager* txns,
                             storage::WriteAheadLog* wal)
    : catalog_(catalog), txns_(txns), wal_(wal) {
  engine_rows_metric_ =
      metrics_.GetCounter("engine", "runtime", "rows_ingested");
}

StreamRuntime::StreamState* StreamRuntime::GetState(const std::string& name) {
  std::lock_guard<std::mutex> lock(maps_mu_);
  auto it = streams_.find(ToLower(name));
  return it == streams_.end() ? nullptr : it->second.get();
}
const StreamRuntime::StreamState* StreamRuntime::GetState(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(maps_mu_);
  auto it = streams_.find(ToLower(name));
  return it == streams_.end() ? nullptr : it->second.get();
}

Status StreamRuntime::RegisterStream(const std::string& name) {
  catalog::StreamInfo* info = catalog_->GetStream(name);
  if (info == nullptr) {
    return Status::NotFound("stream '" + name + "' not in catalog");
  }
  std::string key = ToLower(name);
  {
    std::lock_guard<std::mutex> lock(maps_mu_);
    if (streams_.count(key)) return Status::OK();
  }
  // Metric cells are created before taking maps_mu_: the registry has its
  // own leaf mutex and cell creation is idempotent, so losing the insert
  // race below just means this state object (bound to the same cells) is
  // discarded.
  auto state = std::make_unique<StreamState>();
  state->info = info;
  state->rows_ingested_metric = metrics_.GetCounter(
      "stream", key, "rows_ingested");
  state->batches_published_metric = metrics_.GetCounter(
      "stream", key, "batches_published");
  state->rows_published_metric = metrics_.GetCounter(
      "stream", key, "rows_published");
  state->watermark_metric = metrics_.GetWatermarkGauge(
      "stream", key, "watermark");
  std::lock_guard<std::mutex> lock(maps_mu_);
  streams_.try_emplace(std::move(key), std::move(state));
  return Status::OK();
}

Status StreamRuntime::AttachCqSubscription(ContinuousQuery* cq) {
  RETURN_IF_ERROR(RegisterStream(cq->stream_name()));
  StreamState* state = GetState(cq->stream_name());
  if (cq->window().kind == WindowSpec::Kind::kSlices &&
      !state->info->is_derived) {
    return Status::InvalidArgument(
        "<SLICES n WINDOWS> applies to derived streams (it groups upstream "
        "window closes); stream '" + cq->stream_name() + "' is a raw stream "
        "— use a VISIBLE/ADVANCE window instead");
  }
  Subscription sub;
  sub.cq = cq;
  sub.window_op = std::make_unique<WindowOperator>(cq->window());
  sub.window_op->BindGovernor(&governor_);
  sub.feed_rows = !cq->is_shared();
  state->subs.push_back(std::move(sub));
  return Status::OK();
}

Result<ContinuousQuery*> StreamRuntime::CreateCq(const std::string& name,
                                                 const sql::SelectStmt& stmt,
                                                 bool allow_shared) {
  std::string key = ToLower(name);
  if (cqs_.count(key)) {
    return Status::AlreadyExists("a continuous query named '" + name +
                                 "' exists");
  }
  ASSIGN_OR_RETURN(std::unique_ptr<ContinuousQuery> cq,
                   ContinuousQuery::Build(name, stmt, catalog_, txns_,
                                          &registry_, allow_shared));
  ContinuousQuery* ptr = cq.get();
  RETURN_IF_ERROR(AttachCqSubscription(ptr));
  if (ptr->is_shared()) {
    ptr->shared_aggregator()->BindGovernor(&governor_);
  }
  ptr->BindMetrics(metrics_.GetCounter("cq", key, "windows_closed"),
                   metrics_.GetCounter("cq", key, "rows_emitted"),
                   metrics_.GetHistogram("cq", key, "eval_micros"));
  metrics_.GetGauge("cq", key, "is_shared")->Set(ptr->is_shared() ? 1 : 0);
  cqs_.emplace(std::move(key), std::move(cq));
  return ptr;
}

Status StreamRuntime::DropCq(const std::string& name) {
  std::string key = ToLower(name);
  auto it = cqs_.find(key);
  if (it == cqs_.end()) {
    return Status::NotFound("continuous query '" + name + "' not found");
  }
  ContinuousQuery* cq = it->second.get();
  StreamState* state = GetState(cq->stream_name());
  if (state != nullptr) {
    for (auto sit = state->subs.begin(); sit != state->subs.end(); ++sit) {
      if (sit->cq == cq) {
        state->subs.erase(sit);
        break;
      }
    }
  }
  SliceAggregator* pipeline = cq->shared_aggregator();
  cqs_.erase(it);
  metrics_.RemoveObject("cq", key);
  if (pipeline != nullptr) {
    // The last member's departure takes the pipeline's metrics with it.
    const std::string dropped = registry_.Detach(pipeline);
    if (!dropped.empty()) metrics_.RemoveObject("aggregator", dropped);
  }
  return Status::OK();
}

ContinuousQuery* StreamRuntime::GetCq(const std::string& name) {
  auto it = cqs_.find(ToLower(name));
  return it == cqs_.end() ? nullptr : it->second.get();
}

Status StreamRuntime::StartDerivedStream(const std::string& name) {
  catalog::StreamInfo* info = catalog_->GetStream(name);
  if (info == nullptr || !info->is_derived) {
    return Status::NotFound("derived stream '" + name + "' not in catalog");
  }
  if (info->defining_query == nullptr) {
    return Status::Internal("derived stream '" + name +
                            "' has no defining query");
  }
  RETURN_IF_ERROR(RegisterStream(name));
  std::string cq_name = "$derived$" + ToLower(name);
  ASSIGN_OR_RETURN(ContinuousQuery * cq,
                   CreateCq(cq_name, *info->defining_query,
                            /*allow_shared=*/true));
  std::string stream_name = info->name;
  cq->AddCallback([this, stream_name](int64_t close,
                                      const std::vector<Row>& rows) {
    return PublishBatch(stream_name, close, rows);
  });
  return Status::OK();
}

Status StreamRuntime::StartChannel(const std::string& name) {
  catalog::ChannelInfo* info = catalog_->GetChannel(name);
  if (info == nullptr) {
    return Status::NotFound("channel '" + name + "' not in catalog");
  }
  catalog::TableInfo* table = catalog_->GetTable(info->into_table);
  if (table == nullptr) {
    return Status::NotFound("channel target table '" + info->into_table +
                            "' not found");
  }
  RETURN_IF_ERROR(RegisterStream(info->from_stream));
  std::string key = ToLower(name);
  if (channels_.count(key)) {
    return Status::AlreadyExists("channel '" + name + "' already running");
  }
  auto channel = std::make_unique<Channel>(*info, table, txns_, wal_);
  channel->BindMetrics(
      metrics_.GetCounter("channel", key, "batches_persisted"),
      metrics_.GetCounter("channel", key, "rows_persisted"),
      metrics_.GetWatermarkGauge("channel", key, "commit_watermark"));
  GetState(info->from_stream)->channels.push_back(channel.get());
  channels_.emplace(std::move(key), std::move(channel));
  return Status::OK();
}

Channel* StreamRuntime::GetChannel(const std::string& name) {
  auto it = channels_.find(ToLower(name));
  return it == channels_.end() ? nullptr : it->second.get();
}

Status StreamRuntime::StopChannel(const std::string& name) {
  auto it = channels_.find(ToLower(name));
  if (it == channels_.end()) {
    return Status::NotFound("channel '" + name + "' is not running");
  }
  Channel* channel = it->second.get();
  StreamState* state = GetState(channel->info().from_stream);
  if (state != nullptr) {
    for (auto cit = state->channels.begin(); cit != state->channels.end();
         ++cit) {
      if (*cit == channel) {
        state->channels.erase(cit);
        break;
      }
    }
  }
  channels_.erase(it);
  metrics_.RemoveObject("channel", ToLower(name));
  return Status::OK();
}

std::string StreamRuntime::StreamInUseBy(const std::string& stream) const {
  const StreamState* state = GetState(stream);
  if (state == nullptr) return "";
  for (const Subscription& sub : state->subs) {
    return "continuous query '" + sub.cq->name() + "'";
  }
  if (!state->channels.empty()) {
    return "channel '" + state->channels.front()->info().name + "'";
  }
  if (!state->client_subs.empty()) return "a client subscription";
  return "";
}

std::string StreamRuntime::TableInUseBy(const std::string& table) const {
  std::string key = ToLower(table);
  for (const auto& [name, channel] : channels_) {
    if (ToLower(channel->info().into_table) == key) {
      return "channel '" + channel->info().name + "'";
    }
  }
  for (const auto& [name, cq] : cqs_) {
    for (const std::string& ref : cq->referenced_tables()) {
      if (ref == key) {
        return "continuous query '" + cq->name() + "'";
      }
    }
  }
  return "";
}

Status StreamRuntime::UnregisterStream(const std::string& name) {
  std::string in_use = StreamInUseBy(name);
  if (!in_use.empty()) {
    return Status::InvalidArgument("stream '" + name + "' is in use by " +
                                   in_use);
  }
  {
    std::lock_guard<std::mutex> lock(maps_mu_);
    streams_.erase(ToLower(name));
  }
  metrics_.RemoveObject("stream", ToLower(name));
  return Status::OK();
}

Result<int64_t> StreamRuntime::SubscribeStream(const std::string& stream,
                                               CqCallback callback) {
  RETURN_IF_ERROR(RegisterStream(stream));
  int64_t id = next_client_sub_id_.fetch_add(1, std::memory_order_relaxed);
  GetState(stream)->client_subs.push_back({id, std::move(callback)});
  return id;
}

Status StreamRuntime::UnsubscribeStream(const std::string& stream,
                                        int64_t id) {
  StreamState* state = GetState(stream);
  if (state == nullptr) return Status::OK();
  std::erase_if(state->client_subs, [id](const StreamState::ClientSub& s) {
    return s.id == id;
  });
  return Status::OK();
}

template <typename Advance>
Status StreamRuntime::CloseStep(StreamState* state, Advance&& advance) {
  CloseMemo memo;
  std::vector<WindowBatch> closed;
  for (Subscription& sub : state->subs) {
    RETURN_IF_ERROR(advance(sub, &closed));
    for (const WindowBatch& batch : closed) {
      RETURN_IF_ERROR(sub.cq->OnWindowClose(batch, &memo));
    }
    closed.clear();
  }
  return Status::OK();
}

namespace {

// Packs rows into an `arity`-wide batch. A row of any other width is
// stored torn, and pass 1 quarantines it in place.
exec::ColumnBatch PackRows(size_t arity, const std::vector<Row>& rows) {
  exec::ColumnBatch batch(arity);
  batch.Reserve(rows.size());
  for (const Row& row : rows) batch.AppendRow(row);
  return batch;
}

}  // namespace

Status StreamRuntime::Ingest(const std::string& stream,
                             const std::vector<Row>& rows,
                             int64_t system_time) {
  return IngestLocked(stream, system_time, [&](StreamState* state) {
    return IngestBatch(state,
                       PackRows(state->info->schema.num_columns(), rows),
                       system_time, /*quarantine_flush=*/false);
  });
}

Status StreamRuntime::Ingest(const std::string& stream,
                             exec::ColumnBatch&& batch, int64_t system_time) {
  return IngestLocked(stream, system_time, [&](StreamState* state) {
    // A batch of the wrong width is all torn: each row quarantines exactly
    // as it would from a row vector.
    const size_t arity = state->info->schema.num_columns();
    if (batch.num_columns() != arity) {
      batch = PackRows(arity, batch.MaterializeAll());
    }
    return IngestBatch(state, std::move(batch), system_time,
                       /*quarantine_flush=*/false);
  });
}

Result<StreamRuntime::StreamState*> StreamRuntime::RawStreamState(
    const std::string& stream) {
  StreamState* state = GetState(stream);
  if (state == nullptr) {
    RETURN_IF_ERROR(RegisterStream(stream));
    state = GetState(stream);
  }
  if (state->info->is_derived) {
    return Status::InvalidArgument(
        "cannot ingest into derived stream '" + state->info->name +
        "'; it is computed by its defining query");
  }
  return state;
}

Status StreamRuntime::IngestLocked(
    const std::string& stream, int64_t system_time,
    const std::function<Status(StreamState*)>& body) {
  // Batch-level contract violations stay hard errors; only per-row data
  // problems divert to the quarantine stream.
  ASSIGN_OR_RETURN(StreamState * state, RawStreamState(stream));
  const catalog::StreamInfo* info = state->info;
  if (info->cqtime_system && system_time == INT64_MIN) {
    return Status::InvalidArgument(
        "stream '" + info->name + "' has CQTIME SYSTEM; pass an ingest time");
  }
  Status status;
  std::vector<PendingQuarantine> flush_batch;
  {
    std::lock_guard<OrderedMutex> stream_lock(state->mu);
    ++state->ingest_depth;
    status = body(state);
    --state->ingest_depth;
    if (state->ingest_depth == 0 && !state->pending_quarantine.empty()) {
      flush_batch = std::move(state->pending_quarantine);
      state->pending_quarantine.clear();
    }
  }
  // Dead-letter rows publish only after this stream's lock is released:
  // the flush is an ordinary ingest into the dead-letter stream and must
  // start from a clean lock state.
  if (!flush_batch.empty()) FlushQuarantine(std::move(flush_batch));
  return status;
}

Status StreamRuntime::IngestBatch(StreamState* state,
                                  exec::ColumnBatch&& batch,
                                  int64_t system_time,
                                  bool quarantine_flush) {
  catalog::StreamInfo* info = state->info;
  size_t admit_begin = 0;
  size_t admit_end = batch.row_count();
  // Dead-letter capture must not itself be refused: quarantine flushes
  // bypass admission (their buffered footprint is still accounted).
  if (!quarantine_flush) {
    AdmitBatch(
        state, batch.row_count(),
        [&batch](size_t i) {
          return batch.row_bytes(static_cast<exec::RowIndex>(i));
        },
        &admit_begin, &admit_end);
  }

  const size_t n_rows = admit_end - admit_begin;
  exec::SelectionVector sel(n_rows);
  std::vector<int64_t> ts(n_rows);
  size_t out = 0;
  Row scratch;  // materialized only for quarantined rows
  auto reject = [&](exec::RowIndex row, const char* reason,
                    std::string detail) {
    batch.MaterializeRow(row, &scratch);
    QuarantineRow(state, reason, std::move(detail), scratch,
                  quarantine_flush);
  };
  const size_t tcol = info->cqtime_column;
  // When the CQTIME column is uniformly typed (the wire decode's common
  // shape), the per-row NULL/tag validation collapses to a payload load.
  const DataType ucq =
      info->cqtime_system ? DataType::kNull : batch.uniform_tag(tcol);
  const bool uniform_cq =
      ucq == DataType::kTimestamp || ucq == DataType::kInt64;
  // `wm` mirrors state->watermark; the atomic is still stored per admitted
  // row so QuarantineRow (which reads it for the dead-letter qtime) stamps
  // each rejected row with the watermark of the rows admitted before it.
  int64_t wm = state->watermark.load(std::memory_order_relaxed);
  for (size_t i = admit_begin; i < admit_end; ++i) {
    const exec::RowIndex row = static_cast<exec::RowIndex>(i);
    if (const Row* torn = batch.torn_row(row)) {
      reject(row, "arity",
             "row arity " + std::to_string(torn->size()) +
                 " does not match stream '" + info->name + "' (" +
                 std::to_string(info->schema.num_columns()) + " columns)");
      continue;
    }
    int64_t t;
    if (info->cqtime_system) {
      t = system_time;
    } else if (uniform_cq) {
      t = batch.fixed(tcol, row);
    } else {
      if (batch.is_null(tcol, row)) {
        reject(row, "null_cqtime", "NULL CQTIME value");
        continue;
      }
      const DataType tt = batch.tag(tcol, row);
      if (tt != DataType::kTimestamp && tt != DataType::kInt64) {
        reject(row, "bad_cqtime_type",
               std::string("CQTIME column must be a timestamp, got ") +
                   DataTypeToString(tt));
        continue;
      }
      t = batch.fixed(tcol, row);
    }
    if (wm != INT64_MIN && t < wm) {
      reject(row, "late",
             "ts " + std::to_string(t) + " is behind stream watermark " +
                 std::to_string(wm));
      continue;
    }
    if (info->cqtime_system) {
      batch.StampTimestamp(tcol, row, t);
    }
    sel[out] = row;
    ts[out] = t;
    ++out;
    wm = t;
    state->watermark.store(t, std::memory_order_relaxed);
  }
  sel.resize(out);
  ts.resize(out);
  return DispatchBatch(state, batch, sel, ts);
}

Status StreamRuntime::DispatchBatch(StreamState* state,
                                    const exec::ColumnBatch& batch,
                                    const exec::SelectionVector& sel,
                                    const std::vector<int64_t>& ts) {
  catalog::StreamInfo* info = state->info;
  // The in-flight columnar payload is charged as one batch, not per row;
  // released when the batch has been fully dispatched (the slices and
  // window buffers it feeds carry their own accounts).
  struct BatchCharge {
    MemoryGovernor* governor;
    int64_t bytes;
    ~BatchCharge() {
      if (bytes > 0) {
        governor->Release(MemoryGovernor::Account::kIngestBatch, bytes);
      }
    }
  } charge{&governor_, batch.total_row_bytes()};
  if (charge.bytes > 0) {
    governor_.Add(MemoryGovernor::Account::kIngestBatch, charge.bytes);
  }

  const size_t n = sel.size();
  // The admitted rows as Rows, built on first use: row-fed subscriptions
  // take each one at its step, and the tail hands the same rows to
  // channels and client subscriptions. Streams that feed only shared CQs
  // never build them.
  std::vector<Row> rows;
  auto admitted = [&]() -> const std::vector<Row>& {
    if (rows.size() != n) {
      rows.resize(n);
      for (size_t q = 0; q < n; ++q) batch.MaterializeRow(sel[q], &rows[q]);
    }
    return rows;
  };

  // Re-resolved after every close step: a delivery callback may re-enter
  // the engine and create a CQ on this stream, growing (and reallocating)
  // the registry's pipeline vector.
  const std::vector<SliceAggregator*>* pipelines =
      &registry_.ForStream(info->name);

  // `due` is the earliest boundary at which a watermark-driven (shared)
  // subscription acts; INT64_MIN while one has not started its close
  // schedule (it must see the very next row's StartAt). `every_row` holds
  // while a row-fed subscription (generic CQ, ROWS window) is attached:
  // it must receive each row at its own step.
  int64_t due = INT64_MAX;
  bool every_row = false;
  auto schedule = [&] {
    due = INT64_MAX;
    every_row = false;
    for (const Subscription& sub : state->subs) {
      if (sub.feed_rows) {
        every_row = true;
      } else {
        due = std::min(due, sub.window_op->next_close());
      }
    }
  };

  // Rows strictly before every shared subscription's next close only
  // advance its operator's last-seen timestamp, so without row-fed
  // subscriptions the steps collapse to the rows that can close a window,
  // plus the final row, which fixes up the last-seen timestamp. Pipelines
  // absorb the run of rows since the last shared close right before the
  // next one is evaluated, so every close merges exactly the rows that
  // arrived before it.
  schedule();
  size_t absorbed = 0;
  for (size_t p = 0; p < n; ++p) {
    if (!every_row && ts[p] < due && p + 1 < n) {
      // The admitted timestamps are non-decreasing (late rows were
      // quarantined), so jump straight to the first row at/past the
      // boundary instead of testing every row.
      const size_t first = static_cast<size_t>(
          std::lower_bound(ts.begin() + static_cast<ptrdiff_t>(p), ts.end(),
                           due) -
          ts.begin());
      p = std::min(first, n - 1);
    }
    if (ts[p] >= due) {
      for (SliceAggregator* agg : *pipelines) {
        RETURN_IF_ERROR(agg->AddBatch(batch, sel, ts, absorbed, p + 1));
      }
      absorbed = p + 1;
    }
    RETURN_IF_ERROR(CloseStep(
        state, [&](Subscription& sub, std::vector<WindowBatch>* closed) {
          if (sub.feed_rows) {
            return sub.window_op->AddRow(ts[p], admitted()[p], closed);
          }
          sub.window_op->StartAt(ts[p]);
          return sub.window_op->AdvanceTime(ts[p], closed);
        }));
    pipelines = &registry_.ForStream(info->name);
    schedule();
  }
  for (SliceAggregator* agg : *pipelines) {
    RETURN_IF_ERROR(agg->AddBatch(batch, sel, ts, absorbed, n));
  }
  return FinishIngest(state, n, admitted);
}

Status StreamRuntime::FinishIngest(
    StreamState* state, size_t n,
    const std::function<const std::vector<Row>&()>& admitted) {
  const int64_t final_wm = state->watermark.load(std::memory_order_relaxed);
  if (n > 0) {
    const int64_t count = static_cast<int64_t>(n);
    rows_ingested_.fetch_add(count, std::memory_order_relaxed);
    state->overload.rows_admitted.fetch_add(count, std::memory_order_relaxed);
    if (metrics_.enabled()) {
      state->rows_ingested_metric->Add(count);
      engine_rows_metric_->Add(count);
      state->watermark_metric->Set(final_wm);
    }
  }
  EvictSlices(*state, final_wm);
  if (state->channels.empty() && state->client_subs.empty()) {
    return Status::OK();
  }
  const std::vector<Row>& rows = admitted();
  // Raw-stream channels archive ingested rows directly (commit time =
  // current watermark). Transient sink failures (WAL/table hiccups) are
  // retried with backoff; OnRawRows restores its watermark on failure, so
  // a retry re-delivers exactly the undelivered group.
  for (Channel* channel : state->channels) {
    RETURN_IF_ERROR(
        WithSinkRetry([&] { return channel->OnRawRows(final_wm, rows); }));
  }
  // Index loop: a delivery callback may re-enter the engine and mutate
  // the subscription list.
  for (size_t i = 0; i < state->client_subs.size(); ++i) {
    RETURN_IF_ERROR(state->client_subs[i].callback(final_wm, rows));
  }
  return Status::OK();
}

void StreamRuntime::EvictSlices(const StreamState& state, int64_t watermark) {
  // Nothing is evictable before the first row or heartbeat sets the
  // watermark (and INT64_MIN - max_visible would overflow).
  if (watermark == INT64_MIN) return;
  for (SliceAggregator* agg : registry_.ForStream(state.info->name)) {
    agg->EvictBefore(watermark - agg->max_visible());
  }
}

Status StreamRuntime::AdvanceTime(const std::string& stream,
                                  int64_t watermark) {
  ASSIGN_OR_RETURN(StreamState * state, RawStreamState(stream));
  std::lock_guard<OrderedMutex> stream_lock(state->mu);
  const int64_t wm = state->watermark.load(std::memory_order_relaxed);
  if (wm != INT64_MIN && watermark < wm) {
    return Status::InvalidArgument("watermark regression");
  }
  RETURN_IF_ERROR(CloseStep(
      state, [&](Subscription& sub, std::vector<WindowBatch>* closed) {
        return sub.window_op->AdvanceTime(watermark, closed);
      }));
  state->watermark.store(watermark, std::memory_order_relaxed);
  if (metrics_.enabled()) state->watermark_metric->Set(watermark);
  EvictSlices(*state, watermark);
  return Status::OK();
}

Status StreamRuntime::PublishBatch(const std::string& stream, int64_t close,
                                   const std::vector<Row>& rows) {
  StreamState* state = GetState(stream);
  if (state == nullptr) {
    return Status::Internal("derived stream '" + stream + "' not registered");
  }
  // Nested same-rank acquisition: the caller holds the source stream's
  // ingest lock; cascades form a forest, so locking the derived stream
  // under it cannot deadlock.
  std::lock_guard<OrderedMutex> stream_lock(state->mu);
  RETURN_IF_ERROR(CloseStep(
      state, [&](Subscription& sub, std::vector<WindowBatch>* closed) {
        return sub.window_op->AddBatch(close, rows, closed);
      }));
  state->watermark.store(close, std::memory_order_relaxed);
  if (metrics_.enabled()) {
    state->batches_published_metric->Add();
    state->rows_published_metric->Add(static_cast<int64_t>(rows.size()));
    state->watermark_metric->Set(close);
  }
  for (Channel* channel : state->channels) {
    // OnBatch dedups closes at or below the channel watermark, so a retry
    // after a transient failure re-applies only the unpersisted batch.
    RETURN_IF_ERROR(
        WithSinkRetry([&] { return channel->OnBatch(close, rows); }));
  }
  for (size_t i = 0; i < state->client_subs.size(); ++i) {
    RETURN_IF_ERROR(state->client_subs[i].callback(close, rows));
  }
  return Status::OK();
}

int64_t StreamRuntime::watermark(const std::string& stream) const {
  const StreamState* state = GetState(stream);
  return state == nullptr ? INT64_MIN
                          : state->watermark.load(std::memory_order_relaxed);
}

// The four recovery/checkpoint walkers below run only under the exclusive
// engine lock (RECOVER / CHECKPOINT statements), which excludes every
// shared-mode mutator of streams_, so they iterate without maps_mu_.
Result<std::string> StreamRuntime::SerializeCqState(
    const std::string& name) const {
  for (const auto& [key, state] : streams_) {
    for (const Subscription& sub : state->subs) {
      if (EqualsIgnoreCase(sub.cq->name(), name)) {
        if (!sub.feed_rows) {
          return Status::NotImplemented(
              "shared-strategy CQ '" + name +
              "' has no serializable operator state; recover it from "
              "active tables");
        }
        std::string blob;
        sub.window_op->Serialize(&blob);
        return blob;
      }
    }
  }
  return Status::NotFound("continuous query '" + name + "' not found");
}

Status StreamRuntime::RestoreCqState(const std::string& name,
                                     const std::string& blob) {
  for (auto& [key, state] : streams_) {
    for (Subscription& sub : state->subs) {
      if (EqualsIgnoreCase(sub.cq->name(), name)) {
        return sub.window_op->Restore(blob);
      }
    }
  }
  return Status::NotFound("continuous query '" + name + "' not found");
}

Status StreamRuntime::ResetCqToWatermark(const std::string& name,
                                         int64_t watermark) {
  for (auto& [key, state] : streams_) {
    for (Subscription& sub : state->subs) {
      if (EqualsIgnoreCase(sub.cq->name(), name)) {
        sub.window_op->ResetToWatermark(watermark);
        sub.cq->SetEmitWatermark(watermark);
        return Status::OK();
      }
    }
  }
  return Status::NotFound("continuous query '" + name + "' not found");
}

Status StreamRuntime::SetCqEmitWatermark(const std::string& name,
                                         int64_t watermark) {
  for (auto& [key, state] : streams_) {
    for (Subscription& sub : state->subs) {
      if (EqualsIgnoreCase(sub.cq->name(), name)) {
        sub.cq->SetEmitWatermark(watermark);
        return Status::OK();
      }
    }
  }
  return Status::NotFound("continuous query '" + name + "' not found");
}

Status StreamRuntime::SetOverloadPolicy(const std::string& stream,
                                        OverloadPolicy policy) {
  RETURN_IF_ERROR(RegisterStream(stream));
  GetState(stream)->policy.store(policy, std::memory_order_relaxed);
  return Status::OK();
}

OverloadPolicy StreamRuntime::overload_policy(
    const std::string& stream) const {
  const StreamState* state = GetState(stream);
  return state == nullptr ? OverloadPolicy::kBlock
                          : state->policy.load(std::memory_order_relaxed);
}

Status StreamRuntime::SetRetryLimit(int64_t attempts) {
  if (attempts < 1 || attempts > 1000) {
    return Status::InvalidArgument(
        "RETRY LIMIT must be between 1 and 1000 attempts");
  }
  retry_limit_.store(attempts, std::memory_order_relaxed);
  return Status::OK();
}

Status StreamRuntime::SetRetryBackoff(int64_t micros) {
  if (micros < 0) {
    return Status::InvalidArgument("RETRY BACKOFF must be >= 0");
  }
  retry_backoff_micros_.store(micros, std::memory_order_relaxed);
  return Status::OK();
}

StreamRuntime::OverloadCounters StreamRuntime::overload_counters(
    const std::string& stream) const {
  const StreamState* state = GetState(stream);
  OverloadCounters counters;
  if (state == nullptr) return counters;
  counters.rows_admitted =
      state->overload.rows_admitted.load(std::memory_order_relaxed);
  counters.rows_shed =
      state->overload.rows_shed.load(std::memory_order_relaxed);
  counters.rows_quarantined =
      state->overload.rows_quarantined.load(std::memory_order_relaxed);
  counters.blocked_micros =
      state->overload.blocked_micros.load(std::memory_order_relaxed);
  return counters;
}

std::string StreamRuntime::QuarantineName(const std::string& stream) {
  return ToLower(stream) + ".__quarantine";
}

bool StreamRuntime::IsQuarantineName(const std::string& name) {
  static const std::string kSuffix = ".__quarantine";
  std::string lower = ToLower(name);
  return lower.size() > kSuffix.size() &&
         lower.compare(lower.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) == 0;
}

Status StreamRuntime::EnsureQuarantineStream(const std::string& stream) {
  if (IsQuarantineName(stream)) {
    return Status::InvalidArgument(
        "quarantine streams have no quarantine of their own");
  }
  std::string qname = QuarantineName(stream);
  if (catalog_->GetStream(qname) == nullptr) {
    catalog::StreamInfo info;
    info.name = qname;
    info.schema = Schema({Column("qtime", DataType::kTimestamp),
                          Column("reason", DataType::kString),
                          Column("detail", DataType::kString),
                          Column("row_data", DataType::kString)});
    info.cqtime_column = 0;
    Status status = catalog_->CreateStream(std::move(info));
    // Concurrent ingests may race to create the same dead-letter stream;
    // the loser just registers the winner's.
    if (!status.ok() && catalog_->GetStream(qname) == nullptr) {
      return status;
    }
  }
  return RegisterStream(qname);
}

void StreamRuntime::AdmitBatch(
    StreamState* state, size_t n,
    const std::function<int64_t(size_t)>& row_bytes, size_t* begin,
    size_t* end) {
  *begin = 0;
  *end = n;
  if (n == 0 || governor_.budget() == 0) return;
  int64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += row_bytes(i);
  const int64_t headroom = governor_.headroom();
  if (total <= headroom) return;
  switch (state->policy.load(std::memory_order_relaxed)) {
    case OverloadPolicy::kBlock:
      BlockForHeadroom(state, total);
      return;
    case OverloadPolicy::kShedNewest: {
      // Keep the longest prefix that fits: older rows win under a policy
      // that sheds the newest arrivals.
      int64_t acc = 0;
      size_t keep = 0;
      while (keep < n && acc + row_bytes(keep) <= headroom) {
        acc += row_bytes(keep);
        ++keep;
      }
      *end = keep;
      break;
    }
    case OverloadPolicy::kShedOldest: {
      // Keep the longest suffix that fits; shedding the head preserves
      // the batch's timestamp order for the admitted remainder.
      int64_t acc = 0;
      size_t keep = 0;
      while (keep < n && acc + row_bytes(n - 1 - keep) <= headroom) {
        acc += row_bytes(n - 1 - keep);
        ++keep;
      }
      *begin = n - keep;
      break;
    }
  }
  state->overload.rows_shed.fetch_add(static_cast<int64_t>(n - (*end - *begin)),
                                      std::memory_order_relaxed);
}

void StreamRuntime::BlockForHeadroom(StreamState* state, int64_t total) {
  // Backpressure: wait out the bounded budget for headroom. BLOCK is
  // lossless — after the timeout the batch is admitted regardless, trading
  // latency (counted), never rows.
  const auto start = std::chrono::steady_clock::now();
  constexpr int64_t kPollMicros = 200;
  const int64_t timeout =
      block_timeout_micros_.load(std::memory_order_relaxed);
  while (governor_.headroom() < total) {
    const int64_t waited =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (waited >= timeout) break;
    std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
  }
  state->overload.blocked_micros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
}

void StreamRuntime::QuarantineRow(StreamState* state, const char* reason,
                                  std::string detail, const Row& row,
                                  bool quarantine_flush) {
  state->overload.rows_quarantined.fetch_add(1, std::memory_order_relaxed);
  if (quarantine_flush) {
    // A dead-letter row rejected by its own dead-letter stream has
    // nowhere left to go; count the drop instead of recursing.
    quarantine_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int64_t wm = state->watermark.load(std::memory_order_relaxed);
  const int64_t qtime = wm == INT64_MIN ? 0 : wm;
  Row qrow;
  qrow.reserve(4);
  qrow.push_back(Value::Timestamp(qtime));
  qrow.push_back(Value::String(reason));
  qrow.push_back(Value::String(std::move(detail)));
  qrow.push_back(Value::String(RowToString(row)));
  state->pending_quarantine.push_back(
      PendingQuarantine{state->info->name, std::move(qrow)});
}

void StreamRuntime::FlushQuarantine(std::vector<PendingQuarantine> batch) {
  // Publishing a dead-letter row can itself quarantine-drop (counted) but
  // never fails the source batch; errors here are absorbed.
  for (PendingQuarantine& q : batch) {
    Status status = EnsureQuarantineStream(q.stream);
    if (status.ok()) {
      status = IngestLocked(
          QuarantineName(q.stream), INT64_MIN, [&](StreamState* state) {
            return IngestBatch(
                state, PackRows(state->info->schema.num_columns(), {q.row}),
                INT64_MIN, /*quarantine_flush=*/true);
          });
    }
    if (!status.ok()) {
      quarantine_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status StreamRuntime::WithSinkRetry(const std::function<Status()>& op) {
  // Sinks write tables (heap + indexes + WAL): each attempt runs under the
  // DML lock (rank kDml, above the stream locks held here), serializing
  // against SQL DML on the same tables. Backoff sleeps run unlocked.
  auto attempt = [&]() -> Status {
    std::lock_guard<OrderedMutex> dml_lock(dml_mu_);
    return op();
  };
  Status status = attempt();
  int64_t backoff = retry_backoff_micros_.load(std::memory_order_relaxed);
  const int64_t limit = retry_limit_.load(std::memory_order_relaxed);
  for (int64_t attempts = 1; attempts < limit; ++attempts) {
    if (status.ok() || status.code() != StatusCode::kIoError ||
        FaultInjector::IsInjectedCrash(status)) {
      return status;
    }
    // Exponential backoff with deterministic jitter: derived from the
    // cumulative retry counter instead of an RNG, so reruns of a seeded
    // workload retry on an identical schedule while periodic retries
    // still de-phase from one another.
    const int64_t jitter =
        (backoff / 4) * (retries_.load(std::memory_order_relaxed) % 3) / 2;
    if (backoff + jitter > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backoff + jitter));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    status = attempt();
    if (backoff <= INT64_MAX / 2) backoff *= 2;
  }
  if (!status.ok() && limit > 1 &&
      status.code() == StatusCode::kIoError &&
      !FaultInjector::IsInjectedCrash(status)) {
    retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

std::vector<std::string> StreamRuntime::CqNames() const {
  std::vector<std::string> names;
  names.reserve(cqs_.size());
  for (const auto& [key, cq] : cqs_) names.push_back(cq->name());
  return names;
}

void StreamRuntime::StreamLockStats(int64_t* acquisitions,
                                    int64_t* contended) const {
  *acquisitions = 0;
  *contended = 0;
  std::lock_guard<std::mutex> lock(maps_mu_);
  for (const auto& [key, state] : streams_) {
    *acquisitions += state->mu.acquisitions();
    *contended += state->mu.contended();
  }
}

void StreamRuntime::RefreshMetricsGauges() {
  int64_t shared = 0;
  for (const auto& [key, cq] : cqs_) {
    if (cq->is_shared()) ++shared;
    metrics_.GetWatermarkGauge("cq", key, "emit_watermark")
        ->Set(cq->emit_watermark());
  }
  int64_t stream_count;
  {
    std::lock_guard<std::mutex> lock(maps_mu_);
    stream_count = static_cast<int64_t>(streams_.size());
  }
  metrics_.GetGauge("engine", "runtime", "streams")->Set(stream_count);
  metrics_.GetGauge("engine", "runtime", "cqs")
      ->Set(static_cast<int64_t>(cqs_.size()));
  metrics_.GetGauge("engine", "runtime", "cqs_shared")->Set(shared);
  metrics_.GetGauge("engine", "runtime", "cqs_generic")
      ->Set(static_cast<int64_t>(cqs_.size()) - shared);
  metrics_.GetGauge("engine", "runtime", "channels")
      ->Set(static_cast<int64_t>(channels_.size()));
  metrics_.GetGauge("engine", "runtime", "shared_pipelines")
      ->Set(static_cast<int64_t>(registry_.pipeline_count()));

  {
    // maps_mu_ is held across the walk so a concurrent lazy registration
    // cannot invalidate the iterator; the registry calls below only nest
    // its own leaf mutex (the one permitted leaf-under-leaf pairing).
    std::lock_guard<std::mutex> lock(maps_mu_);
    for (const auto& [key, state_ptr] : streams_) {
      const StreamState& state = *state_ptr;
      metrics_.GetGauge("stream", key, "cq_subscriptions")
          ->Set(static_cast<int64_t>(state.subs.size()));
      metrics_.GetGauge("stream", key, "channels")
          ->Set(static_cast<int64_t>(state.channels.size()));
      metrics_.GetGauge("stream", key, "client_subscriptions")
          ->Set(static_cast<int64_t>(state.client_subs.size()));
      state.watermark_metric->Set(
          state.watermark.load(std::memory_order_relaxed));
      metrics_.GetGauge("overload", key, "rows_admitted")
          ->Set(state.overload.rows_admitted.load(std::memory_order_relaxed));
      metrics_.GetGauge("overload", key, "rows_shed")
          ->Set(state.overload.rows_shed.load(std::memory_order_relaxed));
      metrics_.GetGauge("overload", key, "rows_quarantined")
          ->Set(state.overload.rows_quarantined.load(
              std::memory_order_relaxed));
      metrics_.GetGauge("overload", key, "blocked_micros")
          ->Set(state.overload.blocked_micros.load(
              std::memory_order_relaxed));
    }
  }

  metrics_.GetGauge("overload", "governor", "bytes_held")
      ->Set(governor_.held());
  metrics_.GetGauge("overload", "governor", "bytes_budget")
      ->Set(governor_.budget());
  metrics_.GetGauge("overload", "governor", "bytes_peak")
      ->Set(governor_.peak_held());
  metrics_.GetGauge("overload", "governor", "bytes_window")
      ->Set(governor_.held(MemoryGovernor::Account::kWindow));
  metrics_.GetGauge("overload", "governor", "bytes_aggregator")
      ->Set(governor_.held(MemoryGovernor::Account::kAggregator));
  metrics_.GetGauge("overload", "governor", "bytes_reorder")
      ->Set(governor_.held(MemoryGovernor::Account::kReorder));
  metrics_.GetGauge("overload", "governor", "bytes_net_send_queue")
      ->Set(governor_.held(MemoryGovernor::Account::kNetSendQueue));
  metrics_.GetGauge("overload", "governor", "bytes_ingest_batch")
      ->Set(governor_.held(MemoryGovernor::Account::kIngestBatch));
  metrics_.GetGauge("overload", "retry", "retries")
      ->Set(retries_.load(std::memory_order_relaxed));
  metrics_.GetGauge("overload", "retry", "exhausted")
      ->Set(retries_exhausted_.load(std::memory_order_relaxed));
  metrics_.GetGauge("overload", "quarantine", "rows_dropped")
      ->Set(quarantine_dropped_.load(std::memory_order_relaxed));

  // Shared pipelines report under their names ("<label>#<n>"); DropCq
  // removes a pipeline's metrics when its last member leaves.
  for (const auto& ref : registry_.Pipelines()) {
    metrics_.GetGauge("aggregator", ref.key, "member_cqs")
        ->Set(ref.aggregator->member_cqs());
    metrics_.GetGauge("aggregator", ref.key, "window_merges")
        ->Set(ref.aggregator->window_merges());
    metrics_.GetGauge("aggregator", ref.key, "evals_reused")
        ->Set(ref.aggregator->evals_reused());
    metrics_.GetGauge("aggregator", ref.key, "rows_absorbed")
        ->Set(ref.aggregator->rows_absorbed());
    metrics_.GetGauge("aggregator", ref.key, "live_slices")
        ->Set(static_cast<int64_t>(ref.aggregator->live_slices()));
    metrics_.GetGauge("aggregator", ref.key, "union_calls")
        ->Set(static_cast<int64_t>(ref.aggregator->union_call_count()));
    metrics_.GetGauge("aggregator", ref.key, "slice_width_micros")
        ->Set(ref.aggregator->slice_width());
  }
}

}  // namespace streamrel::stream
