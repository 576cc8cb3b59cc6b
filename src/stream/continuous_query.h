#ifndef STREAMREL_STREAM_CONTINUOUS_QUERY_H_
#define STREAMREL_STREAM_CONTINUOUS_QUERY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/planner.h"
#include "storage/transaction.h"
#include "stream/metrics.h"
#include "stream/shared_aggregation.h"
#include "stream/window.h"
#include "stream/window_operator.h"

namespace streamrel::stream {

/// Delivery of one window's results: (window close time, output relation).
using CqCallback =
    std::function<Status(int64_t close, const std::vector<Row>& rows)>;

/// A registry of shared slice-aggregation pipelines, keyed by an exact
/// signature: stream, slice width, and the bound WHERE filter and GROUP BY
/// keys. CQs with equal signatures attach to the same SliceAggregator; a
/// CQ that would need to add aggregates to a pipeline that has already
/// absorbed rows gets a fresh one (no backfill). Each pipeline is named
/// "<label>#<n>" for observability, where `n` counts the pipelines the
/// registry has created.
class SliceAggregatorRegistry {
 public:
  struct Registration {
    SliceAggregator* aggregator = nullptr;  // owned by the registry
    std::vector<size_t> slot_mapping;       // CQ call -> union slot
  };

  /// Finds or creates the pipeline for `signature`, registering `calls`.
  /// A new pipeline is named after `label`.
  Result<Registration> Attach(const std::string& stream_name,
                              const std::string& label,
                              const std::string& signature,
                              int64_t slice_width,
                              exec::BoundExprPtr filter,
                              std::vector<exec::BoundExprPtr> group_exprs,
                              std::vector<exec::AggregateCall> calls);

  /// Removes one member from `aggregator`. The last member's departure
  /// destroys the pipeline: it leaves ForStream (no more absorbing) and
  /// releases its governor charge. Returns the destroyed pipeline's name,
  /// or "" while members remain.
  std::string Detach(SliceAggregator* aggregator);

  /// All pipelines attached to `stream_name` (ingest fan-out). The
  /// returned vector reference is node-stable across concurrent lookups
  /// (the map entry, once created, never moves) and is only mutated by
  /// Attach and Detach, which run under the exclusive engine lock.
  const std::vector<SliceAggregator*>& ForStream(
      const std::string& stream_name);

  size_t pipeline_count() const { return pipelines_.size(); }

  /// One live pipeline, for observability enumeration.
  struct PipelineRef {
    std::string key;     // the pipeline's name ("<label>#<n>")
    std::string stream;  // lowercased source stream
    const SliceAggregator* aggregator = nullptr;
  };
  std::vector<PipelineRef> Pipelines() const;

 private:
  struct Entry {
    std::string name;
    std::string signature;
    std::string stream;
    std::unique_ptr<SliceAggregator> aggregator;
  };
  /// Leaf mutex guarding the containers: ForStream lazily inserts an empty
  /// per-stream vector during shared-mode ingest, which can race another
  /// stream's ingest doing the same. Held only for container operations.
  mutable std::mutex mu_;
  std::vector<Entry> pipelines_;  // creation order: Attach tries oldest first
  int64_t created_ = 0;
  std::map<std::string, std::vector<SliceAggregator*>> by_stream_;
};

/// The window-close work that shared-strategy CQs share within one close
/// step (the closes that one admitted row, one AdvanceTime, or one
/// published batch triggers across a stream's subscriptions). A pipeline
/// with two or more live members merges each (close, VISIBLE) window once
/// for its whole call union, and members whose programs (the slots they
/// read and the operators above their aggregate) are identical evaluate
/// once and share the output rows. The close loop owns one memo per step,
/// so nothing outlives the step. Entries are held by pointer and never
/// move: a member's delivery callbacks read its entry's rows while they
/// re-enter the engine.
class CloseMemo {
 public:
  CloseMemo() = default;
  CloseMemo(const CloseMemo&) = delete;
  CloseMemo& operator=(const CloseMemo&) = delete;

 private:
  friend class ContinuousQuery;
  struct Merge {
    const SliceAggregator* pipeline;
    int64_t close;
    int64_t visible;
    std::vector<Row> rows;  // [group keys..., every union aggregate...]
  };
  struct Eval {
    const SliceAggregator* pipeline;
    int64_t close;
    std::string program;  // ContinuousQuery::program_key_
    std::vector<Row> rows;
  };
  std::vector<std::unique_ptr<Merge>> merges_;
  std::vector<std::unique_ptr<Eval>> evals_;
};

/// One running continuous query (the paper's CQ): a SELECT over a windowed
/// stream (optionally joined with tables) that emits a relation at every
/// window close and runs until dropped.
///
/// Every CQ runs the planner's plan at each close, with stream-table
/// joins reading a window-consistent MVCC snapshot (as of the window
/// close). The strategy only decides where the plan's aggregate gets its
/// groups:
///  - *shared*: a CQ whose plan aggregates one raw stream in a time
///    window, with nothing before the aggregation that reads the close,
///    hands its WHERE filter, keys and calls to a shared SliceAggregator
///    and at each close feeds the aggregate node the merged groups;
///  - *generic*: every other CQ feeds the window's buffered rows to the
///    plan's stream leaf.
class ContinuousQuery {
 public:
  ~ContinuousQuery() = default;

  /// Builds a CQ from an analyzed statement. Shares it when
  /// `allow_shared` and its plan allows; otherwise it is generic.
  /// `registry` may be null only when `allow_shared` is false.
  static Result<std::unique_ptr<ContinuousQuery>> Build(
      std::string name, const sql::SelectStmt& stmt,
      const catalog::Catalog* catalog,
      const storage::TransactionManager* txns,
      SliceAggregatorRegistry* registry, bool allow_shared);

  const std::string& name() const { return name_; }
  const Schema& output_schema() const { return output_schema_; }
  const std::string& stream_name() const { return stream_name_; }
  const WindowSpec& window() const { return window_; }
  bool is_shared() const { return shared_agg_ != nullptr; }
  /// The shared pipeline this CQ reads (null on the generic path).
  SliceAggregator* shared_aggregator() const { return shared_agg_; }

  /// Registers a delivery callback; the returned id can later detach it
  /// (network sessions subscribe and unsubscribe while the CQ runs).
  int64_t AddCallback(CqCallback callback) {
    int64_t id = next_callback_id_++;
    callbacks_.push_back({id, std::move(callback)});
    return id;
  }

  /// Detaches a callback registered by AddCallback; unknown ids are a
  /// no-op (the CQ may have been dropped and re-created meanwhile).
  void RemoveCallback(int64_t id) {
    std::erase_if(callbacks_,
                  [id](const CallbackEntry& e) { return e.id == id; });
  }

  size_t callback_count() const { return callbacks_.size(); }

  /// Generic path: evaluates the plan over one closed window's contents.
  /// Shared path: reads the shared aggregator as of the batch close (the
  /// batch rows themselves are ignored — the aggregator already saw them),
  /// through the close step's `memo` when the pipeline has other live
  /// members. Emit gating, delivery and the per-CQ counters stay per CQ.
  Status OnWindowClose(const WindowBatch& batch, CloseMemo* memo);

  /// Windows with close <= `watermark` are evaluated but not delivered
  /// (used after recovery so already-persisted results are not re-emitted).
  void SetEmitWatermark(int64_t watermark) {
    emit_watermark_.store(watermark, std::memory_order_relaxed);
  }
  int64_t emit_watermark() const {
    return emit_watermark_.load(std::memory_order_relaxed);
  }

  /// Total windows evaluated / rows emitted (for tests and benchmarks).
  int64_t windows_evaluated() const {
    return windows_evaluated_.load(std::memory_order_relaxed);
  }

  /// Wall time spent evaluating windows (not counting delivery callbacks).
  int64_t eval_micros_total() const {
    return eval_micros_total_.load(std::memory_order_relaxed);
  }
  int64_t rows_emitted() const {
    return rows_emitted_.load(std::memory_order_relaxed);
  }

  /// Optional observability hookup: mirrors window closes, rows emitted,
  /// and per-close eval latency into registry-owned metrics. Any pointer
  /// may be null.
  void BindMetrics(Counter* windows_closed, Counter* rows_emitted,
                   Histogram* eval_micros) {
    windows_metric_ = windows_closed;
    rows_metric_ = rows_emitted;
    eval_metric_ = eval_micros;
  }

  /// Base tables this CQ's plan references (lowercased; empty for the
  /// shared strategy, whose plan reads only the stream). The engine
  /// refuses to drop these while the CQ runs.
  const std::vector<std::string>& referenced_tables() const {
    return plan_->referenced_tables;
  }

 private:
  ContinuousQuery() = default;

  /// Moves the plan's aggregation into a pipeline of `registry` when the
  /// plan allows it (see the class comment); leaves the CQ generic
  /// otherwise.
  Status Share(const catalog::Catalog* catalog,
               SliceAggregatorRegistry* registry);
  /// Returns the rows to deliver: `*own` on a dedicated pipeline, else a
  /// memo entry this or an identical member made.
  Result<const std::vector<Row>*> EvaluateShared(int64_t close,
                                                 CloseMemo* memo,
                                                 std::vector<Row>* own);
  /// Runs the plan for the window closing at `close`, whose input is
  /// already in place.
  Status RunPlan(int64_t close, std::vector<Row>* out);
  Status Deliver(int64_t close, const std::vector<Row>& rows);

  struct CallbackEntry {
    int64_t id = 0;
    CqCallback callback;
  };

  std::string name_;
  std::string stream_name_;
  WindowSpec window_;
  Schema output_schema_;
  std::vector<CallbackEntry> callbacks_;
  int64_t next_callback_id_ = 1;
  // Atomics: bumped under the owning stream's ingest lock but read by
  // concurrent SHOW STATS / sys_cqs refreshes that hold only the shared
  // engine lock.
  std::atomic<int64_t> emit_watermark_{INT64_MIN};
  std::atomic<int64_t> windows_evaluated_{0};
  std::atomic<int64_t> eval_micros_total_{0};
  std::atomic<int64_t> rows_emitted_{0};
  Counter* windows_metric_ = nullptr;
  Counter* rows_metric_ = nullptr;
  Histogram* eval_metric_ = nullptr;

  const storage::TransactionManager* txns_ = nullptr;
  std::unique_ptr<exec::PlannedQuery> plan_;

  // Shared path.
  SliceAggregator* shared_agg_ = nullptr;  // owned by the registry
  exec::HashAggregateNode* fed_ = nullptr;  // in plan_, fed each close
  std::vector<size_t> slot_mapping_;        // local agg slot -> union slot
  /// Exact encoding of VISIBLE, the slot mapping and the operators above
  /// `fed_`: members of one pipeline with equal keys produce equal rows
  /// at every close.
  std::string program_key_;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_CONTINUOUS_QUERY_H_
