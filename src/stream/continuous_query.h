#ifndef STREAMREL_STREAM_CONTINUOUS_QUERY_H_
#define STREAMREL_STREAM_CONTINUOUS_QUERY_H_

#include <atomic>
#include <functional>
#include <memory>
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

/// One shared slice-aggregation pipeline of a raw stream. CQs whose exact
/// signatures (slice width, and the bound WHERE filter and GROUP BY keys)
/// are equal attach to the same SliceAggregator; the last member's
/// departure destroys it. A stream keeps its pipelines oldest first, on
/// its runtime state.
struct SharedPipeline {
  std::string name;       // "<label>#<n>"; n counts pipelines engine-wide
  std::string signature;  // the label plus the exact filter and keys
  std::unique_ptr<SliceAggregator> aggregator;
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

  /// Builds a generic CQ from an analyzed statement; Share may then move
  /// its aggregation into a pipeline of its stream.
  static Result<std::unique_ptr<ContinuousQuery>> Build(
      std::string name, const sql::SelectStmt& stmt,
      const catalog::Catalog* catalog,
      const storage::TransactionManager* txns);

  /// Moves the plan's aggregation into one of `pipelines`, its stream's,
  /// when the plan allows it (see the class comment); leaves the CQ
  /// generic otherwise. The CQ joins the oldest pipeline with its exact
  /// signature that can still take its calls. A CQ whose aggregates are
  /// missing from a pipeline that has absorbed rows cannot join it (its
  /// history cannot be backfilled), so it appends a fresh one named
  /// "<label>#<++*created>" that later CQs can join.
  Status Share(const catalog::Catalog* catalog,
               std::vector<SharedPipeline>* pipelines, int64_t* created);

  const std::string& name() const { return name_; }
  const Schema& output_schema() const { return output_schema_; }
  const std::string& stream_name() const { return stream_name_; }
  const WindowSpec& window() const { return window_; }
  bool is_shared() const { return shared_agg_ != nullptr; }
  /// The shared pipeline this CQ reads (null on the generic path); owned
  /// by its stream's pipeline list.
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

  /// Windows evaluated successfully, and the wall time spent evaluating
  /// them (not counting delivery callbacks): the count and the sum of
  /// eval_micros().
  int64_t windows_evaluated() const { return eval_micros_.count(); }
  int64_t eval_micros_total() const { return eval_micros_.sum(); }
  /// Per-close evaluation latency of every successful window close.
  const Histogram& eval_micros() const { return eval_micros_; }
  int64_t rows_emitted() const {
    return rows_emitted_.load(std::memory_order_relaxed);
  }

  /// Base tables this CQ's plan references (lowercased; empty for the
  /// shared strategy, whose plan reads only the stream). The engine
  /// refuses to drop these while the CQ runs.
  const std::vector<std::string>& referenced_tables() const {
    return plan_->referenced_tables;
  }

 private:
  ContinuousQuery() = default;

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
  // Atomics (and an internally locked histogram): bumped under the owning
  // stream's ingest lock but read by concurrent SHOW STATS / sys_cqs
  // refreshes that hold only the shared engine lock.
  std::atomic<int64_t> emit_watermark_{INT64_MIN};
  std::atomic<int64_t> rows_emitted_{0};
  Histogram eval_micros_{Histogram::LatencyMicrosBounds()};

  const storage::TransactionManager* txns_ = nullptr;
  std::unique_ptr<exec::PlannedQuery> plan_;

  // Shared path.
  SliceAggregator* shared_agg_ = nullptr;  // owned by the stream
  exec::HashAggregateNode* fed_ = nullptr;  // in plan_, fed each close
  std::vector<size_t> slot_mapping_;        // local agg slot -> union slot
  /// Exact encoding of VISIBLE, the slot mapping and the operators above
  /// `fed_`: members of one pipeline with equal keys produce equal rows
  /// at every close.
  std::string program_key_;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_CONTINUOUS_QUERY_H_
