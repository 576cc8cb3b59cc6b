#ifndef STREAMREL_STREAM_SHARED_AGGREGATION_H_
#define STREAMREL_STREAM_SHARED_AGGREGATION_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_governor.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/aggregates.h"
#include "exec/binder.h"
#include "exec/column_batch.h"

namespace streamrel::stream {

/// The paper's "jellybean processing" engine: one pass over the arriving
/// stream computes, simultaneously, the partial aggregates that many
/// continuous queries need (Sections 2.2 and 5; the technique follows the
/// paned/paired-window decomposition of [Krishnamurthy et al., SIGMOD'06]).
///
/// A sliding window <VISIBLE V ADVANCE A> decomposes into disjoint
/// *slices* of width gcd(V, A). Each arriving row updates the per-group
/// aggregate states of its slice exactly once; when a window closes, the
/// V/gcd slices it covers are merged. CQs over the same stream with the
/// same filter and grouping — even with different window widths, as long as
/// the slice width divides both — share one SliceAggregator, so N dashboard
/// metrics cost one update per row instead of N.
///
/// The aggregate-call list is the union across member CQs; each member gets
/// a slot mapping from its calls into the union.
class SliceAggregator {
 public:
  /// `filter` (nullable) and `group_exprs` are bound against the stream
  /// schema; `slice_width_micros` must divide every member window's VISIBLE
  /// and ADVANCE.
  SliceAggregator(int64_t slice_width_micros, exec::BoundExprPtr filter,
                  std::vector<exec::BoundExprPtr> group_exprs);
  ~SliceAggregator();

  /// Charges group-state bytes (kAggregator account) to `governor` from
  /// now on. Existing state is charged immediately; nullptr detaches and
  /// releases.
  void BindGovernor(MemoryGovernor* governor);

  /// Registers a member CQ's aggregate calls; calls with a display name
  /// already in the union are shared, new ones are appended. Appending is
  /// only allowed while no rows have been absorbed (a later CQ with new
  /// aggregates gets its own aggregator — its history cannot be
  /// backfilled). Returns the union slot of each call, in order.
  Result<std::vector<size_t>> RegisterCalls(
      std::vector<exec::AggregateCall> calls);

  /// Records that a member CQ left (dropped); returns the live members
  /// that remain. The union keeps the leaver's calls.
  int64_t RemoveMember() { return --member_cqs_; }

  /// True if RegisterCalls(calls) would succeed: either the pipeline has
  /// absorbed nothing yet, or every call's display name is already in the
  /// union.
  bool CanAccept(const std::vector<exec::AggregateCall>& calls) const;

  /// Absorbs rows batch[sel[p]] for p in [from, to) into their slices
  /// (ts[p] / slice_width; `ts[p]` is row sel[p]'s CQTIME, non-decreasing
  /// over the range — arrival order). A slice keeps its groups in
  /// first-arrival order, so absorbing a run in one call or row by row
  /// leaves identical state. Group keys and aggregate arguments that are
  /// plain column references are read from the batch; anything else is
  /// evaluated into a column first, once per batch, so an evaluation
  /// error leaves every slice untouched. Each slice's run then goes through
  /// its exec::AggregateTable: one group-resolve pass, one kernel per call.
  Status AddBatch(const exec::ColumnBatch& batch,
                  const exec::SelectionVector& sel,
                  const std::vector<int64_t>& ts, size_t from, size_t to);

  /// Produces the aggregated relation for the window [close - visible,
  /// close). With `slots == nullptr`, rows are laid out as
  /// [group keys..., all union aggregate results...]; otherwise only the
  /// requested union slots are merged and finalized, in the given order —
  /// a member CQ passes its slot mapping so it never pays for aggregates
  /// other members registered. With no group keys, exactly one row is
  /// produced (possibly from zero input). `visible` must be a multiple of
  /// the slice width. A window of one slice is finalized straight from
  /// that slice's table; several are merged, in time order, into a scratch
  /// table first. Every call counts one merge in window_merges().
  Result<std::vector<Row>> ComputeWindow(
      int64_t close, int64_t visible,
      const std::vector<size_t>* slots = nullptr) const;

  /// Drops slices that no member window can reference.
  void EvictBefore(int64_t ts);

  int64_t slice_width() const { return slice_width_; }
  size_t union_call_count() const { return calls_.size(); }
  size_t live_slices() const {
    return static_cast<size_t>(
        live_slice_count_.load(std::memory_order_relaxed));
  }
  int64_t rows_absorbed() const {
    return rows_absorbed_.load(std::memory_order_relaxed);
  }
  /// Live member CQs (registered and not yet removed). One means
  /// dedicated; more means the per-row work and the window close are
  /// genuinely shared. Mutated only under the exclusive engine lock.
  int64_t member_cqs() const { return member_cqs_; }

  /// Window merges performed (ComputeWindow calls): one per member close
  /// on a dedicated pipeline, one per (close, VISIBLE) in a close step on
  /// a shared one.
  int64_t window_merges() const {
    return window_merges_.load(std::memory_order_relaxed);
  }
  /// Member closes served from another member's identical evaluation in
  /// the same close step.
  int64_t evals_reused() const {
    return evals_reused_.load(std::memory_order_relaxed);
  }
  void NoteEvalReused() {
    evals_reused_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records that a member window needs `visible` micros of history;
  /// eviction keeps max over members.
  void NoteWindowVisible(int64_t visible) {
    if (visible > max_visible_) max_visible_ = visible;
  }
  int64_t max_visible() const { return max_visible_; }

 private:
  struct Slice {
    explicit Slice(exec::AggregateTable t) : table(std::move(t)) {}
    exec::AggregateTable table;
    /// Governor charge attributed to this slice's groups; released whole
    /// when the slice is evicted.
    int64_t bytes = 0;
  };

  /// True once any row or slice exists — the point after which the call
  /// union is frozen.
  bool HasAbsorbed() const {
    return rows_absorbed() > 0 || !slices_.empty();
  }

  /// Where AddBatch reads each group key and call argument, built lazily on
  /// first AddBatch. The call union freezes once absorption starts
  /// (RegisterCalls refuses new slots), so the cache only rebuilds when a
  /// member registered more union calls before any rows arrived.
  struct BatchKernels {
    exec::VectorPredicate filter;
    /// A plain column reference reads the batch column; anything else is
    /// evaluated, once per batch, into column `col` of the computed batch.
    struct Source {
      enum class Kind { kNone, kColumn, kComputed };
      Kind kind = Kind::kNone;
      size_t col = 0;
    };
    std::vector<Source> keys;
    std::vector<Source> args;  // one per union call slot
    std::vector<const exec::BoundExpr*> computed;
  };
  void EnsureBatchKernels();

  void ReleaseAllCharges();

  const int64_t slice_width_;
  exec::BoundExprPtr filter_;
  std::vector<exec::BoundExprPtr> group_exprs_;
  std::vector<exec::AggregateCall> calls_;  // the union
  std::vector<exec::AggKind> kinds_;        // one per union call
  std::map<int64_t, Slice> slices_;         // keyed by slice start time
  // Atomics: bumped under the owning stream's ingest lock, but read by
  // concurrent SHOW STATS holding only the shared engine lock. live_slice_count_ mirrors slices_.size() so
  // observability never has to walk the map a writer may be growing.
  std::atomic<int64_t> rows_absorbed_{0};
  std::atomic<int64_t> live_slice_count_{0};
  mutable std::atomic<int64_t> window_merges_{0};
  std::atomic<int64_t> evals_reused_{0};
  int64_t max_visible_ = 0;
  int64_t member_cqs_ = 0;

  MemoryGovernor* governor_ = nullptr;
  int64_t bytes_held_ = 0;
  std::unique_ptr<BatchKernels> kernels_;  // see EnsureBatchKernels
  /// AddBatch-local staging, kept across calls to avoid reallocating per
  /// batch. Safe: AddBatch runs under the stream's ingest lock.
  std::vector<uint32_t> positions_;
  std::vector<exec::RowIndex> rows_;      // batch row per absorbed position
  std::vector<exec::RowIndex> identity_;  // computed-batch row per position
  std::vector<size_t> hashes_;
  std::vector<exec::CellSource> key_sources_;
  std::vector<exec::CellSource> arg_sources_;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_SHARED_AGGREGATION_H_
