#ifndef STREAMREL_STREAM_RUNTIME_H_
#define STREAMREL_STREAM_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/memory_governor.h"
#include "common/rwlock.h"
#include "common/status.h"
#include "exec/column_batch.h"
#include "storage/transaction.h"
#include "storage/wal.h"
#include "stream/channel.h"
#include "stream/continuous_query.h"
#include "stream/metrics.h"
#include "stream/window_operator.h"

namespace streamrel::stream {

/// What ingest does with a batch that would push buffered state past the
/// memory budget (SET OVERLOAD POLICY <stream> ...).
enum class OverloadPolicy {
  kBlock,       // lossless: bounded wait for headroom, then admit anyway
  kShedNewest,  // keep the batch head that fits, drop the newest rows
  kShedOldest,  // keep the batch tail that fits, drop the oldest rows
};

const char* OverloadPolicyName(OverloadPolicy policy);

/// The continuous-analytics dataflow engine: routes arriving stream rows
/// through shared slice aggregators and per-CQ window operators, fires
/// window closes as the watermark advances, cascades derived-stream
/// batches downstream, and drives channels into active tables.
///
/// Ingest has one body, one serial pass per batch: every ingest — row
/// vectors, wire ColumnBatches and dead-letter flushes — becomes a
/// ColumnBatch that IngestBatch validates and DispatchBatch feeds to the
/// stream's subscriptions. Shared pipelines absorb it batch-at-a-time;
/// generic and ROWS-window CQs take their rows from one lazy
/// materialization of the admitted rows.
///
/// Threading (DESIGN decision 11). Structural mutation (create/drop/
/// subscribe/set) happens only under the Database's exclusive engine
/// lock; data-plane entry points run under a shared hold. Within a shared
/// hold:
///   - Ingest/AdvanceTime serialize per stream on that stream's ranked
///     OrderedMutex (rank kStream), so disjoint streams ingest fully
///     concurrently;
///   - channel sinks take the DML lock (rank kDml) per delivery attempt,
///     serializing against SQL writes to the same tables;
///   - the stream map itself is guarded by an unranked leaf mutex held
///     only for lookups/inserts.
/// Reads of structure that only exclusive holders mutate (subscription
/// vectors, the CQ/channel maps, policy knobs) are done lock-free from
/// shared holders; the engine rwlock provides the happens-before edge.
class StreamRuntime {
 public:
  StreamRuntime(catalog::Catalog* catalog,
                storage::TransactionManager* txns,
                storage::WriteAheadLog* wal);

  // --- lifecycle of continuous objects ------------------------------------

  /// Registers a raw or derived stream that already exists in the catalog.
  /// Safe to call concurrently (ingest registers streams lazily under a
  /// shared engine hold).
  Status RegisterStream(const std::string& name);

  /// Creates and starts a named CQ over `stmt`. `allow_shared` gates the
  /// shared slice-aggregation strategy (benchmarks flip it off to measure
  /// the sharing win).
  Result<ContinuousQuery*> CreateCq(const std::string& name,
                                    const sql::SelectStmt& stmt,
                                    bool allow_shared = true);

  Status DropCq(const std::string& name);
  ContinuousQuery* GetCq(const std::string& name);

  /// Instantiates the always-on CQ behind a derived stream (the catalog
  /// entry, including the defining query, must already exist). Output
  /// batches are re-published to the derived stream's subscribers.
  Status StartDerivedStream(const std::string& name);

  /// Creates the channel (catalog entry must exist) and subscribes it to
  /// its source stream.
  Status StartChannel(const std::string& name);
  Channel* GetChannel(const std::string& name);

  /// Stops a running channel (detaches it from its source stream).
  Status StopChannel(const std::string& name);

  /// Non-empty if the stream has live consumers (CQs, channels, or client
  /// subscriptions); the returned text names one of them.
  std::string StreamInUseBy(const std::string& stream) const;

  /// Non-empty if a running CQ's plan or a channel targets `table`.
  std::string TableInUseBy(const std::string& table) const;

  /// Drops runtime state for a stream with no consumers.
  Status UnregisterStream(const std::string& name);

  /// Client subscription to a stream's batches (derived streams deliver
  /// their CQ output; raw streams deliver ingested rows). Returns an id
  /// that UnsubscribeStream accepts (network sessions come and go while
  /// the stream lives).
  Result<int64_t> SubscribeStream(const std::string& stream,
                                  CqCallback callback);

  /// Detaches a client subscription by id; unknown ids are a no-op.
  Status UnsubscribeStream(const std::string& stream, int64_t id);

  // --- data ----------------------------------------------------------------

  /// Ingests ordered rows into a raw stream. CQTIME USER streams read each
  /// row's timestamp column; CQTIME SYSTEM streams are stamped with
  /// `system_time` (required > current watermark). Serializes on the
  /// stream's own ingest lock; disjoint streams proceed in parallel. The
  /// rows are packed into a ColumnBatch; a row of the wrong arity is kept
  /// torn and quarantined in place.
  Status Ingest(const std::string& stream, const std::vector<Row>& rows,
                int64_t system_time = INT64_MIN);

  /// Columnar ingest: same contract as the row overload, but the rows
  /// arrive already in columnar layout (the network INGEST_BATCH decoder
  /// fills a ColumnBatch directly, skipping Row materialization). A batch
  /// whose width differs from the stream's is all torn: every row
  /// quarantines exactly as it would from a row vector.
  Status Ingest(const std::string& stream, exec::ColumnBatch&& batch,
                int64_t system_time = INT64_MIN);

  /// Heartbeat: advances a raw stream's watermark without data, closing due
  /// windows (and cascading empty results downstream). Derived streams are
  /// refused, as for Ingest.
  Status AdvanceTime(const std::string& stream, int64_t watermark);

  int64_t watermark(const std::string& stream) const;

  /// The table-write lock (rank kDml): Database DML statements and channel
  /// sink deliveries serialize on it so multi-structure table writes
  /// (heap + indexes + WAL) stay consistent under concurrency.
  OrderedMutex* dml_mutex() { return &dml_mu_; }

  // --- overload protection ----------------------------------------------------

  /// The engine-wide byte ledger (window buffers, aggregator groups,
  /// in-flight batches, reorder buffers charge into it).
  MemoryGovernor* governor() { return &governor_; }
  const MemoryGovernor* governor() const { return &governor_; }

  /// SET MEMORY LIMIT <bytes>; 0 = unlimited (the default).
  void SetMemoryBudget(int64_t bytes) { governor_.SetBudget(bytes); }

  /// SET OVERLOAD POLICY <stream> BLOCK|SHED_NEWEST|SHED_OLDEST. The
  /// stream is registered if needed.
  Status SetOverloadPolicy(const std::string& stream, OverloadPolicy policy);
  OverloadPolicy overload_policy(const std::string& stream) const;

  /// SET RETRY LIMIT <n>: total sink attempts per batch, >= 1. The
  /// default 1 means no retries (transient failures surface immediately,
  /// exactly as before this knob existed).
  Status SetRetryLimit(int64_t attempts);
  int64_t retry_limit() const {
    return retry_limit_.load(std::memory_order_relaxed);
  }
  /// SET RETRY BACKOFF <micros>: first retry delay; doubles per attempt
  /// (plus deterministic jitter).
  Status SetRetryBackoff(int64_t micros);
  int64_t retry_backoff_micros() const {
    return retry_backoff_micros_.load(std::memory_order_relaxed);
  }

  /// Bound on how long a BLOCK-policy ingest waits for headroom before
  /// admitting anyway (BLOCK is lossless; it trades latency, not rows).
  void SetBlockTimeoutMicros(int64_t micros) {
    block_timeout_micros_.store(micros < 0 ? 0 : micros,
                                std::memory_order_relaxed);
  }
  int64_t block_timeout_micros() const {
    return block_timeout_micros_.load(std::memory_order_relaxed);
  }

  /// Per-stream admission accounting. Invariant for every batch pushed
  /// through Ingest: pushed == admitted + shed + quarantined (plus any
  /// rows lost to a genuine mid-batch error, which fails the call).
  struct OverloadCounters {
    int64_t rows_admitted = 0;
    int64_t rows_shed = 0;
    int64_t rows_quarantined = 0;
    int64_t blocked_micros = 0;
  };
  OverloadCounters overload_counters(const std::string& stream) const;

  int64_t sink_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  int64_t sink_retries_exhausted() const {
    return retries_exhausted_.load(std::memory_order_relaxed);
  }
  /// Quarantine rows dropped because the quarantine stream itself could
  /// not accept them (never fails the source batch).
  int64_t quarantine_dropped() const {
    return quarantine_dropped_.load(std::memory_order_relaxed);
  }

  /// Dead-letter stream name for `stream` (lowercased base +
  /// ".__quarantine").
  static std::string QuarantineName(const std::string& stream);
  /// True if `name` is some stream's dead-letter stream.
  static bool IsQuarantineName(const std::string& name);

  /// Creates (in the catalog, if missing) and registers the dead-letter
  /// stream for `stream`. Schema: (qtime timestamp CQTIME USER,
  /// reason varchar, detail varchar, row_data varchar).
  Status EnsureQuarantineStream(const std::string& stream);

  // --- recovery support ------------------------------------------------------

  /// Serializes a generic CQ's window-operator state (checkpoint strategy).
  /// Shared-strategy CQs return NotImplemented: their data lives in the
  /// slice aggregator, so a window-operator blob would restore empty.
  /// Recovery entry points run under the exclusive engine lock.
  Result<std::string> SerializeCqState(const std::string& name) const;
  Status RestoreCqState(const std::string& name, const std::string& blob);

  /// Resets a CQ to resume cleanly from `watermark` (active-table
  /// strategy): buffered state is dropped and windows closing at or before
  /// the watermark are evaluated but not re-delivered.
  Status ResetCqToWatermark(const std::string& name, int64_t watermark);

  /// Suppresses re-delivery at or before `watermark` WITHOUT touching the
  /// window operator — for CQs whose operator state was just restored from
  /// a checkpoint blob and must keep its buffered rows.
  Status SetCqEmitWatermark(const std::string& name, int64_t watermark);

  std::vector<std::string> CqNames() const;

  /// Rows ingested across all raw streams (benchmark accounting).
  int64_t rows_ingested() const {
    return rows_ingested_.load(std::memory_order_relaxed);
  }

  catalog::Catalog* catalog() { return catalog_; }

  // --- observability ---------------------------------------------------------

  MetricsRegistry* metrics() { return &metrics_; }
  const MetricsRegistry* metrics() const { return &metrics_; }

  /// Pulls structural state (live slices, pipeline membership, subscriber
  /// counts, watermarks, object counts) into registry gauges. Hot-path
  /// counters are pushed inline; call this before taking a Snapshot so the
  /// pull-style gauges are current too. Runs safely under a shared engine
  /// hold concurrent with ingest.
  void RefreshMetricsGauges();

  /// Lock-contention accounting for the internal ranked locks, surfaced
  /// under `engine/lock` in SHOW STATS.
  const OrderedMutex* dml_lock() const { return &dml_mu_; }
  /// Sums acquisitions/contended over every per-stream ingest lock.
  void StreamLockStats(int64_t* acquisitions, int64_t* contended) const;

 private:
  struct Subscription {
    ContinuousQuery* cq = nullptr;  // owned by cqs_
    std::unique_ptr<WindowOperator> window_op;
    /// False for shared-strategy CQs: rows flow through the slice
    /// aggregator; the window operator only schedules closes.
    bool feed_rows = true;
  };

  struct PendingQuarantine {
    std::string stream;  // base stream the row was rejected from
    Row row;             // (qtime, reason, detail, row_data)
  };

  /// Per-stream runtime state. Held by pointer in `streams_` so the ingest
  /// lock (non-movable) and pointers handed out under `maps_mu_` stay
  /// stable across concurrent registrations.
  struct StreamState {
    catalog::StreamInfo* info = nullptr;
    /// The stream's ingest lock (rank kStream). Same-rank nesting is
    /// allowed: a derived-stream cascade locks the downstream stream while
    /// holding the upstream one, and cascades form a forest, so cross-chain
    /// deadlock is impossible.
    OrderedMutex mu{LockRank::kStream, /*allow_same_rank=*/true,
                    "stream ingest"};
    /// Watermark is written only by the ingest-lock holder but read by
    /// observability and admission paths that hold no stream lock.
    std::atomic<int64_t> watermark{INT64_MIN};
    std::vector<Subscription> subs;
    std::vector<Channel*> channels;        // owned by channels_
    struct ClientSub {
      int64_t id = 0;
      CqCallback callback;
    };
    std::vector<ClientSub> client_subs;
    // Cached metric cells (owned by metrics_; stable until the stream is
    // unregistered). Bound in RegisterStream.
    Counter* rows_ingested_metric = nullptr;
    Counter* batches_published_metric = nullptr;
    Counter* rows_published_metric = nullptr;
    Gauge* watermark_metric = nullptr;
    /// Overload admission state. The policy is mutated only under the
    /// exclusive engine lock, but a network subscriber flushing the pushes
    /// held before its ack reads it with no engine lock; counters are
    /// bumped under the ingest lock but read by SHOW STATS with no stream
    /// lock. Hence all atomic.
    std::atomic<OverloadPolicy> policy{OverloadPolicy::kBlock};
    struct AtomicOverload {
      std::atomic<int64_t> rows_admitted{0};
      std::atomic<int64_t> rows_shed{0};
      std::atomic<int64_t> rows_quarantined{0};
      std::atomic<int64_t> blocked_micros{0};
    };
    AtomicOverload overload;
    /// Dead-letter rows collected while this stream's ingest lock is held;
    /// swapped out and published when the outermost ingest on this stream
    /// unwinds (guarded by `mu`).
    std::vector<PendingQuarantine> pending_quarantine;
    /// Nesting depth of ingest on this stream (delivery callbacks may
    /// re-enter); guarded by `mu`.
    int ingest_depth = 0;
  };

  StreamState* GetState(const std::string& name);
  const StreamState* GetState(const std::string& name) const;

  /// Delivers a produced batch to a (derived) stream's subscribers. Locks
  /// the derived stream's ingest mutex (nested under the source stream's —
  /// legal same-rank nesting along a cascade).
  Status PublishBatch(const std::string& stream, int64_t close,
                      const std::vector<Row>& rows);

  /// One close step: runs `advance(sub, &closed)` on each of `state`'s
  /// subscriptions in order and evaluates the windows it closes through
  /// one CloseMemo, which dies with the step. Every row, heartbeat and
  /// published batch goes through here.
  template <typename Advance>
  Status CloseStep(StreamState* state, Advance&& advance);

  Status AttachCqSubscription(ContinuousQuery* cq);

  /// Registers `stream` if needed and returns its state. Derived streams
  /// are refused: their data comes from their defining query, so neither
  /// ingest nor a heartbeat may drive them.
  Result<StreamState*> RawStreamState(const std::string& stream);

  /// Locking skeleton for every ingest: resolves the raw stream, rejects
  /// CQTIME SYSTEM without an ingest time, takes the stream's ingest lock,
  /// runs `body`, and flushes the stream's pending dead-letter rows after
  /// releasing the lock.
  Status IngestLocked(const std::string& stream, int64_t system_time,
                      const std::function<Status(StreamState*)>& body);

  /// The ingest body: admission, then pass 1 over the batch's own cells —
  /// the arity check, CQTIME validation, the late check, and CQTIME SYSTEM
  /// stamping, quarantining rejects in order — then DispatchBatch.
  /// `quarantine_flush` marks re-entry from FlushQuarantine: admission is
  /// bypassed and rejected rows are dropped (counted) instead of
  /// recursing.
  Status IngestBatch(StreamState* state, exec::ColumnBatch&& batch,
                     int64_t system_time, bool quarantine_flush);

  /// Pass 2: replays the admitted rows batch[sel[p]] (timestamps ts[p])
  /// through the stream's close steps. Without row-fed subscriptions only
  /// rows that can close a window are steps; with one, every row is.
  /// Shared pipelines absorb batch-at-a-time, each run of rows right
  /// before the next shared close, so every subscriber observes exact
  /// per-row semantics. Then runs FinishIngest.
  Status DispatchBatch(StreamState* state, const exec::ColumnBatch& batch,
                       const exec::SelectionVector& sel,
                       const std::vector<int64_t>& ts);

  /// The ingest tail: counts the `n` admitted rows, evicts slices no live
  /// window can reference, and hands the admitted rows to raw-stream
  /// channels and client subscriptions. `admitted` returns those rows,
  /// materializing them if no row-fed subscription already has; it runs
  /// only when a channel or client subscription listens.
  Status FinishIngest(
      StreamState* state, size_t n,
      const std::function<const std::vector<Row>&()>& admitted);

  /// Drops slices no live window of `state`'s pipelines can reference at
  /// `watermark`; a no-op while the watermark is unset (INT64_MIN).
  void EvictSlices(const StreamState& state, int64_t watermark);

  /// Admission pre-pass over an n-row batch whose row i is estimated at
  /// `row_bytes(i)` bytes: decides the contiguous [*begin, *end) slice
  /// that gets in under the current policy/headroom and counts the rest as
  /// shed. No-op (full batch) when under budget.
  void AdmitBatch(StreamState* state, size_t n,
                  const std::function<int64_t(size_t)>& row_bytes,
                  size_t* begin, size_t* end);

  /// BLOCK-policy wait: polls for `total` bytes of headroom within the
  /// block timeout, charging the wait to the stream's blocked_micros.
  void BlockForHeadroom(StreamState* state, int64_t total);

  /// Records one rejected row into the stream's pending dead-letter batch
  /// (flushed when the outermost ingest on the stream returns).
  void QuarantineRow(StreamState* state, const char* reason,
                     std::string detail, const Row& row,
                     bool quarantine_flush);
  /// Publishes a swapped-out dead-letter batch. Called with no ranked
  /// locks held: each row is a one-row IngestBatch into the dead-letter
  /// stream (marked quarantine_flush so it can never recurse).
  void FlushQuarantine(std::vector<PendingQuarantine> batch);

  /// Runs `op` with bounded retry on transient (kIoError, non-crash)
  /// failures: retry-limit total attempts, exponential backoff with
  /// deterministic jitter between them. Each attempt runs under the DML
  /// lock; backoff sleeps run with it released.
  Status WithSinkRetry(const std::function<Status()>& op);

  catalog::Catalog* catalog_;
  storage::TransactionManager* txns_;
  storage::WriteAheadLog* wal_;

  /// Leaf mutex guarding the structure of `streams_` (lookups and lazy
  /// registration insert under a shared engine hold). StreamState objects
  /// are heap-allocated, so pointers survive concurrent inserts; erases
  /// happen only under the exclusive engine lock.
  mutable std::mutex maps_mu_;
  std::map<std::string, std::unique_ptr<StreamState>> streams_;  // lowercase
  std::atomic<int64_t> next_client_sub_id_{1};
  std::map<std::string, std::unique_ptr<ContinuousQuery>> cqs_;
  std::map<std::string, std::unique_ptr<Channel>> channels_;
  SliceAggregatorRegistry registry_;
  std::atomic<int64_t> rows_ingested_{0};
  MetricsRegistry metrics_;
  Counter* engine_rows_metric_ = nullptr;  // engine-wide ingest total

  /// Serializes table writes (rank kDml): SQL DML and channel sinks.
  OrderedMutex dml_mu_{LockRank::kDml, /*allow_same_rank=*/false,
                       "table dml"};

  // --- overload protection state ---
  MemoryGovernor governor_;
  std::atomic<int64_t> retry_limit_{1};  // total attempts; 1 = no retries
  std::atomic<int64_t> retry_backoff_micros_{1000};  // first retry delay
  std::atomic<int64_t> block_timeout_micros_{10000};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> retries_exhausted_{0};
  std::atomic<int64_t> quarantine_dropped_{0};
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_RUNTIME_H_
