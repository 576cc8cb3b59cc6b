#ifndef STREAMREL_STREAM_RECOVERY_H_
#define STREAMREL_STREAM_RECOVERY_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/transaction.h"
#include "storage/wal.h"
#include "stream/runtime.h"

namespace streamrel::stream {

/// The newest durable operator-state snapshot for one CQ.
struct CheckpointEntry {
  std::string blob;
  /// Source-stream watermark at checkpoint time: every row with a
  /// timestamp at or before this is already folded into the blob, so a
  /// re-feed after restore may start strictly past it.
  int64_t coverage = INT64_MIN;
};

/// What WAL replay reconstructed.
struct WalReplayResult {
  int64_t rows_inserted = 0;
  int64_t rows_deleted = 0;
  int64_t transactions_committed = 0;
  /// Last persisted window close per channel (lowercased name). Only
  /// progress records whose transaction committed count: a batch that
  /// failed mid-persist must not advance the recovered watermark, or its
  /// window would be lost forever.
  std::map<std::string, int64_t> channel_watermarks;
  /// Latest operator-state checkpoint per CQ (checkpoint strategy only).
  std::map<std::string, CheckpointEntry> latest_checkpoints;
  /// True when replay ended at a crash-damaged final record (clean stop,
  /// not an error — the synced prefix before it is intact).
  bool stopped_at_torn_tail = false;
  bool stopped_at_corrupt_tail = false;
};

/// Incremental WAL application: feeds records one at a time into a live
/// engine, carrying open-transaction state (txn-id remapping, commit-gated
/// channel progress) across calls. This is ReplayWal's engine factored out
/// so a hot standby can replay continuously as replication frames arrive,
/// not just in one pass at startup. Finish() aborts whatever is still open
/// (end-of-log orphans) and must be called exactly once, before the engine
/// serves traffic — e.g. at standby promotion.
class WalApplier {
 public:
  WalApplier(catalog::Catalog* catalog, storage::TransactionManager* txns)
      : catalog_(catalog), txns_(txns) {}

  /// Applies one durable record. Inserts/deletes run under remapped
  /// transactions that commit with their original commit times, so
  /// window-consistent snapshots behave identically after replay.
  Status Apply(const storage::WalRecord& record);

  /// Aborts transactions still open at end-of-log (crashed mid-flight;
  /// their rows stay invisible and their channel progress never applies).
  Status Finish();

  /// Running totals and channel watermarks accumulated so far. The tail
  /// flags are only meaningful when the caller drove a full-log Replay.
  const WalReplayResult& result() const { return result_; }
  WalReplayResult* mutable_result() { return &result_; }

 private:
  storage::TxnId MappedTxn(uint64_t old_id);

  catalog::Catalog* catalog_;
  storage::TransactionManager* txns_;
  WalReplayResult result_;
  std::unordered_map<uint64_t, storage::TxnId> txn_map_;
  // Channel progress is transactional: it takes effect only when its
  // transaction's commit record is reached. Applying it eagerly would let
  // a batch that failed mid-persist advance the recovered watermark and
  // silently lose its window.
  std::unordered_map<uint64_t, std::vector<std::pair<std::string, int64_t>>>
      pending_progress_;
};

/// Replays the WAL into freshly-created tables: inserts and deletes are
/// re-applied under new transactions that commit with their original
/// commit times, so window-consistent snapshots behave identically after
/// recovery. Transactions without a commit record are implicitly aborted
/// (their rows stay invisible) — the standard durability guarantee.
///
/// RowIds are stable across replay (tables start empty and every insert,
/// an aborted one's too, re-runs in order): logged deletes hit their rows.
Result<WalReplayResult> ReplayWal(catalog::Catalog* catalog,
                                  storage::TransactionManager* txns,
                                  const storage::WriteAheadLog& wal);

/// The *active-table* recovery strategy the paper advocates (Section 4):
/// no operator state is persisted at all. After WAL replay rebuilds the
/// durable tables and channel watermarks, each restarted CQ simply resumes
/// from its channel's watermark — window state is rebuilt from the data
/// already in the active tables / newly arriving rows, and windows at or
/// before the watermark are suppressed rather than re-delivered.
Status ResumeFromActiveTables(StreamRuntime* runtime,
                              const WalReplayResult& replay);

/// The conventional alternative: periodically serialize every generic
/// CQ's window operator state into the WAL, paying steady-state I/O; on
/// restart, restore the blobs. Shared-strategy CQs keep their data in the
/// slice aggregator, which has no serializable operator state — they are
/// skipped at checkpoint time and recovered the active-table way instead
/// (RestoreFromCheckpoints falls back per CQ). Benchmarked against
/// ResumeFromActiveTables in T5.
class CheckpointManager {
 public:
  CheckpointManager(StreamRuntime* runtime, storage::WriteAheadLog* wal)
      : runtime_(runtime), wal_(wal) {}

  /// Snapshots every generic CQ's operator state into the WAL, stamped
  /// with the source stream's watermark (the blob's coverage). Fault
  /// point: `checkpoint.write`.
  Status WriteCheckpoint();

  /// Restores CQ state from the latest checkpoint blobs, then resumes
  /// channels from their replayed watermarks: a CQ whose blob was
  /// restored keeps its buffered rows and only suppresses re-delivery of
  /// already-persisted windows; a CQ without a blob (shared strategy, or
  /// never checkpointed) is reset to the watermark as in
  /// ResumeFromActiveTables. A complete recovery strategy by itself — do
  /// NOT also call ResumeFromActiveTables, which would drop restored
  /// state.
  Status RestoreFromCheckpoints(const WalReplayResult& replay);

  int64_t checkpoints_written() const { return checkpoints_written_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  StreamRuntime* runtime_;
  storage::WriteAheadLog* wal_;
  int64_t checkpoints_written_ = 0;
  int64_t bytes_written_ = 0;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_RECOVERY_H_
