#ifndef STREAMREL_STORAGE_TRANSACTION_H_
#define STREAMREL_STORAGE_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace streamrel::storage {

using TxnId = uint64_t;
inline constexpr TxnId kInvalidTxn = 0;

/// A point-in-time view of the database used for MVCC visibility checks.
///
/// Ordinary snapshot queries use a sequence snapshot (everything committed
/// when the query started). Continuous queries use *window-consistent*
/// time snapshots (Section 4 of the paper): each transaction carries a
/// commit time; a CQ evaluating the window closing at time T sees exactly
/// the transactions with commit_time <= T. Channel appends commit with
/// commit_time = window close, so "history as of one window ago" is
/// well-defined.
struct Snapshot {
  /// Transactions with commit_seq <= this are visible.
  uint64_t commit_seq_high_water = 0;
};

/// Tracks transaction states, commit sequence numbers, and commit times.
/// Thread-safe; the engine's runtime is single-threaded but tests and
/// benchmarks may drive ingest and queries from different threads.
class TransactionManager {
 public:
  TransactionManager() = default;

  /// Starts a transaction and returns its id.
  TxnId Begin();

  /// Commits `txn` with the given logical commit time (micros). Returns the
  /// assigned commit sequence number.
  Result<uint64_t> Commit(TxnId txn, int64_t commit_time_micros);

  Status Abort(TxnId txn);

  bool IsCommitted(TxnId txn) const;
  bool IsAborted(TxnId txn) const;

  /// Snapshot covering everything committed so far.
  Snapshot CurrentSnapshot() const;

  /// Window-consistency snapshot: covers exactly the transactions whose
  /// commit_time <= `time_micros`.
  Snapshot SnapshotAsOf(int64_t time_micros) const;

  /// True if the version stamped by `xmin`/`xmax` is visible in `snap` to
  /// transaction `reader` (a transaction always sees its own writes).
  bool IsVisible(TxnId xmin, TxnId xmax, const Snapshot& snap,
                 TxnId reader = kInvalidTxn) const;

  /// True if `txn` is committed in `snap`, or is `reader` itself.
  bool CommittedIn(TxnId txn, const Snapshot& snap, TxnId reader) const;

  /// Commit time (micros) of a committed transaction, or kNotFound if the
  /// transaction is unknown, active, or aborted. Subscription resume uses
  /// this to group a channel table's rows back into the windows that
  /// produced them: channel batches commit with commit_time = window close.
  Result<int64_t> CommitTime(TxnId txn) const;

 private:
  // Caller holds mu_.
  bool CommittedInLocked(TxnId txn, const Snapshot& snap, TxnId reader) const;

  enum class TxnState { kActive, kCommitted, kAborted };
  struct TxnRecord {
    TxnState state = TxnState::kActive;
    uint64_t commit_seq = 0;
    int64_t commit_time = 0;
  };

  mutable std::mutex mu_;
  TxnId next_txn_ = 1;
  uint64_t next_commit_seq_ = 1;
  std::unordered_map<TxnId, TxnRecord> txns_;
  /// commit_time -> highest commit_seq at that time (sorted for AsOf).
  std::map<int64_t, uint64_t> commit_time_index_;
};

/// Snapshot visibility for the length of one read: asks the manager once
/// per transaction and remembers the answer. Sound because, for a fixed
/// snapshot and reader, whether a transaction counts as committed never
/// changes: committed and aborted are final states, and a transaction that
/// commits after the snapshot was taken gets a commit_seq above the
/// snapshot's high-water mark. Answers live in a small direct-mapped table
/// indexed by TxnId, so a read allocates nothing; when two transactions
/// share a slot, the evicted one is asked again and gets the same answer.
class VisibilityMemo {
 public:
  VisibilityMemo(const TransactionManager& txns, const Snapshot& snap,
                 TxnId reader)
      : txns_(txns), snap_(snap), reader_(reader) {}

  /// The answer TransactionManager::IsVisible gives.
  bool IsVisible(TxnId xmin, TxnId xmax) {
    return Committed(xmin) && (xmax == kInvalidTxn || !Committed(xmax));
  }

 private:
  struct Slot {
    TxnId txn = kInvalidTxn;
    bool committed = false;
  };
  // Consecutive TxnIds (one channel transaction per window close) land in
  // distinct slots.
  static constexpr size_t kSlots = 64;

  bool Committed(TxnId txn) {
    Slot& slot = slots_[txn % kSlots];
    if (slot.txn != txn) {
      slot = Slot{txn, txns_.CommittedIn(txn, snap_, reader_)};
    }
    return slot.committed;
  }

  const TransactionManager& txns_;
  const Snapshot snap_;
  const TxnId reader_;
  Slot slots_[kSlots];
};

}  // namespace streamrel::storage

#endif  // STREAMREL_STORAGE_TRANSACTION_H_
