#include "storage/transaction.h"

namespace streamrel::storage {

TxnId TransactionManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  TxnId id = next_txn_++;
  txns_[id] = TxnRecord{};
  return id;
}

Result<uint64_t> TransactionManager::Commit(TxnId txn,
                                            int64_t commit_time_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("commit of unknown transaction");
  }
  if (it->second.state != TxnState::kActive) {
    return Status::Aborted("transaction is not active");
  }
  it->second.state = TxnState::kCommitted;
  it->second.commit_seq = next_commit_seq_++;
  it->second.commit_time = commit_time_micros;
  auto& slot = commit_time_index_[commit_time_micros];
  if (it->second.commit_seq > slot) slot = it->second.commit_seq;
  return it->second.commit_seq;
}

Status TransactionManager::Abort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("abort of unknown transaction");
  }
  if (it->second.state != TxnState::kActive) {
    return Status::Aborted("transaction is not active");
  }
  it->second.state = TxnState::kAborted;
  return Status::OK();
}

bool TransactionManager::IsCommitted(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.state == TxnState::kCommitted;
}

bool TransactionManager::IsAborted(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.state == TxnState::kAborted;
}

Snapshot TransactionManager::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{next_commit_seq_ - 1};
}

Snapshot TransactionManager::SnapshotAsOf(int64_t time_micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The commit-time index is monotone in commit_seq for our writers
  // (channel appends carry non-decreasing window-close times), so the
  // largest entry with time <= time_micros bounds the visible set.
  auto it = commit_time_index_.upper_bound(time_micros);
  if (it == commit_time_index_.begin()) return Snapshot{0};
  --it;
  return Snapshot{it->second};
}

bool TransactionManager::CommittedInLocked(TxnId txn, const Snapshot& snap,
                                           TxnId reader) const {
  if (txn == reader && txn != kInvalidTxn) return true;  // own writes
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.state == TxnState::kCommitted &&
         it->second.commit_seq <= snap.commit_seq_high_water;
}

bool TransactionManager::CommittedIn(TxnId txn, const Snapshot& snap,
                                     TxnId reader) const {
  std::lock_guard<std::mutex> lock(mu_);
  return CommittedInLocked(txn, snap, reader);
}

bool TransactionManager::IsVisible(TxnId xmin, TxnId xmax,
                                   const Snapshot& snap, TxnId reader) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!CommittedInLocked(xmin, snap, reader)) return false;
  return xmax == kInvalidTxn || !CommittedInLocked(xmax, snap, reader);
}

uint64_t TransactionManager::last_commit_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_commit_seq_ - 1;
}

Result<int64_t> TransactionManager::CommitTime(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.state != TxnState::kCommitted) {
    return Status::NotFound("transaction has no commit time");
  }
  return it->second.commit_time;
}

}  // namespace streamrel::storage
