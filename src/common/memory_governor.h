#ifndef STREAMREL_COMMON_MEMORY_GOVERNOR_H_
#define STREAMREL_COMMON_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace streamrel {

using Row = std::vector<Value>;

/// Deterministic size model for admission accounting. Not the allocator's
/// truth — a stable estimate (struct size + string payload) so the same
/// workload charges the same bytes on every platform and every run.
int64_t EstimateValueBytes(const Value& v);
int64_t EstimateRowBytes(const Row& row);

/// Central byte-accounting ledger for everything the streaming runtime
/// buffers: window operator rows, shared-slice aggregator groups,
/// in-flight ingest batches, reorder-buffer rows, and network send
/// queues. Components charge on retain and release on evict/drop; the
/// admission controller in StreamRuntime::Ingest consults held() vs. the
/// budget to decide whether a batch (or part of one) gets in.
///
/// Thread-safe: streams ingest concurrently and network connections
/// charge their send queues from their own threads, so all tallies are
/// atomics. A budget of 0 means unlimited (the default — existing tests
/// and workloads see no change).
///
/// The governor never blocks or fails a charge: enforcement happens only
/// at admission time, at batch granularity. That keeps every interior
/// code path (window close, fold, restore) infallible and means held()
/// can transiently exceed the budget by at most one batch's footprint —
/// the documented 1.2x-budget peak bound.
class MemoryGovernor {
 public:
  enum class Account {
    kWindow = 0,     // WindowOperator buffered rows
    kAggregator,     // SliceAggregator group keys + states
    kReorder,        // ReorderBuffer pending rows
    kNetSendQueue,   // frames queued for network subscribers
    kIngestBatch,    // in-flight ColumnBatch ingest payloads
  };
  static constexpr int kNumAccounts = 5;

  /// 0 = unlimited.
  void SetBudget(int64_t bytes) {
    budget_.store(bytes < 0 ? 0 : bytes, std::memory_order_relaxed);
  }
  int64_t budget() const { return budget_.load(std::memory_order_relaxed); }

  void Add(Account account, int64_t bytes) {
    if (bytes == 0) return;
    accounts_[Index(account)].fetch_add(bytes, std::memory_order_relaxed);
    int64_t now =
        held_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // CAS high-water mark; contention is rare (only on new peaks).
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void Release(Account account, int64_t bytes) {
    if (bytes == 0) return;
    accounts_[Index(account)].fetch_sub(bytes, std::memory_order_relaxed);
    held_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t held() const { return held_.load(std::memory_order_relaxed); }
  int64_t held(Account account) const {
    return accounts_[Index(account)].load(std::memory_order_relaxed);
  }
  int64_t peak_held() const {
    return peak_.load(std::memory_order_relaxed);
  }

  bool over_budget() const {
    int64_t b = budget();
    return b > 0 && held() >= b;
  }
  /// Bytes admittable before the budget is hit; INT64_MAX when unlimited.
  int64_t headroom() const {
    int64_t b = budget();
    if (b == 0) return INT64_MAX;
    int64_t h = held();
    return h >= b ? 0 : b - h;
  }

  /// Test hook: forgets the peak (budget and held are untouched).
  void ResetPeak() { peak_.store(held(), std::memory_order_relaxed); }

 private:
  static int Index(Account a) { return static_cast<int>(a); }

  std::atomic<int64_t> budget_{0};
  std::atomic<int64_t> held_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> accounts_[kNumAccounts] = {};
};

}  // namespace streamrel

#endif  // STREAMREL_COMMON_MEMORY_GOVERNOR_H_
