#ifndef STREAMREL_COMMON_RWLOCK_H_
#define STREAMREL_COMMON_RWLOCK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

namespace streamrel {

/// The engine lock hierarchy (DESIGN decision 11). Ranked locks must be
/// acquired in increasing rank order within a thread; debug builds abort on
/// a violation (see lockrank::OnAcquire). Same-rank nesting is legal only
/// where the wrapper opts in (stream locks nest along derived-stream
/// cascades, which form a forest, so cross-chain deadlock is impossible).
///
/// Fine-grained structure guards (runtime stream-map, catalog maps, metrics
/// registry, histogram cells) are deliberately NOT ranked: they are leaf
/// mutexes held for a few map operations with the invariant that no other
/// lock is ever acquired while one is held, so they can be taken from any
/// point in the hierarchy.
enum class LockRank : int {
  kEngine = 0,   // catalog/DDL reader-writer lock (Database)
  kSys = 1,      // sys_* introspection-table refresh
  kStream = 2,   // per-stream ingest locks
  kDml = 3,      // table-write serialization (DML + channel sinks)
};
inline constexpr int kNumLockRanks = 4;

/// Debug-build lock-order assertions. Thread-local hold counts per rank;
/// acquiring a lock whose rank is lower than one already held aborts with
/// a diagnostic. Compiled to no-ops in NDEBUG builds.
namespace lockrank {
#ifndef NDEBUG
void OnAcquire(LockRank rank, bool allow_same_rank, const char* what);
void OnRelease(LockRank rank);
#else
inline void OnAcquire(LockRank, bool, const char*) {}
inline void OnRelease(LockRank) {}
#endif
}  // namespace lockrank

/// The catalog/DDL reader-writer lock: DDL-class statements take it
/// exclusive; every other entry point takes it shared. Re-entrant in both
/// directions that are safe:
///   - shared under shared or exclusive is a no-op (CTAS runs ExecuteSelect
///     under the exclusive DDL hold; delivery callbacks re-enter data-plane
///     entry points while their ingest holds shared);
///   - exclusive under exclusive recurses.
/// Exclusive under shared is an upgrade — inherently deadlock-prone — and
/// aborts with a diagnostic (delivery callbacks must not run control-plane
/// statements; see DESIGN decision 11).
///
/// Tracks contention: acquisition counts plus how often (and for how long)
/// an acquisition had to block, surfaced under `engine/lock` in SHOW STATS.
class EngineRwLock {
 public:
  EngineRwLock() = default;
  EngineRwLock(const EngineRwLock&) = delete;
  EngineRwLock& operator=(const EngineRwLock&) = delete;
  ~EngineRwLock();

  void LockShared();
  void UnlockShared();
  void LockExclusive();
  void UnlockExclusive();

  int64_t shared_acquisitions() const {
    return shared_acquisitions_.load(std::memory_order_relaxed);
  }
  int64_t exclusive_acquisitions() const {
    return exclusive_acquisitions_.load(std::memory_order_relaxed);
  }
  int64_t shared_contended() const {
    return shared_contended_.load(std::memory_order_relaxed);
  }
  int64_t exclusive_contended() const {
    return exclusive_contended_.load(std::memory_order_relaxed);
  }
  int64_t shared_wait_micros() const {
    return shared_wait_micros_.load(std::memory_order_relaxed);
  }
  int64_t exclusive_wait_micros() const {
    return exclusive_wait_micros_.load(std::memory_order_relaxed);
  }

 private:
  struct TlsDepth {
    int shared = 0;
    int exclusive = 0;
  };
  /// This thread's re-entrancy depths for this lock instance.
  TlsDepth* Tls() const;
  void DropTls() const;

  std::shared_mutex mu_;
  std::atomic<int64_t> shared_acquisitions_{0};
  std::atomic<int64_t> exclusive_acquisitions_{0};
  std::atomic<int64_t> shared_contended_{0};
  std::atomic<int64_t> exclusive_contended_{0};
  std::atomic<int64_t> shared_wait_micros_{0};
  std::atomic<int64_t> exclusive_wait_micros_{0};
};

class SharedLockGuard {
 public:
  explicit SharedLockGuard(EngineRwLock* lock) : lock_(lock) {
    lock_->LockShared();
  }
  ~SharedLockGuard() { lock_->UnlockShared(); }
  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  EngineRwLock* lock_;
};

class ExclusiveLockGuard {
 public:
  explicit ExclusiveLockGuard(EngineRwLock* lock) : lock_(lock) {
    lock_->LockExclusive();
  }
  ~ExclusiveLockGuard() { lock_->UnlockExclusive(); }
  ExclusiveLockGuard(const ExclusiveLockGuard&) = delete;
  ExclusiveLockGuard& operator=(const ExclusiveLockGuard&) = delete;

 private:
  EngineRwLock* lock_;
};

/// A ranked recursive mutex with contention counters: the per-stream
/// ingest locks (rank kStream, same-rank nesting allowed for cascades),
/// the sys-refresh lock and the DML lock. Recursive because delivery
/// callbacks may legitimately re-enter the runtime on the thread that
/// drives ingest.
class OrderedMutex {
 public:
  OrderedMutex(LockRank rank, bool allow_same_rank, const char* name)
      : rank_(rank), allow_same_rank_(allow_same_rank), name_(name) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock();
  void unlock();

  int64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  int64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  std::recursive_mutex mu_;
  const LockRank rank_;
  const bool allow_same_rank_;
  const char* name_;
  std::atomic<int64_t> acquisitions_{0};
  std::atomic<int64_t> contended_{0};
};

}  // namespace streamrel

#endif  // STREAMREL_COMMON_RWLOCK_H_
