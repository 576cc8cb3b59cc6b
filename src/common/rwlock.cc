#include "common/rwlock.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace streamrel {

namespace lockrank {
#ifndef NDEBUG
namespace {
thread_local int g_held[kNumLockRanks] = {0};
}  // namespace

void OnAcquire(LockRank rank, bool allow_same_rank, const char* what) {
  const int r = static_cast<int>(rank);
  for (int higher = r + (allow_same_rank ? 1 : 0); higher < kNumLockRanks;
       ++higher) {
    if (g_held[higher] > 0) {
      std::fprintf(stderr,
                   "lock-order violation: acquiring %s (rank %d) while "
                   "holding a lock of rank %d\n",
                   what, r, higher);
      std::abort();
    }
  }
  if (!allow_same_rank && g_held[r] > 0) {
    std::fprintf(stderr,
                 "lock-order violation: recursive same-rank acquisition of "
                 "%s (rank %d)\n",
                 what, r);
    std::abort();
  }
  ++g_held[r];
}

void OnRelease(LockRank rank) { --g_held[static_cast<int>(rank)]; }
#endif  // !NDEBUG
}  // namespace lockrank

namespace {
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread re-entrancy depths, keyed by lock instance. unordered_map keeps
// node-stable pointers, so Tls() can hand out a TlsDepth* that survives
// other locks' inserts.
thread_local std::unordered_map<const void*, void*> g_tls_depths;

// OrderedMutex hold depths for this thread. Entries exist only while the
// mutex is held (erased when the outermost unlock runs), so a destroyed
// mutex can never leave a stale entry behind to alias a new instance.
thread_local std::unordered_map<const void*, int> g_ordered_depths;
}  // namespace

EngineRwLock::TlsDepth* EngineRwLock::Tls() const {
  void*& slot = g_tls_depths[this];
  if (slot == nullptr) slot = new TlsDepth();
  return static_cast<TlsDepth*>(slot);
}

void EngineRwLock::DropTls() const {
  auto it = g_tls_depths.find(this);
  if (it != g_tls_depths.end()) {
    delete static_cast<TlsDepth*>(it->second);
    g_tls_depths.erase(it);
  }
}

EngineRwLock::~EngineRwLock() {
  // Only this thread's slot can be reclaimed here; other threads' slots for
  // a destroyed lock are tiny and vanish with the thread. A Database
  // outlives its worker threads in every supported embedding, so in
  // practice nothing accumulates.
  DropTls();
}

void EngineRwLock::LockShared() {
  TlsDepth* tls = Tls();
  if (tls->shared > 0 || tls->exclusive > 0) {
    // Re-entry: data-plane calls nested under a shared or exclusive hold
    // (delivery callbacks, CTAS running its SELECT) piggyback on the
    // outer hold.
    ++tls->shared;
    return;
  }
  shared_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!mu_.try_lock_shared()) {
    shared_contended_.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = NowMicros();
    mu_.lock_shared();
    shared_wait_micros_.fetch_add(NowMicros() - t0,
                                  std::memory_order_relaxed);
  }
  lockrank::OnAcquire(LockRank::kEngine, /*allow_same_rank=*/false,
                      "engine shared");
  ++tls->shared;
}

void EngineRwLock::UnlockShared() {
  TlsDepth* tls = Tls();
  --tls->shared;
  if (tls->shared == 0 && tls->exclusive == 0) {
    lockrank::OnRelease(LockRank::kEngine);
    mu_.unlock_shared();
    DropTls();
  }
}

void EngineRwLock::LockExclusive() {
  TlsDepth* tls = Tls();
  if (tls->exclusive > 0) {
    ++tls->exclusive;
    return;
  }
  if (tls->shared > 0) {
    std::fprintf(stderr,
                 "EngineRwLock: exclusive acquisition while holding shared "
                 "(lock upgrade). A delivery callback or nested statement "
                 "attempted a control-plane operation (CREATE/DROP/SET/"
                 "subscribe) from inside a data-plane hold; this deadlocks "
                 "under concurrency and is forbidden (DESIGN decision 11).\n");
    std::abort();
  }
  exclusive_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!mu_.try_lock()) {
    exclusive_contended_.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = NowMicros();
    mu_.lock();
    exclusive_wait_micros_.fetch_add(NowMicros() - t0,
                                     std::memory_order_relaxed);
  }
  lockrank::OnAcquire(LockRank::kEngine, /*allow_same_rank=*/false,
                      "engine exclusive");
  ++tls->exclusive;
}

void EngineRwLock::UnlockExclusive() {
  TlsDepth* tls = Tls();
  --tls->exclusive;
  if (tls->exclusive == 0) {
    lockrank::OnRelease(LockRank::kEngine);
    mu_.unlock();
    if (tls->shared == 0) DropTls();
  }
}

void OrderedMutex::lock() {
  int& depth = g_ordered_depths[this];
  if (depth > 0) {
    // Genuine same-mutex recursion: the rank was validated on the
    // outermost acquisition and nothing new can deadlock, so the order
    // check (and contention accounting) is skipped.
    mu_.lock();
    ++depth;
    return;
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!mu_.try_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    mu_.lock();
  }
  lockrank::OnAcquire(rank_, allow_same_rank_, name_);
  ++depth;
}

void OrderedMutex::unlock() {
  auto it = g_ordered_depths.find(this);
  if (--it->second == 0) {
    lockrank::OnRelease(rank_);
    g_ordered_depths.erase(it);
  }
  mu_.unlock();
}

}  // namespace streamrel
