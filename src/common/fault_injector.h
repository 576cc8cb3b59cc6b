#ifndef STREAMREL_COMMON_FAULT_INJECTOR_H_
#define STREAMREL_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace streamrel {

/// What an armed fault point does when hit.
struct FaultPolicy {
  enum class Kind {
    kOff,          // pass through
    kFailOnce,     // fail the next hit, then disarm
    kFailNth,      // fail the nth hit after arming, then disarm
    kProbability,  // fail each hit with probability p (seeded, deterministic)
    kCrashAtHit,   // "crash the process" at the nth hit after arming: this
                   // and every later hit at ANY point fails until Reset
  };
  Kind kind = Kind::kOff;
  int64_t nth = 1;          // kFailNth / kCrashAtHit: 1-based, from arming
  double probability = 0.0;  // kProbability
  uint64_t seed = 0;         // kProbability: per-point RNG seed

  static FaultPolicy Off() { return {}; }
  static FaultPolicy FailOnce() {
    FaultPolicy p;
    p.kind = Kind::kFailOnce;
    return p;
  }
  static FaultPolicy FailNth(int64_t n) {
    FaultPolicy p;
    p.kind = Kind::kFailNth;
    p.nth = n;
    return p;
  }
  static FaultPolicy Probability(double prob, uint64_t seed) {
    FaultPolicy p;
    p.kind = Kind::kProbability;
    p.probability = prob;
    p.seed = seed;
    return p;
  }
  static FaultPolicy CrashAtHit(int64_t n) {
    FaultPolicy p;
    p.kind = Kind::kCrashAtHit;
    p.nth = n;
    return p;
  }

  std::string ToString() const;
};

/// Process-wide registry of named fault points. Instrumented code calls
/// Hit("wal.append") etc. at each would-be failure site; tests (or the
/// SET FAULT statement) arm deterministic policies per point. When nothing
/// is armed the hot path is a single relaxed atomic load.
///
/// Crash semantics: once a crash policy fires, the injector latches into a
/// "process is dead" state — EVERY subsequent hit at every point returns
/// the crash status until Reset(). Combined with
/// WriteAheadLog::SimulateCrash this models a real kill: no code path can
/// sneak another durable write in after the crash instant.
///
/// Known points: wal.append, wal.sync, disk.write, channel.sink,
/// checkpoint.write, net.accept, net.read, net.write, net.connect
/// (client-side, before the socket is created), repl.ship
/// (primary, before a REPL_FETCH is answered), repl.ack (primary, before
/// the fetch offset is recorded as acknowledged), repl.apply (standby,
/// before a shipped slice is applied). The registry is open — arming an
/// unknown name is allowed (it just never fires).
///
/// Thread-safe; fully deterministic for a given seed and hit sequence.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// The hot path. Returns non-OK when the point's policy (or the global
  /// crash counter) fires.
  Status Hit(const char* point);

  void Arm(const std::string& point, FaultPolicy policy);
  void Disarm(const std::string& point);

  /// Crash at the k-th hit counted across ALL points (1-based, counted
  /// from this call). The torture harness sweeps k to crash the engine at
  /// every reachable fault site in turn.
  void ArmCrashAtGlobalHit(int64_t k);

  /// Count hits (for a later Snapshot) even with no policy armed. The
  /// torture harness runs a workload once in counting mode to learn how
  /// many hits it produces.
  void EnableCounting(bool on);

  /// Clears all policies, counters, and the crash latch.
  void Reset();

  bool crashed() const;

  /// True for the status Hit() returns once a crash policy fired.
  static bool IsInjectedCrash(const Status& status);

  struct PointInfo {
    std::string point;
    std::string policy;
    int64_t hits = 0;
    int64_t fires = 0;
  };
  /// Every point that has been armed or hit, by name.
  std::vector<PointInfo> Snapshot() const;

  struct Totals {
    int64_t hits = 0;
    int64_t fires = 0;
    int64_t crashes = 0;
  };
  Totals totals() const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;

  struct PointState {
    FaultPolicy policy;
    int64_t hits = 0;            // lifetime hits (until Reset)
    int64_t fires = 0;           // lifetime fires
    int64_t hits_since_arm = 0;  // kFailNth / kCrashAtHit progress
    uint64_t rng_state = 0;      // kProbability stream
  };

  void RecomputeActiveLocked();

  /// True when any policy is armed, counting is on, or a global crash
  /// counter / crash latch is set; gates the hot path.
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::map<std::string, PointState> points_;
  bool counting_ = false;
  bool crashed_ = false;
  int64_t global_hits_ = 0;
  int64_t global_crash_at_ = 0;  // 0 = off
  int64_t total_fires_ = 0;
  int64_t crashes_fired_ = 0;
};

}  // namespace streamrel

#endif  // STREAMREL_COMMON_FAULT_INJECTOR_H_
