#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Percentiles and the open-loop send schedule shared by the load
// generator and the traced replay.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The same clock in µs with nanosecond resolution, for timing samples.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile: the smallest sample with at least q * n samples
/// at or below it. 0 for an empty set.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Samples ranked above the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// A tail percentile is worth reporting only with at least this many
/// samples beyond it.
constexpr size_t kMinTailSamples = 10;

/// An open-loop schedule: operation k is due at start + offset + k * period
/// whether or not earlier operations have completed, so a stall delays
/// every later send and shows up in latencies timed from the due time.
class OpenLoop {
 public:
  OpenLoop(int64_t start_us, int64_t period_us, int64_t offset_us = 0)
      : start_(start_us), period_(period_us), offset_(offset_us) {}

  int64_t Due(int64_t k) const { return start_ + offset_ + k * period_; }

  /// Sleeps until operation k is due and returns how late the caller is
  /// then, in µs (0 when on time).
  int64_t WaitFor(int64_t k) const {
    const int64_t due = Due(k);
    const int64_t now = NowMicros();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    return std::max<int64_t>(0, NowMicros() - due);
  }

 private:
  int64_t start_;
  int64_t period_;
  int64_t offset_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
