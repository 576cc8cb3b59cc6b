#ifndef STREAMREL_STREAM_METRICS_H_
#define STREAMREL_STREAM_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace streamrel::stream {

/// Monotonically increasing event count. Hot paths hold a Counter* obtained
/// once from the registry; Add() is a single relaxed atomic add, so counters
/// are safe to bump from concurrent per-stream ingest threads.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time level (watermarks, buffered rows, live slices). Set() is a
/// single relaxed atomic store; structural gauges are refreshed lazily
/// before a snapshot.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Bounded histogram over fixed bucket upper bounds (no per-sample
/// allocation, O(buckets) memory forever). A percentile interpolates
/// linearly inside the bucket where the cumulative count crosses the rank,
/// between the bucket's edges clipped to the observed min and max, so it
/// can read any value, not only a bucket bound.
class Histogram {
 public:
  /// `bounds` are ascending bucket upper bounds; an implicit overflow
  /// bucket catches everything above the last bound.
  explicit Histogram(std::vector<int64_t> bounds);

  /// Default bounds for microsecond latencies: 1µs .. 1s, roughly
  /// logarithmic (1-2-5 per decade), 19 buckets + overflow.
  static std::vector<int64_t> LatencyMicrosBounds();

  void Record(int64_t value);

  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  int64_t sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  int64_t min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : min_;
  }
  int64_t max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : max_;
  }

  /// The q-quantile (0 <= q <= 1) at rank q * count, interpolated inside
  /// its bucket: the bucket's lower edge is the previous bound or the
  /// observed min, whichever is higher, and its upper edge the bound or
  /// the observed max, whichever is lower (the overflow bucket's is the
  /// max). So q = 0 reads the min, q = 1 the max, and a single sample
  /// reads itself. 0 when empty.
  int64_t Percentile(double q) const;

 private:
  /// Leaf mutex (no other lock is taken while held): buckets and the
  /// min/max/sum aggregates must move together, so a lone atomic per field
  /// would let Snapshot observe torn percentiles.
  mutable std::mutex mu_;
  const std::vector<int64_t> bounds_;
  std::vector<int64_t> buckets_;  // bounds_.size() + 1 (overflow)
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// One row of a metrics snapshot, addressed the way SHOW STATS exposes it:
/// (scope, object, metric) -> value. Histograms expand into several
/// samples (metric_count, metric_total, metric_min/max/p50/p95/p99).
struct MetricSample {
  std::string scope;   // "engine" | "stream" | "cq" | "channel" |
                       // "aggregator" | "recovery" | "overload"
  std::string name;    // object name; "" for engine-wide metrics
  std::string metric;  // e.g. "rows_ingested", "eval_micros_p95"
  int64_t value = 0;
  /// True for values that are timestamps and may be unset (INT64_MIN),
  /// e.g. watermarks; SHOW STATS renders unset as NULL.
  bool is_timestamp = false;
};

/// The engine's metric store. Components register (scope, object, metric)
/// cells once and keep the returned pointer; pointers stay valid until the
/// object's metrics are removed (DROP CQ / channel stop). Snapshot()
/// flattens everything into deterministic (scope, name, metric) order.
///
/// Thread-safe: cell registration and Snapshot() serialize on an internal
/// leaf mutex; the cells themselves (atomic counters/gauges, internally
/// locked histograms) are written lock-free from concurrent per-stream
/// ingest threads. Registered pointers stay valid across concurrent
/// registrations because std::map nodes are stable. `enabled` gates the
/// *expensive* instrumentation (clock reads for histograms) — counters are
/// single adds and always cheap; benchmarks flip it off to measure the
/// overhead of the observability layer on the ingest hot path.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& scope, const std::string& name,
                      const std::string& metric);
  Gauge* GetGauge(const std::string& scope, const std::string& name,
                  const std::string& metric);
  Histogram* GetHistogram(const std::string& scope, const std::string& name,
                          const std::string& metric);
  Histogram* GetHistogram(const std::string& scope, const std::string& name,
                          const std::string& metric,
                          std::vector<int64_t> bounds);

  /// Marks a gauge as carrying a timestamp (unset = INT64_MIN -> NULL).
  Gauge* GetWatermarkGauge(const std::string& scope, const std::string& name,
                           const std::string& metric);

  /// Drops every metric registered under (scope, name). Pointers handed
  /// out for them dangle afterwards — callers drop the owning object in
  /// the same breath (DROP CQ, channel stop).
  void RemoveObject(const std::string& scope, const std::string& name);

  std::vector<MetricSample> Snapshot() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    bool is_timestamp = false;
  };
  using Key = std::tuple<std::string, std::string, std::string>;

  /// Leaf mutex guarding the cell map (the histogram mutex nests inside it
  /// during Snapshot; nothing else is acquired while it is held).
  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
  std::atomic<bool> enabled_{true};
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_METRICS_H_
