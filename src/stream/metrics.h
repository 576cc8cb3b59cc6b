#ifndef STREAMREL_STREAM_METRICS_H_
#define STREAMREL_STREAM_METRICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace streamrel::stream {

/// One row of a metrics snapshot, addressed the way SHOW STATS exposes it:
/// (scope, object, metric) -> value. Every number lives on the object that
/// produces it (a stream, CQ, channel, pipeline, the governor); a snapshot
/// walks those objects and builds one sample per number.
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

  /// Appends `metric` expanded into seven samples, all read under one
  /// hold of the lock: metric_count, _total, _min, _max, _p50, _p95 and
  /// _p99.
  void AppendSamples(const std::string& scope, const std::string& name,
                     const std::string& metric,
                     std::vector<MetricSample>* out) const;

 private:
  int64_t PercentileLocked(double q) const;

  /// Leaf mutex (no other lock is taken while held): buckets and the
  /// min/max/sum aggregates must move together, so a lone atomic per field
  /// would let a snapshot observe torn percentiles.
  mutable std::mutex mu_;
  const std::vector<int64_t> bounds_;
  std::vector<int64_t> buckets_;  // bounds_.size() + 1 (overflow)
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Orders samples the way SHOW STATS prints them: by (scope, name,
/// metric), except that a histogram's seven samples stay together, in
/// their AppendSamples order, where the histogram's own name sorts.
void SortSamples(std::vector<MetricSample>* samples);

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_METRICS_H_
