#include "stream/metrics.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>
#include <tuple>

namespace streamrel::stream {

namespace {

/// A histogram's samples, in the order AppendSamples emits them.
constexpr std::string_view kHistogramSuffixes[] = {
    "_count", "_total", "_min", "_max", "_p50", "_p95", "_p99"};

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

std::vector<int64_t> Histogram::LatencyMicrosBounds() {
  return {1,    2,    5,     10,    25,    50,     100,    250,     500, 1000,
          2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000};
}

void Histogram::Record(int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  ++buckets_[i];
}

int64_t Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PercentileLocked(q);
}

int64_t Histogram::PercentileLocked(double q) const {
  if (count_ == 0) return 0;
  // In double throughout, so no product of a value and a count overflows.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  int64_t before = 0;  // samples in the buckets below bucket i
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(before + buckets_[i]) >= rank) {
      // The bucket's samples are taken as spread evenly over the part of
      // it the observed range covers: (previous bound, bound] clipped to
      // [min, max].
      const double lo = static_cast<double>(
          i == 0 ? min_ : std::max(bounds_[i - 1], min_));
      const double hi = static_cast<double>(
          i < bounds_.size() ? std::min(bounds_[i], max_) : max_);
      const double frac = (rank - static_cast<double>(before)) /
                          static_cast<double>(buckets_[i]);
      return static_cast<int64_t>(std::llround(lo + (hi - lo) * frac));
    }
    before += buckets_[i];
  }
  return max_;
}

void Histogram::AppendSamples(const std::string& scope,
                              const std::string& name,
                              const std::string& metric,
                              std::vector<MetricSample>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t values[] = {count_,
                            sum_,
                            count_ == 0 ? 0 : min_,
                            count_ == 0 ? 0 : max_,
                            PercentileLocked(0.50),
                            PercentileLocked(0.95),
                            PercentileLocked(0.99)};
  for (size_t i = 0; i < std::size(values); ++i) {
    out->push_back(MetricSample{
        scope, name, metric + std::string(kHistogramSuffixes[i]), values[i]});
  }
}

void SortSamples(std::vector<MetricSample>* samples) {
  // (scope, name, the metric without a histogram suffix, the suffix's
  // rank): a histogram sorts at its own name, its samples in emission
  // order. A plain metric has rank 0.
  using Key = std::tuple<std::string_view, std::string_view,
                         std::string_view, size_t>;
  auto key = [](const MetricSample& s) {
    const std::string_view metric = s.metric;
    for (size_t i = 0; i < std::size(kHistogramSuffixes); ++i) {
      if (metric.ends_with(kHistogramSuffixes[i])) {
        return Key(s.scope, s.name,
                   metric.substr(0, metric.size() -
                                        kHistogramSuffixes[i].size()),
                   i + 1);
      }
    }
    return Key(s.scope, s.name, metric, 0);
  };
  std::sort(samples->begin(), samples->end(),
            [&](const MetricSample& a, const MetricSample& b) {
              return key(a) < key(b);
            });
}

}  // namespace streamrel::stream
