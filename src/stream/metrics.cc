#include "stream/metrics.h"

#include <algorithm>
#include <cmath>

namespace streamrel::stream {

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

Counter* MetricsRegistry::GetCounter(const std::string& scope,
                                     const std::string& name,
                                     const std::string& metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key(scope, name, metric)];
  if (cell.counter == nullptr) cell.counter = std::make_unique<Counter>();
  return cell.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& scope,
                                 const std::string& name,
                                 const std::string& metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key(scope, name, metric)];
  if (cell.gauge == nullptr) cell.gauge = std::make_unique<Gauge>();
  return cell.gauge.get();
}

Gauge* MetricsRegistry::GetWatermarkGauge(const std::string& scope,
                                          const std::string& name,
                                          const std::string& metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key(scope, name, metric)];
  cell.is_timestamp = true;
  if (cell.gauge == nullptr) {
    cell.gauge = std::make_unique<Gauge>();
    cell.gauge->Set(INT64_MIN);
  }
  return cell.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& scope,
                                         const std::string& name,
                                         const std::string& metric) {
  return GetHistogram(scope, name, metric, Histogram::LatencyMicrosBounds());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& scope,
                                         const std::string& name,
                                         const std::string& metric,
                                         std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key(scope, name, metric)];
  if (cell.histogram == nullptr) {
    cell.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return cell.histogram.get();
}

void MetricsRegistry::RemoveObject(const std::string& scope,
                                   const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.lower_bound(Key(scope, name, ""));
  while (it != cells_.end() && std::get<0>(it->first) == scope &&
         std::get<1>(it->first) == name) {
    it = cells_.erase(it);
  }
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(cells_.size() * 2);
  for (const auto& [key, cell] : cells_) {
    const auto& [scope, name, metric] = key;
    auto emit = [&](const std::string& suffix, int64_t value,
                    bool is_timestamp = false) {
      MetricSample s;
      s.scope = scope;
      s.name = name;
      s.metric = suffix.empty() ? metric : metric + suffix;
      s.value = value;
      s.is_timestamp = is_timestamp;
      samples.push_back(std::move(s));
    };
    if (cell.counter != nullptr) emit("", cell.counter->value());
    if (cell.gauge != nullptr) {
      emit("", cell.gauge->value(), cell.is_timestamp);
    }
    if (cell.histogram != nullptr) {
      const Histogram& h = *cell.histogram;
      emit("_count", h.count());
      emit("_total", h.sum());
      emit("_min", h.min());
      emit("_max", h.max());
      emit("_p50", h.Percentile(0.50));
      emit("_p95", h.Percentile(0.95));
      emit("_p99", h.Percentile(0.99));
    }
  }
  return samples;
}

}  // namespace streamrel::stream
