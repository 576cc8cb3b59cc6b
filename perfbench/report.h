#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Collects a run's metrics and renders them as the one-line JSON object
// run.py reads: {"attempted", "failed", "metrics", "tails", "layers",
// "extra"}. Every metric carries its unit; end-to-end ones also carry
// their sample count.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Report {
 public:
  /// An end-to-end metric.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples) {
    metrics_ += Entry(metrics_, name, value, unit, samples);
  }

  /// A latency: its median as an end-to-end metric, and its p99 as a tail
  /// when at least kMinTailSamples samples lie beyond it.
  void Latency(const std::string& name, const std::vector<double>& us) {
    Metric(name + "_p50_us", Percentile(us, 0.5), "us", us.size());
    if (SamplesBeyond(us.size(), 0.99) >= kMinTailSamples) {
      tails_ += Entry(tails_, name + "_p99_us", Percentile(us, 0.99), "us",
                      us.size());
    }
  }

  /// A per-layer metric.
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers_ += Entry(layers_, name, value, unit, 0);
  }

  /// A number run.py needs for derived metrics; not reported itself.
  void Extra(const std::string& name, double value) {
    extra_ += std::string(extra_.empty() ? "" : ",") + "\"" + name +
              "\":" + Number(value);
  }

  std::string Json(int64_t attempted, int64_t failed) const {
    return "{\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
           metrics_ + "},\"tails\":{" + tails_ + "},\"layers\":{" + layers_ +
           "},\"extra\":{" + extra_ + "}}";
  }

 private:
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Entry(const std::string& so_far, const std::string& name,
                           double value, const std::string& unit,
                           size_t samples) {
    std::string e = std::string(so_far.empty() ? "" : ",") + "\"" + name +
                    "\":{\"value\":" + Number(value) + ",\"unit\":\"" + unit +
                    "\"";
    if (samples > 0) e += ",\"samples\":" + std::to_string(samples);
    return e + "}";
  }

  std::string metrics_, tails_, layers_, extra_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
