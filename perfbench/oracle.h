#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Reference answers computed from the rows the generator sent: the
// per-close results of each subscribed object and the answers of the
// report workload's two queries.

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {

class Oracle {
 public:
  explicit Oracle(const Workload& w) : w_(w) {}

  /// Folds a batch into per-slice aggregates (slices are `advance` wide).
  /// For the report shape, completed slices move into the committed
  /// history; otherwise slices no future window can reach are dropped.
  void Add(const Batch& b) {
    for (size_t i = 0; i < b.rows.size(); ++i) {
      const int64_t ts = b.rows[i][1].AsTimestampMicros();
      const int key = w_.shape == Shape::kCountMax ? 0 : b.url_ids[i];
      Agg& a = slices_[ts - ts % w_.advance_us][key];
      ++a.count;
      a.max_ts = std::max(a.max_ts, ts);
      a.ips.set(static_cast<size_t>(b.ip_ids[i]));
    }
    if (w_.shape == Shape::kUrlCountDistinct) {
      for (auto it = slices_.begin();
           it != slices_.end() && it->first + w_.advance_us <= b.last_ts;) {
        Commit(it->first + w_.advance_us, it->second);
        it = slices_.erase(it);
      }
    } else {
      const int64_t keep_from = b.last_ts - w_.visible_us - w_.advance_us;
      slices_.erase(slices_.begin(), slices_.lower_bound(keep_from));
    }
  }

  /// Expected delivery of the window closing at `close`, as sorted
  /// canonical rows (see Canon in workload.h).
  std::vector<std::string> Expected(int64_t close) const {
    std::vector<std::string> out;
    if (w_.shape == Shape::kUrlCountDistinct) {
      auto it = history_.find(close);
      if (it != history_.end()) {
        for (const Committed& c : it->second) {
          out.push_back(UrlName(c.url) + "|" + std::to_string(c.count) + "|" +
                        std::to_string(c.distinct) + "|" +
                        std::to_string(close));
        }
      }
      std::sort(out.begin(), out.end());
      return out;
    }
    std::map<int, std::pair<int64_t, int64_t>> merged;  // url -> count, max
    for (auto it = slices_.lower_bound(close - w_.visible_us);
         it != slices_.end() && it->first < close; ++it) {
      for (const auto& [url, a] : it->second) {
        auto& m = merged[url];
        m.first += a.count;
        m.second = std::max(m.second, a.max_ts);
      }
    }
    for (const auto& [url, m] : merged) {
      const std::string tail =
          std::to_string(m.first) + "|" + std::to_string(m.second);
      out.push_back(w_.shape == Shape::kCountMax ? tail
                                                 : UrlName(url) + "|" + tail);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Answer of a report query, as canonical rows in the query's order.
  std::vector<std::string> Answer(const ReportQuery& q) const {
    std::vector<std::string> out;
    if (!q.topn) {
      auto it = by_url_.find(q.url);
      if (it == by_url_.end()) return out;
      for (const auto& [close, count, distinct] : it->second) {
        if (close > q.upto) break;
        out.push_back(std::to_string(close) + "|" + std::to_string(count) +
                      "|" + std::to_string(distinct));
      }
      return out;
    }
    std::unordered_map<int, int64_t> sums;
    for (auto it = history_.upper_bound(q.upto - kTopNMinutes * kMinute);
         it != history_.end() && it->first <= q.upto; ++it) {
      for (const Committed& c : it->second) sums[c.url] += c.count;
    }
    std::vector<std::pair<int64_t, std::string>> ranked;  // -sum, url
    for (const auto& [url, sum] : sums) ranked.emplace_back(-sum, UrlName(url));
    std::sort(ranked.begin(), ranked.end());
    for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
      out.push_back(ranked[i].second + "|" + std::to_string(-ranked[i].first));
    }
    return out;
  }

 private:
  struct Agg {
    int64_t count = 0;
    int64_t max_ts = INT64_MIN;
    std::bitset<kClientIps> ips;
  };
  struct Committed {
    int url;
    int64_t count;
    int64_t distinct;
  };

  void Commit(int64_t close, const std::unordered_map<int, Agg>& slice) {
    std::vector<Committed>& rows = history_[close];
    for (const auto& [url, a] : slice) {
      const int64_t distinct = static_cast<int64_t>(a.ips.count());
      rows.push_back({url, a.count, distinct});
      by_url_[url].emplace_back(close, a.count, distinct);
    }
  }

  const Workload& w_;
  std::map<int64_t, std::unordered_map<int, Agg>> slices_;  // by slice start
  // Report shape only: committed per-minute rows by close, and by URL.
  std::map<int64_t, std::vector<Committed>> history_;
  std::unordered_map<int, std::vector<std::tuple<int64_t, int64_t, int64_t>>>
      by_url_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
