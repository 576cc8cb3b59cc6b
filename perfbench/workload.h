#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The three benchmark workloads and their seeded inputs. The load
// generator (load.cc) and the traced replay (replay.cc) both build their
// rows, schedules and report queries from here, so one seed gives both
// programs the same inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/time.h"
#include "common/value.h"
#include "net/protocol.h"

namespace perfbench {

constexpr int64_t kSecond = 1'000'000;
constexpr int64_t kMinute = 60 * kSecond;
// Logical time of the first generated row (2009-01-05 00:00 UTC): a
// multiple of every window width, so batches start on slice boundaries.
constexpr int64_t kEpoch = 1'231'113'600LL * kSecond;
// Run after the timed phase: every CQ must be on the shared path.
constexpr const char* kCatalogProbeSql =
    "SELECT name, strategy FROM sys_cqs WHERE stream = 's'";
// Every workload feeds this one stream.
constexpr const char* kStream = "s";
constexpr const char* kStreamDdl =
    "CREATE STREAM s (url varchar, atime timestamp CQTIME USER, "
    "client_ip varchar);\n";
constexpr double kZipfSkew = 1.07;
// A run is split across this many server lifetimes, each set up afresh and
// then timed for its share of the run. Thread placement and allocator
// state differ per process and move latencies by whole modes, so pooling
// several processes per run keeps run-to-run spread down; setup_s is the
// median of their set-ups.
constexpr int kServers = 5;
// Client addresses are drawn uniformly from this many distinct IPs.
constexpr int kClientIps = 512;

/// Shape of the rows a subscribed object delivers per window close; the
/// oracle renders its expected rows in the same shape.
enum class Shape {
  kCountMax,          // (count(*), max(atime))            — no GROUP BY
  kUrlCountMax,       // (url, count(*), max(atime))
  kUrlCountDistinct,  // (url, count(*), count(distinct client_ip), close)
};

struct Workload {
  std::string name;
  std::string init_sql;  // the server's --init DDL
  int urls = 0;          // Zipf-1.07 URL cardinality
  int64_t rows_per_batch = 0;
  int64_t row_spacing_us = 0;  // logical µs between consecutive rows
  int64_t period_us = 0;       // wall-clock µs between timed batches
  // The subscribed objects' window: VISIBLE and ADVANCE (close spacing).
  int64_t visible_us = 0;
  int64_t advance_us = 0;
  Shape shape = Shape::kCountMax;
  int preload_batches = 0;  // history sent before the warm-up
  int preload_chunk = 1;    // batches per preload INGEST_BATCH frame
  int warmup_batches = 0;
  // Every close whose index (close / advance) is a multiple of this has
  // its delivered rows checked against the oracle.
  int64_t verify_every = 1;
  // One entry per subscriber connection: the objects it subscribes to.
  std::vector<std::vector<std::string>> subscribers;
  // Every window-closing object; the replay subscribes to all of them.
  std::vector<std::string> outputs;
  // Table DDL mirroring what the channel commits; the replay's shadow
  // channel commits the first subscribed object's closes into it.
  std::string shadow_table_sql;
  bool reader = false;  // report queries on a third connection

  /// Timed batches each of a run's kServers server lifetimes gets.
  int64_t batches_per_server(int64_t seconds) const {
    return std::max<int64_t>(1, seconds * kSecond / period_us / kServers);
  }
  size_t deliveries_per_close() const {
    size_t n = 0;
    for (const auto& names : subscribers) n += names.size();
    return n;
  }
};

inline std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    // Big frames, few closes: decode, admission and slice absorb.
    Workload w;
    w.name = "firehose";
    w.init_sql = std::string(kStreamDdl) +
                 "CREATE STREAM g AS SELECT url, count(*) AS n FROM s "
                 "<VISIBLE '5 seconds'> GROUP BY url;\n"
                 "CREATE STREAM sc AS SELECT count(*) AS n, max(atime) AS mx "
                 "FROM s <VISIBLE '5 seconds'>;\n";
    w.urls = 10000;
    w.rows_per_batch = 4000;
    w.row_spacing_us = 125;  // a batch spans 0.5 s of logical time
    w.period_us = 13'333;    // ~300k rows/s
    w.visible_us = w.advance_us = 5 * kSecond;
    w.shape = Shape::kCountMax;
    w.warmup_batches = 40;
    w.verify_every = 1;
    w.subscribers = {{"sc"}};
    w.outputs = {"g", "sc"};
    w.shadow_table_sql = "CREATE TABLE shadow (n bigint, mx timestamp)";
    all.push_back(w);
  }
  {
    // T2's dashboard: every batch closes a window of all 64 CQs.
    Workload w;
    w.name = "fanout";
    static const char* kAggSets[] = {
        "count(*) AS n",
        "count(*) AS n, count(distinct client_ip) AS d",
        "count(*) AS n, min(atime) AS mn",
        "count(*) AS n, max(atime) AS mx",
    };
    w.init_sql = kStreamDdl;
    for (int i = 0; i < 64; ++i) {
      const std::string name = "m" + std::to_string(i);
      w.init_sql += "CREATE STREAM " + name + " AS SELECT url, " +
                    kAggSets[i % 4] +
                    " FROM s <VISIBLE '5 minutes' ADVANCE '1 minute'> "
                    "GROUP BY url;\n";
      w.outputs.push_back(name);
    }
    w.urls = 200;
    w.rows_per_batch = 256;
    w.row_spacing_us = 234'375;  // 256 rows span exactly one minute
    w.period_us = 40'000;
    w.visible_us = 5 * kMinute;
    w.advance_us = kMinute;
    w.shape = Shape::kUrlCountMax;
    w.warmup_batches = 10;
    w.verify_every = 8;
    // m3, m7, ..., m63: spread across creation order, so the last CQ the
    // runtime evaluates at each close is among them.
    std::vector<std::string> dashboard;
    for (int i = 3; i < 64; i += 4) dashboard.push_back("m" + std::to_string(i));
    w.subscribers = {dashboard, dashboard};
    w.shadow_table_sql =
        "CREATE TABLE shadow (url varchar, n bigint, mx timestamp)";
    all.push_back(w);
  }
  {
    // Active-table reporting: channel commits beside snapshot reads.
    Workload w;
    w.name = "report";
    const std::string table =
        "CREATE TABLE hist (url varchar, c bigint, d bigint, t timestamp);\n"
        "CREATE INDEX hist_url ON hist (url);\n"
        "CREATE INDEX hist_t ON hist (t);\n";
    w.init_sql = std::string(kStreamDdl) +
                 "CREATE STREAM pm AS SELECT url, count(*) AS c, "
                 "count(distinct client_ip) AS d, cq_close(*) AS t FROM s "
                 "<VISIBLE '1 minute'> GROUP BY url;\n" +
                 table + "CREATE CHANNEL hist_ch FROM pm INTO hist APPEND;\n";
    w.urls = 1000;
    w.rows_per_batch = 480;
    w.row_spacing_us = 125'000;  // 480 rows span exactly one minute
    w.period_us = 20'000;
    w.visible_us = w.advance_us = kMinute;
    w.shape = Shape::kUrlCountDistinct;
    w.preload_batches = 300;
    w.preload_chunk = 10;
    w.warmup_batches = 10;
    w.verify_every = 4;
    w.subscribers = {{"pm"}};
    w.outputs = {"pm"};
    w.shadow_table_sql =
        "CREATE TABLE shadow (url varchar, c bigint, d bigint, t timestamp);"
        "CREATE INDEX shadow_url ON shadow (url);"
        "CREATE INDEX shadow_t ON shadow (t)";
    w.reader = true;
    all.push_back(w);
  }
  return all;
}

inline const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> all = AllWorkloads();
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// splitmix64: small, fast and identical on every platform, unlike the
/// standard distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

/// Zipf sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double skew) {
    cdf_.reserve(n);
    double total = 0;
    for (int i = 1; i <= n; ++i) total += 1.0 / std::pow(i, skew);
    double acc = 0;
    for (int i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(i, skew) / total;
      cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;
  }
  int Sample(Rng* rng) const {
    const double u = rng->Uniform();
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline std::string UrlName(int id) { return "/page/" + std::to_string(id); }
inline std::string IpName(int id) {
  return "10.0." + std::to_string(id / 256) + "." + std::to_string(id % 256);
}

/// One generated INGEST_BATCH: rows in timestamp order plus the ids the
/// oracle aggregates on.
struct Batch {
  std::vector<streamrel::Row> rows;
  std::vector<int> url_ids;
  std::vector<int> ip_ids;
  int64_t first_ts = 0;
  int64_t last_ts = 0;
};

/// The seeded row stream: row i has timestamp kEpoch + i * spacing, a
/// Zipf-distributed URL and a uniform client IP.
class RowSource {
 public:
  RowSource(const Workload& w, uint64_t seed)
      : w_(w), zipf_(w.urls, kZipfSkew), rng_(seed * 0x2545F4914F6CDD1DULL + 1) {}

  Batch Next(int64_t rows) {
    Batch b;
    b.rows.reserve(static_cast<size_t>(rows));
    b.url_ids.reserve(static_cast<size_t>(rows));
    b.ip_ids.reserve(static_cast<size_t>(rows));
    b.first_ts = Timestamp(next_row_);
    for (int64_t i = 0; i < rows; ++i) {
      const int url = zipf_.Sample(&rng_);
      const int ip = rng_.Below(kClientIps);
      const int64_t ts = Timestamp(next_row_++);
      b.rows.push_back({streamrel::Value::String(UrlName(url)),
                        streamrel::Value::Timestamp(ts),
                        streamrel::Value::String(IpName(ip))});
      b.url_ids.push_back(url);
      b.ip_ids.push_back(ip);
      b.last_ts = ts;
    }
    return b;
  }

 private:
  int64_t Timestamp(int64_t row) const { return kEpoch + row * w_.row_spacing_us; }

  const Workload& w_;
  Zipf zipf_;
  Rng rng_;
  int64_t next_row_ = 0;
};

/// The batch as the wire INGEST_BATCH frame a client sends.
inline std::string IngestFrame(const Batch& b, uint64_t request_id) {
  streamrel::net::IngestBatchRequest req;
  req.stream = kStream;
  req.rows = b.rows;
  std::string bytes;
  streamrel::net::EncodeFrame(
      streamrel::net::Frame{streamrel::net::FrameType::kIngestBatch, request_id,
                            streamrel::net::EncodeIngestBody(req)},
      &bytes);
  return bytes;
}

/// Closes (multiples of `advance`) that a batch ending at `last_ts` closes
/// when the previous batch ended at `prev_last_ts`: a window [c - visible, c)
/// closes when the first row with timestamp >= c arrives.
inline std::vector<int64_t> ClosesBetween(int64_t prev_last_ts, int64_t last_ts,
                                          int64_t advance) {
  std::vector<int64_t> closes;
  for (int64_t c = (prev_last_ts / advance + 1) * advance; c <= last_ts;
       c += advance) {
    closes.push_back(c);
  }
  return closes;
}

/// The report reader's seeded query sequence: even queries look up one
/// URL's per-minute history, odd ones ask for the top 10 URLs over the
/// last 10 closed minutes. `upto` is the newest close the reader knows is
/// committed.
struct ReportQuery {
  bool topn = false;
  int url = 0;
  int64_t upto = 0;
  std::string sql;
};

// History lookups pick uniformly among this many most popular URLs, so
// every lookup returns a long history and the latency median is steady.
constexpr int kLookupUrls = 32;
constexpr int64_t kTopNMinutes = 10;

inline ReportQuery MakeReportQuery(int64_t index, Rng* rng, int64_t upto) {
  ReportQuery q;
  q.topn = index % 2 == 1;
  q.upto = upto;
  const std::string hi =
      "timestamp '" + streamrel::FormatTimestampMicros(upto) + "'";
  if (q.topn) {
    const std::string lo =
        "timestamp '" +
        streamrel::FormatTimestampMicros(upto - kTopNMinutes * kMinute) + "'";
    q.sql = "SELECT url, sum(c) AS n FROM hist WHERE t > " + lo +
            " AND t <= " + hi +
            " GROUP BY url ORDER BY n DESC, url LIMIT 10";
  } else {
    q.url = rng->Below(kLookupUrls);
    q.sql = "SELECT t, c, d FROM hist WHERE url = '" + UrlName(q.url) +
            "' AND t <= " + hi + " ORDER BY t";
  }
  return q;
}

/// Seed of the reader's URL choices, distinct from the row stream's.
inline uint64_t ReaderSeed(uint64_t seed) { return seed * 7919 + 17; }

/// Canonical text of a delivered or queried row: integers and timestamps
/// as decimal micros, strings verbatim, '|' between columns.
inline std::string Canon(const streamrel::Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += '|';
    const streamrel::Value& v = row[i];
    if (v.type() == streamrel::DataType::kString) {
      out += v.AsString();
    } else if (v.is_null()) {
      out += "NULL";
    } else {
      out += std::to_string(v.AsInt64());
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
