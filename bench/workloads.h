#ifndef STREAMREL_BENCH_WORKLOADS_H_
#define STREAMREL_BENCH_WORKLOADS_H_

// Synthetic workload generators for the benchmark suite. These stand in
// for the paper's production traces (Truviso's customer data is not
// available): click/URL streams with Zipf-like skew and network-security
// connection logs, at configurable rates and cardinalities. They exercise
// the same code paths: high-rate ordered append, known aggregate queries,
// periodic reporting.

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/time.h"
#include "engine/database.h"

namespace streamrel::bench {

inline constexpr int64_t kSec = kMicrosPerSecond;
inline constexpr int64_t kMin = kMicrosPerMinute;

/// Aborts the benchmark on error — benchmarks must not silently measure
/// failed operations.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "BENCH SETUP FAILED (%s): %s\n", what,
            status.ToString().c_str());
    abort();
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  Check(result.status(), what);
  return result.TakeValue();
}

/// Zipf(s≈1) sampler over [0, n) via the classic inverse-power method with
/// a precomputed CDF. Deterministic per seed.
class ZipfGenerator {
 public:
  ZipfGenerator(int n, double skew, uint32_t seed)
      : rng_(seed), dist_(0.0, 1.0) {
    cdf_.reserve(n);
    double total = 0;
    for (int i = 1; i <= n; ++i) total += 1.0 / std::pow(i, skew);
    double acc = 0;
    for (int i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(i, skew) / total;
      cdf_.push_back(acc);
    }
  }

  int Next() {
    double u = dist_(rng_);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::mt19937 rng_;
  std::uniform_real_distribution<double> dist_;
  std::vector<double> cdf_;
};

/// A stream of URL clicks: (url, atime, client_ip), ordered on atime.
/// `rows_per_sec` controls timestamp spacing (logical time, not wall time).
class UrlClickWorkload {
 public:
  UrlClickWorkload(int url_cardinality, int rows_per_sec, uint32_t seed = 42)
      : zipf_(url_cardinality, 1.07, seed),
        rng_(seed * 31 + 7),
        step_micros_(kSec / rows_per_sec) {
    urls_.reserve(url_cardinality);
    for (int i = 0; i < url_cardinality; ++i) {
      urls_.push_back("/page/" + std::to_string(i));
    }
  }

  /// Next row; timestamps advance by 1/rows_per_sec each call.
  Row NextRow() {
    ts_ += step_micros_;
    return Row{Value::String(urls_[zipf_.Next()]), Value::Timestamp(ts_),
               Value::String("10.0." + std::to_string(rng_() % 256) + "." +
                             std::to_string(rng_() % 256))};
  }

  std::vector<Row> NextBatch(size_t n) {
    std::vector<Row> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) batch.push_back(NextRow());
    return batch;
  }

  /// Same rows in columnar form — what a wire decode produces when it
  /// fills a ColumnBatch directly instead of building Row vectors.
  exec::ColumnBatch NextColumnBatch(size_t n) {
    exec::ColumnBatch batch(3);
    batch.Reserve(n);
    char ip[32];
    for (size_t i = 0; i < n; ++i) {
      ts_ += step_micros_;
      batch.AppendString(0, urls_[zipf_.Next()]);
      batch.AppendTimestamp(1, ts_);
      snprintf(ip, sizeof(ip), "10.0.%u.%u",
               static_cast<unsigned>(rng_() % 256u),
               static_cast<unsigned>(rng_() % 256u));
      batch.AppendString(2, ip);
      batch.CommitRow();
    }
    return batch;
  }

  int64_t now() const { return ts_; }

  static const char* StreamDdl() {
    return "CREATE STREAM url_stream (url varchar(1024), "
           "atime timestamp CQTIME USER, client_ip varchar(50))";
  }
  static const char* TableDdl() {
    return "CREATE TABLE url_log (url varchar(1024), "
           "atime timestamp, client_ip varchar(50))";
  }

 private:
  std::vector<std::string> urls_;
  ZipfGenerator zipf_;
  std::mt19937 rng_;
  int64_t step_micros_;
  int64_t ts_ = 0;
};

/// Network-security connection log: (src_ip, dst_port, bytes, ts).
/// Mostly web traffic with a configurable scan component.
class SecurityLogWorkload {
 public:
  explicit SecurityLogWorkload(uint32_t seed = 7)
      : rng_(seed), port_zipf_(64, 1.2, seed + 1) {}

  Row NextRow() {
    ts_ += 1000 + static_cast<int64_t>(rng_() % 2000);  // ~0.5-1k rows/sec
    int64_t port = (rng_() % 100 < 5)
                       ? static_cast<int64_t>(rng_() % 65536)  // scan noise
                       : kCommonPorts[port_zipf_.Next() % 8];
    return Row{Value::String("192.168." + std::to_string(rng_() % 64) + "." +
                             std::to_string(rng_() % 256)),
               Value::Int64(port),
               Value::Int64(static_cast<int64_t>(64 + rng_() % 8192)),
               Value::Timestamp(ts_)};
  }

  std::vector<Row> NextBatch(size_t n) {
    std::vector<Row> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) batch.push_back(NextRow());
    return batch;
  }

  int64_t now() const { return ts_; }

  static const char* StreamDdl() {
    return "CREATE STREAM conns (src_ip varchar, dst_port bigint, "
           "bytes bigint, ts timestamp CQTIME USER)";
  }
  static const char* TableDdl() {
    return "CREATE TABLE conn_log (src_ip varchar, dst_port bigint, "
           "bytes bigint, ts timestamp)";
  }

 private:
  static constexpr int64_t kCommonPorts[8] = {80,  443, 22,  53,
                                              25,  110, 143, 8080};
  std::mt19937 rng_;
  ZipfGenerator port_zipf_;
  int64_t ts_ = 0;
};

/// Database tuned like the paper's store-first baseline: spinning-disk cost
/// model, small buffer pool relative to the data, durable WAL.
inline engine::DatabaseOptions StoreFirstOptions(size_t cache_pages = 256) {
  engine::DatabaseOptions options;
  options.disk_model.seek_micros = 4000;
  options.disk_model.read_mb_per_sec = 100;
  options.disk_model.write_mb_per_sec = 80;
  options.disk_model.cache_pages = cache_pages;
  return options;
}

/// Loads `rows` into `table` through the SQL write path (WAL + heap +
/// indexes) as one logged transaction.
inline void BulkLoad(engine::Database* db, const std::string& table,
                     const std::vector<Row>& rows) {
  auto* info = db->catalog()->GetTable(table);
  if (info == nullptr) {
    fprintf(stderr, "BulkLoad: no table %s\n", table.c_str());
    abort();
  }
  storage::WriteAheadLog* wal = db->wal().get();
  Check(storage::LoggedTxn::Run(db->txns(), wal, db->now_micros(),
                                [&](storage::TxnId txn) {
                                  return stream::InsertRows(info, rows, txn,
                                                            wal);
                                }),
        "bulk load");
}

}  // namespace streamrel::bench

#endif  // STREAMREL_BENCH_WORKLOADS_H_
