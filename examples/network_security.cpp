// Network security reporting — the paper's Section 4 scenario. "A
// batch-oriented query taking over 20 minutes ... was produced in
// milliseconds by simply running the query continuously and incrementally
// as the data arrived, and storing the results in an Active Table for
// later retrieval."
//
// This example runs that conversion live: the same per-port traffic report
// is produced (a) store-first-query-later — load the connection log into a
// table, then scan and aggregate when the report is requested — and
// (b) continuously — a CQ folds each connection into per-slice partial
// aggregates on arrival and a channel persists each window into an active
// table, so the "report query" is a trivial lookup. It prints both
// latencies and the simulated disk time each approach consumed.

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/time.h"
#include "engine/database.h"
#include "stream/channel.h"

using streamrel::Row;
using streamrel::Status;
using streamrel::Value;
using streamrel::kMicrosPerMinute;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    exit(1);
  }
}

std::vector<Row> MakeConnectionLog(int rows) {
  std::mt19937 rng(2009);
  std::vector<Row> log;
  log.reserve(rows);
  int64_t ts = 0;
  const int64_t common_ports[] = {80, 443, 22, 53, 25};
  for (int i = 0; i < rows; ++i) {
    ts += 1500 + static_cast<int64_t>(rng() % 1000);
    int64_t port = (rng() % 100 < 4)
                       ? static_cast<int64_t>(rng() % 65536)
                       : common_ports[rng() % 5];
    log.push_back(Row{
        Value::String("192.168." + std::to_string(rng() % 32) + "." +
                      std::to_string(rng() % 256)),
        Value::Int64(port), Value::Int64(static_cast<int64_t>(rng() % 9000)),
        Value::Timestamp(ts)});
  }
  return log;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
             .count() /
         1000.0;
}

}  // namespace

int main() {
  constexpr int kRows = 150000;
  const std::vector<Row> log = MakeConnectionLog(kRows);
  printf("connection log: %d events (~%lld minutes of traffic)\n\n", kRows,
         static_cast<long long>(log.back()[3].AsTimestampMicros() /
                                kMicrosPerMinute));

  const char* kReport =
      "SELECT dst_port, count(*) AS conns, sum(bytes) AS total "
      "FROM conn_log GROUP BY dst_port ORDER BY conns DESC LIMIT 5";

  // --- (a) store-first-query-later -----------------------------------------
  streamrel::engine::Database batch_db;
  Check(batch_db
            .Execute("CREATE TABLE conn_log (src_ip varchar, dst_port "
                     "bigint, bytes bigint, ts timestamp)")
            .status(),
        "batch ddl");
  {
    auto* table = batch_db.catalog()->GetTable("conn_log");
    auto* wal = batch_db.wal().get();
    Check(streamrel::storage::LoggedTxn::Run(
              batch_db.txns(), wal, /*commit_time_micros=*/0,
              [&](streamrel::storage::TxnId txn) {
                return streamrel::stream::InsertRows(table, log, txn, wal);
              }),
          "load");
  }
  batch_db.disk()->DropCache();  // the nightly report starts cold
  batch_db.disk()->ResetStats();
  auto t_batch = std::chrono::steady_clock::now();
  auto batch_report = batch_db.Execute(kReport);
  Check(batch_report.status(), "batch report");
  double batch_ms = MillisSince(t_batch);
  double batch_io_ms =
      batch_db.disk()->stats().simulated_io_micros / 1000.0;

  // --- (b) continuous analytics --------------------------------------------
  streamrel::engine::Database cq_db;
  Check(cq_db
            .Execute("CREATE STREAM conns (src_ip varchar, dst_port bigint, "
                     "bytes bigint, ts timestamp CQTIME USER);"
                     "CREATE STREAM port_agg AS SELECT dst_port, count(*) "
                     "AS conns, sum(bytes) AS total FROM conns "
                     "<VISIBLE '10 minutes' ADVANCE '1 minute'> "
                     "GROUP BY dst_port;"
                     "CREATE TABLE port_report (dst_port bigint, conns "
                     "bigint, total bigint);"
                     "CREATE CHANNEL rep FROM port_agg INTO port_report "
                     "REPLACE")
            .status(),
        "cq ddl");
  // Data arrives; the metrics are computed as the beans go into the jar.
  auto t_ingest = std::chrono::steady_clock::now();
  for (size_t i = 0; i < log.size(); i += 8192) {
    size_t end = std::min(log.size(), i + 8192);
    Check(cq_db.Ingest("conns",
                       std::vector<Row>(log.begin() + i, log.begin() + end)),
          "ingest");
  }
  Check(cq_db.AdvanceTime("conns",
                          log.back()[3].AsTimestampMicros() +
                              kMicrosPerMinute),
        "heartbeat");
  double ingest_ms = MillisSince(t_ingest);

  cq_db.disk()->DropCache();
  cq_db.disk()->ResetStats();
  auto t_cq = std::chrono::steady_clock::now();
  auto cq_report = cq_db.Execute(
      "SELECT dst_port, conns, total FROM port_report "
      "ORDER BY conns DESC LIMIT 5");
  Check(cq_report.status(), "cq report");
  double cq_ms = MillisSince(t_cq);
  double cq_io_ms = cq_db.disk()->stats().simulated_io_micros / 1000.0;

  // --- results ---------------------------------------------------------------
  printf("%-34s %12s %16s\n", "", "report time", "simulated disk");
  printf("%-34s %9.2f ms %13.2f ms\n",
         "store-first-query-later (batch)", batch_ms, batch_io_ms);
  printf("%-34s %9.2f ms %13.2f ms\n", "continuous analytics (active "
                                       "table)",
         cq_ms, cq_io_ms);
  printf("\nspeedup at report time: %.0fx real, %.0fx including simulated "
         "I/O\n",
         batch_ms / (cq_ms > 0.001 ? cq_ms : 0.001),
         (batch_ms + batch_io_ms) / ((cq_ms + cq_io_ms) > 0.001
                                         ? (cq_ms + cq_io_ms)
                                         : 0.001));
  printf("(continuous paid %.2f ms spread across ingest — %.2f us/row)\n\n",
         ingest_ms, ingest_ms * 1000.0 / kRows);

  printf("top ports (both approaches agree):\n");
  for (size_t i = 0; i < batch_report->rows.size(); ++i) {
    printf("  batch: %-24s continuous: %s\n",
           RowToString(batch_report->rows[i]).c_str(),
           RowToString(cq_report->rows[i]).c_str());
  }
  return 0;
}
