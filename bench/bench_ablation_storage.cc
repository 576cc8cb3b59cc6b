// Storage-layer ablations backing the paper's cost arguments:
//  (a) WAL durability policy — group commit (sync per transaction) vs.
//      a sync per row, the overhead store-first ingest pays for
//      durability of every raw row vs. continuous analytics syncing once
//      per *window* of results;
//  (b) buffer-pool sensitivity — batch report latency vs. pool size,
//      showing the memory-hierarchy cost of re-reading stored data
//      (Section 2.2: "moving data repeatedly through the memory and cache
//      hierarchy");
//  (c) VACUUM — REPLACE-channel churn: report latency on an unvacuumed vs.
//      vacuumed active table.

#include <benchmark/benchmark.h>

#include "workloads.h"

namespace streamrel::bench {
namespace {

void BM_WalGroupCommit(benchmark::State& state) {
  // 10k rows either as 200 transactions of 50 rows or as one autocommit
  // INSERT per row: one WAL sync per transaction either way, so the second
  // pays for the per-row durability store-first ingest wants.
  const int rows_per_txn = state.range(0) != 0 ? 1 : 50;
  for (auto _ : state) {
    state.PauseTiming();
    engine::Database db;
    Check(db.Execute("CREATE TABLE t (a bigint, b varchar)").status(),
          "ddl");
    state.ResumeTiming();
    for (int txn = 0; txn < 10000 / rows_per_txn; ++txn) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = 0; i < rows_per_txn; ++i) {
        if (i > 0) insert += ", ";
        insert += "(" + std::to_string(txn * rows_per_txn + i) +
                  ", 'payload')";
      }
      Check(db.Execute(insert).status(), "insert");
    }
    state.counters["sim_io_ms"] =
        static_cast<double>(db.disk()->stats().simulated_io_micros) / 1000.0;
  }
  state.counters["rows"] = 10000;
}
BENCHMARK(BM_WalGroupCommit)
    ->Arg(0)  // group commit: one sync per 50-row transaction
    ->Arg(1)  // one sync per row: an autocommit INSERT per row
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_BufferPoolSweep(benchmark::State& state) {
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  engine::Database db(StoreFirstOptions(pool_pages));
  Check(db.Execute(UrlClickWorkload::TableDdl()).status(), "ddl");
  UrlClickWorkload workload(200, 1000);
  BulkLoad(&db, "url_log", workload.NextBatch(120000));  // ~8 MB

  db.disk()->ResetStats();
  for (auto _ : state) {
    auto report = CheckResult(
        db.Execute("SELECT url, count(*) FROM url_log GROUP BY url"),
        "report");
    benchmark::DoNotOptimize(report.rows.data());
  }
  auto stats = db.disk()->stats();
  state.counters["sim_io_ms"] = benchmark::Counter(
      static_cast<double>(stats.simulated_io_micros) / 1000.0 /
      static_cast<double>(state.iterations()));
  state.counters["hit_rate_pct"] =
      100.0 * static_cast<double>(stats.cache_hits) /
      static_cast<double>(stats.cache_hits + stats.page_reads + 1);
  state.counters["pool_pages"] = static_cast<double>(pool_pages);
}
BENCHMARK(BM_BufferPoolSweep)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(4096)  // everything resident
    ->Unit(benchmark::kMillisecond)
    ->Iterations(4);

void BM_ReplaceChurnAndVacuum(benchmark::State& state) {
  const bool vacuum = state.range(0) != 0;
  engine::Database db;
  Check(db.Execute("CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
                   "CREATE STREAM agg AS SELECT k, count(*) AS c FROM s "
                   "<VISIBLE '1 minute'> GROUP BY k;"
                   "CREATE TABLE board (k bigint, c bigint);"
                   "CREATE CHANNEL ch FROM agg INTO board REPLACE")
            .status(),
        "ddl");
  // 120 windows of churn over 500 groups: 60k live+dead versions.
  std::mt19937 rng(3);
  for (int m = 0; m < 120; ++m) {
    std::vector<Row> batch;
    for (int i = 0; i < 500; ++i) {
      batch.push_back(Row{
          Value::Int64(static_cast<int64_t>(rng() % 500)),
          Value::Timestamp(m * kMin + (i + 1) * (kMin / 512))});
    }
    Check(db.Ingest("s", batch), "ingest");
    Check(db.AdvanceTime("s", (m + 1) * kMin), "hb");
  }
  if (vacuum) {
    Check(db.Execute("VACUUM board").status(), "vacuum");
  }
  for (auto _ : state) {
    auto report = CheckResult(
        db.Execute("SELECT k, c FROM board ORDER BY c DESC LIMIT 10"),
        "report");
    benchmark::DoNotOptimize(report.rows.data());
  }
  state.counters["row_versions"] = static_cast<double>(
      db.catalog()->GetTable("board")->heap->row_count());
}
BENCHMARK(BM_ReplaceChurnAndVacuum)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace
}  // namespace streamrel::bench

BENCHMARK_MAIN();
