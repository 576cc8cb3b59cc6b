// Microbenchmarks for the engine's building blocks: SQL parsing,
// expression evaluation, the aggregate kernels, B+Tree operations, heap scan,
// and WAL append. These bound what the macro experiments can achieve and
// catch regressions in the hot paths.

#include <benchmark/benchmark.h>

#include "exec/aggregates.h"
#include "exec/binder.h"
#include "sql/parser.h"
#include "storage/btree_index.h"
#include "workloads.h"

namespace streamrel::bench {
namespace {

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT url, count(*) url_count "
      "FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> "
      "WHERE client_ip LIKE '10.%' GROUP by url "
      "ORDER by url_count desc LIMIT 10";
  for (auto _ : state) {
    auto stmt = sql::ParseSingleStatement(sql);
    benchmark::DoNotOptimize(stmt.ok());
  }
}
BENCHMARK(BM_ParseSelect);

void BM_ExprEval(benchmark::State& state) {
  Schema schema({Column("a", DataType::kInt64),
                 Column("b", DataType::kInt64),
                 Column("s", DataType::kString)});
  auto ast = sql::ParseExpression("a * 2 + b % 7 > 10 AND s LIKE 'k%'");
  exec::ExprBinder binder(schema);
  auto bound = binder.BindScalar(**ast);
  Row row{Value::Int64(42), Value::Int64(13), Value::String("k9")};
  exec::EvalContext ctx;
  for (auto _ : state) {
    auto v = (*bound)->Eval(row, ctx);
    benchmark::DoNotOptimize(v.ok());
  }
}
BENCHMARK(BM_ExprEval);

void BM_AggregateUpdate(benchmark::State& state) {
  // sum(bigint) over a 1,024-row batch into one group: the engine's typed
  // sum kernel, per row.
  constexpr size_t kRows = 1024;
  exec::ColumnBatch batch(1);
  std::vector<exec::RowIndex> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    batch.AppendRow(Row{Value::Int64(17)});
    rows[i] = static_cast<exec::RowIndex>(i);
  }
  const std::vector<exec::CellSource> keys;
  const std::vector<exec::CellSource> args{
      exec::CellSource{&batch, 0, rows.data()}};
  std::vector<size_t> hashes(kRows);
  exec::AggregateTable::HashKeys(keys, 0, kRows, hashes.data());
  exec::AggregateTable sum(0, {exec::AggKind::kSum});
  int64_t new_bytes = 0;
  int64_t absorbed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sum.Add(keys, args, hashes.data(), 0, kRows, &new_bytes).ok());
    absorbed += kRows;
  }
  std::vector<Row> out;
  sum.Finalize(nullptr, &out);
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(absorbed);
}
BENCHMARK(BM_AggregateUpdate);

void BM_BTreeInsert(benchmark::State& state) {
  storage::BTreeIndex index("k", 0);
  uint64_t i = 0;
  for (auto _ : state) {
    index.Insert(Value::Int64(static_cast<int64_t>((i * 2654435761u) %
                                                   1000000)),
                 i);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  storage::BTreeIndex index("k", 0);
  for (int64_t i = 0; i < 100000; ++i) {
    index.Insert(Value::Int64(i), static_cast<storage::RowId>(i));
  }
  int64_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 37) % 100000;
    int64_t hits = 0;
    index.ScanEqual(Value::Int64(probe), [&](storage::RowId) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_HeapScan(benchmark::State& state) {
  const int64_t rows = state.range(0);
  engine::Database db;
  Check(db.Execute(UrlClickWorkload::TableDdl()).status(), "ddl");
  UrlClickWorkload workload(100, 1000);
  BulkLoad(&db, "url_log", workload.NextBatch(static_cast<size_t>(rows)));
  auto* table = db.catalog()->GetTable("url_log");
  for (auto _ : state) {
    int64_t n = 0;
    Check(table->heap->Scan(*db.txns(), db.txns()->CurrentSnapshot(),
                            storage::kInvalidTxn,
                            [&](storage::RowId,
                                const storage::HeapTable::RowMeta&, Row&&) {
                              ++n;
                              return true;
                            }),
          "scan");
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(rows * state.iterations());
}
BENCHMARK(BM_HeapScan)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_WalAppend(benchmark::State& state) {
  auto disk = std::make_shared<storage::SimulatedDisk>();
  storage::WriteAheadLog wal(disk);
  storage::WalRecord record;
  record.type = storage::WalRecordType::kInsert;
  record.txn_id = 1;
  record.object_name = "t";
  record.rows = {{Value::Int64(42), Value::String("payload-payload"),
                  Value::Timestamp(123456789)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(record).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

// The ingest hot path with the observability layer off (Arg 0) vs on
// (Arg 1): one shared-aggregate CQ over a raw stream, batches of 1k rows.
// The per-row cost must be indistinguishable — metrics are pushed as
// batch-level counter adds, never per-row work.
// mode 1: Row-vector input (packed into a ColumnBatch at ingest).
// mode 2: ColumnBatch input (the wire-decode hot path — no Row vector
//         ever exists).
void BM_IngestHotPath(benchmark::State& state) {
  const bool metrics_on = state.range(0) != 0;
  const int mode = static_cast<int>(state.range(1));
  engine::Database db;
  Check(db.Execute(UrlClickWorkload::StreamDdl()).status(), "ddl");
  auto cq = db.CreateContinuousQuery(
      "top_urls",
      "SELECT url, count(*) FROM url_stream <VISIBLE '1 minute'> "
      "GROUP BY url");
  Check(cq.status(), "cq");
  db.runtime()->metrics()->set_enabled(metrics_on);
  UrlClickWorkload workload(100, 1000);

  // Batches are synthesized outside the timer (the Zipf sampler costs as
  // much as columnar ingest itself); the pool refills with the clock
  // paused so only the ingest path is measured. The pool is kept small so
  // batches are cache-warm when ingested — matching the real front-end,
  // where the wire decode writes a batch immediately before dispatching it.
  constexpr size_t kPool = 32;
  std::vector<std::vector<Row>> row_pool;
  std::vector<exec::ColumnBatch> col_pool;
  auto refill = [&]() {
    row_pool.clear();
    col_pool.clear();
    for (size_t i = 0; i < kPool; ++i) {
      if (mode == 2) {
        col_pool.push_back(workload.NextColumnBatch(1000));
      } else {
        row_pool.push_back(workload.NextBatch(1000));
      }
    }
  };
  refill();

  int64_t rows = 0;
  size_t next = 0;
  for (auto _ : state) {
    if (next == kPool) {
      state.PauseTiming();
      refill();
      next = 0;
      state.ResumeTiming();
    }
    if (mode == 2) {
      Check(db.Ingest("url_stream", std::move(col_pool[next])), "ingest");
    } else {
      Check(db.Ingest("url_stream", row_pool[next]), "ingest");
    }
    ++next;
    rows += 1000;
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_IngestHotPath)
    ->ArgNames({"metrics", "mode"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotAggregateQuery(benchmark::State& state) {
  engine::Database db;
  Check(db.Execute(UrlClickWorkload::TableDdl()).status(), "ddl");
  UrlClickWorkload workload(100, 1000);
  BulkLoad(&db, "url_log", workload.NextBatch(50000));
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT url, count(*) FROM url_log GROUP BY url ORDER BY url");
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(50000 * state.iterations());
}
BENCHMARK(BM_SnapshotAggregateQuery)->Unit(benchmark::kMillisecond);

void BM_HashJoinQuery(benchmark::State& state) {
  engine::Database db;
  Check(db.Execute("CREATE TABLE a (k bigint, va bigint);"
                   "CREATE TABLE b (k bigint, vb bigint)")
            .status(),
        "ddl");
  std::mt19937 rng(1);
  std::vector<Row> ra, rb;
  for (int i = 0; i < 20000; ++i) {
    ra.push_back({Value::Int64(rng() % 5000), Value::Int64(i)});
  }
  for (int i = 0; i < 5000; ++i) {
    rb.push_back({Value::Int64(i), Value::Int64(i * 2)});
  }
  BulkLoad(&db, "a", ra);
  BulkLoad(&db, "b", rb);
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT count(*) FROM a, b WHERE a.k = b.k AND vb % 2 = 0");
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_HashJoinQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace streamrel::bench

BENCHMARK_MAIN();
