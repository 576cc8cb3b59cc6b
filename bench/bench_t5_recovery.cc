// Experiment T5 (paper Section 4, recovery): the paper argues that
// rebuilding runtime state from active tables beats per-operator
// checkpointing — checkpointing pays a steady-state I/O tax proportional
// to buffered window state, is "hard to implement correctly", and the
// active tables are already durable for free. Shapes to verify:
// (a) steady-state overhead: checkpointing writes far more WAL bytes than
// the active-table strategy (which writes none beyond the channel's own
// appends); (b) restart cost: WAL replay + watermark resume vs replay +
// checkpoint restore are both fast, with checkpoint restore paying to
// deserialize buffered rows.

#include <benchmark/benchmark.h>

#include "stream/recovery.h"
#include "workloads.h"

namespace streamrel::bench {
namespace {

// ~2ms of stream time per row -> ~4 minutes of stream time: several window
// closes, so channels persist real history and restart has work to do.
constexpr int64_t kRows = 120000;

const char* kDdl =
    "CREATE STREAM conns (src_ip varchar, dst_port bigint, bytes bigint, "
    "ts timestamp CQTIME USER);"
    "CREATE STREAM port_agg AS SELECT dst_port, count(*) AS conns, "
    "cq_close(*) AS w FROM conns <VISIBLE '5 minutes' ADVANCE '1 minute'> "
    "GROUP BY dst_port;"
    "CREATE TABLE port_hist (dst_port bigint, conns bigint, w timestamp);"
    "CREATE CHANNEL hist_ch FROM port_agg INTO port_hist";

void IngestAll(engine::Database* db, SecurityLogWorkload* workload,
               stream::CheckpointManager* ckpt, int64_t ckpt_every_rows) {
  int64_t remaining = kRows;
  int64_t since_ckpt = 0;
  while (remaining > 0) {
    size_t n = static_cast<size_t>(std::min<int64_t>(remaining, 1024));
    Check(db->Ingest("conns", workload->NextBatch(n)), "ingest");
    remaining -= static_cast<int64_t>(n);
    since_ckpt += static_cast<int64_t>(n);
    if (ckpt != nullptr && since_ckpt >= ckpt_every_rows) {
      Check(ckpt->WriteCheckpoint(), "checkpoint");
      since_ckpt = 0;
    }
  }
}

/// Steady-state: WAL bytes written per 1k rows, without checkpointing
/// (active-table strategy: operator state is simply not persisted).
void BM_SteadyState_ActiveTableStrategy(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    engine::Database db;
    Check(db.Execute(kDdl).status(), "ddl");
    SecurityLogWorkload workload;
    state.ResumeTiming();
    IngestAll(&db, &workload, nullptr, 0);
    state.counters["wal_kb"] =
        static_cast<double>(db.wal()->byte_size()) / 1024.0;
  }
  state.counters["rows"] = static_cast<double>(kRows);
}
BENCHMARK(BM_SteadyState_ActiveTableStrategy)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Steady-state with periodic operator checkpoints (generic CQ included so
/// there is real window-buffer state to persist).
void BM_SteadyState_CheckpointStrategy(benchmark::State& state) {
  const int64_t every = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    engine::Database db;
    Check(db.Execute(kDdl).status(), "ddl");
    // A generic (non-shared) CQ carries buffered rows worth checkpointing.
    Check(db.CreateContinuousQuery(
                "raw_window",
                "SELECT src_ip, dst_port FROM conns "
                "<VISIBLE '5 minutes' ADVANCE '1 minute'> "
                "WHERE bytes > 100000",
                /*allow_shared=*/false)
              .status(),
          "generic cq");
    SecurityLogWorkload workload;
    stream::CheckpointManager ckpt(db.runtime(), db.wal().get());
    state.ResumeTiming();
    IngestAll(&db, &workload, &ckpt, every);
    state.counters["wal_kb"] =
        static_cast<double>(db.wal()->byte_size()) / 1024.0;
    state.counters["ckpt_kb"] =
        static_cast<double>(ckpt.bytes_written()) / 1024.0;
  }
  state.counters["rows"] = static_cast<double>(kRows);
}
BENCHMARK(BM_SteadyState_CheckpointStrategy)
    ->Arg(10000)  // checkpoint every 10k rows
    ->Arg(2000)   // every 2k rows (tighter recovery point, higher tax)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Restart cost, active-table strategy: WAL replay rebuilds the tables,
/// channels resume from their persisted watermarks.
void BM_Restart_ActiveTableStrategy(benchmark::State& state) {
  engine::Database db;
  Check(db.Execute(kDdl).status(), "ddl");
  SecurityLogWorkload workload;
  IngestAll(&db, &workload, nullptr, 0);

  for (auto _ : state) {
    engine::Database fresh(db.disk(), db.wal());
    Check(fresh.Execute(kDdl).status(), "re-ddl");
    auto replay = CheckResult(fresh.RecoverFromWal(), "replay");
    Check(stream::ResumeFromActiveTables(fresh.runtime(), replay),
          "resume");
    benchmark::DoNotOptimize(replay.rows_inserted);
    state.counters["rows_replayed"] =
        static_cast<double>(replay.rows_inserted);
  }
}
BENCHMARK(BM_Restart_ActiveTableStrategy)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Restart cost, checkpoint strategy: replay plus operator-state restore.
void BM_Restart_CheckpointStrategy(benchmark::State& state) {
  engine::Database db;
  Check(db.Execute(kDdl).status(), "ddl");
  Check(db.CreateContinuousQuery("raw_window",
                                 "SELECT src_ip, dst_port FROM conns "
                                 "<VISIBLE '5 minutes' ADVANCE '1 minute'> "
                                 "WHERE bytes > 100000",
                                 false)
            .status(),
        "generic cq");
  SecurityLogWorkload workload;
  stream::CheckpointManager ckpt(db.runtime(), db.wal().get());
  IngestAll(&db, &workload, &ckpt, 2000);

  for (auto _ : state) {
    engine::Database fresh(db.disk(), db.wal());
    Check(fresh.Execute(kDdl).status(), "re-ddl");
    Check(fresh.CreateContinuousQuery(
                   "raw_window",
                   "SELECT src_ip, dst_port FROM conns "
                   "<VISIBLE '5 minutes' ADVANCE '1 minute'> "
                   "WHERE bytes > 100000",
                   false)
              .status(),
          "re-cq");
    auto replay = CheckResult(fresh.RecoverFromWal(), "replay");
    stream::CheckpointManager restore(fresh.runtime(), fresh.wal().get());
    // A complete strategy on its own: restores operator blobs AND resumes
    // channels (hybrid fallback for shared CQs included).
    Check(restore.RestoreFromCheckpoints(replay), "restore");
    benchmark::DoNotOptimize(replay.rows_inserted);
  }
}
BENCHMARK(BM_Restart_CheckpointStrategy)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Restart cost after an unclean shutdown: the unsynced WAL tail is lost
/// (and, depending on the mode, torn or corrupted mid-frame), so replay
/// must detect the damage and stop cleanly at the last intact record.
/// Arg: CrashMode (0 = clean truncation, 1 = torn tail, 2 = corrupt tail).
void BM_Restart_AfterCrash(benchmark::State& state) {
  const auto mode = static_cast<storage::CrashMode>(state.range(0));
  engine::Database db;
  Check(db.Execute(kDdl).status(), "ddl");
  SecurityLogWorkload workload;
  IngestAll(&db, &workload, nullptr, 0);
  // Leave an unsynced tail for the crash to destroy: commits sync the WAL,
  // so append records for an in-flight transaction directly.
  storage::WalRecord tail;
  tail.type = storage::WalRecordType::kBegin;
  tail.txn_id = 999999;
  Check(db.wal()->Append(tail), "tail begin");
  tail.type = storage::WalRecordType::kInsert;
  tail.object_name = "port_hist";
  tail.rows = {{Value::Int64(80), Value::Int64(1), Value::Timestamp(0)}};
  Check(db.wal()->Append(tail), "tail insert");
  db.wal()->SimulateCrash(mode);

  for (auto _ : state) {
    engine::Database fresh(db.disk(), db.wal());
    Check(fresh.Execute(kDdl).status(), "re-ddl");
    auto replay = CheckResult(fresh.RecoverFromWal(), "replay");
    Check(stream::ResumeFromActiveTables(fresh.runtime(), replay),
          "resume");
    benchmark::DoNotOptimize(replay.rows_inserted);
    state.counters["rows_replayed"] =
        static_cast<double>(replay.rows_inserted);
  }
  state.counters["torn_tails"] =
      static_cast<double>(db.wal()->torn_tails_seen());
  state.counters["corrupt_tails"] =
      static_cast<double>(db.wal()->corrupt_tails_seen());
}
BENCHMARK(BM_Restart_AfterCrash)
    ->Arg(0)  // clean: unsynced tail simply gone
    ->Arg(1)  // torn: final frame cut mid-payload
    ->Arg(2)  // corrupt: final frame fails its checksum
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace streamrel::bench

BENCHMARK_MAIN();
