// perfbench_replay: the traced half of the benchmark.
//
//   perfbench_replay --workload NAME --seed N --seconds S
//
// Feeds the inputs perfbench_load sends for the same seed through the
// layers' public functions in one process — kServers fresh databases, as
// the end-to-end run has kServers servers — on the same open-loop
// schedule, and times each call: frame and body decode (net),
// Database::Ingest with the time to the first and last subscription
// callback (stream), push encoding inside those callbacks (net), a shadow
// channel commit (storage), and the report reader's parse, plan, run and
// row-set encoding (sql, exec, net) on its own thread, as in the
// end-to-end run. Prints one JSON object (see report.h) on stdout.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "engine/database.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "net/protocol.h"
#include "report.h"
#include "sql/parser.h"
#include "stats.h"
#include "stream/channel.h"
#include "workload.h"

namespace perfbench {
namespace {

using streamrel::Result;
using streamrel::Row;
using streamrel::Status;
namespace engine = streamrel::engine;
namespace exec = streamrel::exec;
namespace net = streamrel::net;

// The catalog probe gives the query layers a sample on workloads without a
// reader.
constexpr int kProbes = 20;

struct QueryTimes {
  double parse = 0, plan = 0, run = 0, encode = 0;
  double total() const { return parse + plan + run + encode; }
};

/// What Database::Execute and the server do for a snapshot SELECT, one
/// public call at a time.
Result<QueryTimes> TraceQuery(engine::Database* db, const std::string& sql) {
  QueryTimes t;
  const double t0 = NowUs();
  ASSIGN_OR_RETURN(auto stmts, streamrel::sql::ParseSql(sql));
  const double t1 = NowUs();
  const auto& select = static_cast<const streamrel::sql::SelectStmt&>(*stmts[0]);
  exec::Planner planner(db->catalog());
  ASSIGN_OR_RETURN(exec::PlannedQuery plan, planner.PlanSelect(select));
  const double t2 = NowUs();
  exec::ExecContext ctx;
  ctx.txns = db->txns();
  ctx.snapshot = db->txns()->CurrentSnapshot();
  ctx.eval.now_micros = db->now_micros();
  ASSIGN_OR_RETURN(std::vector<Row> rows, exec::CollectRows(plan.root.get(), &ctx));
  const double t3 = NowUs();
  net::RowSet rowset;
  rowset.message = "SELECT " + std::to_string(rows.size());
  rowset.schema = plan.output_schema;
  rowset.rows = std::move(rows);
  std::string bytes;
  net::EncodeFrame(net::Frame{net::FrameType::kRowSet, 1,
                              net::EncodeRowSetBody(rowset)},
                   &bytes);
  const double t4 = NowUs();
  t.parse = t1 - t0;
  t.plan = t2 - t1;
  t.run = t3 - t2;
  t.encode = t4 - t3;
  return t;
}

/// The spans of a run's timed phases, summed in µs over its segments.
struct Spans {
  int64_t rows = 0, closes = 0;
  double decode_us = 0, ingest_us = 0, admit_absorb_us = 0;
  double close_work_us = 0, push_encode_us = 0, commit_us = 0;
  std::vector<double> first_close, close_span;
  std::vector<QueryTimes> queries, probes;
};

/// One segment: a fresh database fed like one of the end-to-end run's
/// server lifetimes (set-up inputs untimed, then its timed batches).
class Segment {
 public:
  Segment(const Workload& w, uint64_t seed, Spans* spans)
      : w_(w), seed_(seed), spans_(spans), source_(w, seed) {}

  Status Run(int64_t batches) {
    RETURN_IF_ERROR(db_.Execute(w_.init_sql).status());
    RETURN_IF_ERROR(shadow_db_.Execute(w_.shadow_table_sql).status());
    const std::string& shadow_source = w_.subscribers[0][0];
    shadow_ = std::make_unique<streamrel::stream::Channel>(
        streamrel::catalog::ChannelInfo{"shadow_ch", shadow_source, "shadow",
                                        streamrel::sql::ChannelMode::kAppend},
        shadow_db_.catalog()->GetTable("shadow"), shadow_db_.txns(),
        shadow_db_.wal().get());
    for (const std::string& name : w_.outputs) {
      int copies = 0;  // end-to-end connections subscribed to `name`
      for (const auto& names : w_.subscribers) {
        for (const std::string& n : names) copies += n == name;
      }
      RETURN_IF_ERROR(
          db_.Subscribe(name, [this, name, copies, shadow = name == shadow_source](
                                  int64_t close, const std::vector<Row>& rows) {
                const double t = NowUs();
                if (first_cb_ == 0) first_cb_ = t;
                // The server's subscription callback: copy, encode, frame.
                for (int i = 0; i < copies; ++i) {
                  net::StreamRowsBody body;
                  body.source = name;
                  body.close = close;
                  body.rows = rows;
                  std::string bytes;
                  net::EncodeFrame(net::Frame{net::FrameType::kStreamRows, 1,
                                              net::EncodeStreamRowsBody(body)},
                                   &bytes);
                }
                if (shadow) pending_.emplace_back(close, rows);
                last_cb_ = NowUs();
                if (copies > 0 && timed_) push_encode_us_ += last_cb_ - t;
                return Status::OK();
              }).status());
    }

    for (int i = 0; i < w_.preload_batches; i += w_.preload_chunk) {
      RETURN_IF_ERROR(Ingest(source_.Next(w_.rows_per_batch *
                                          std::min(w_.preload_chunk,
                                                   w_.preload_batches - i))));
    }
    for (int i = 0; i < w_.warmup_batches; ++i) {
      RETURN_IF_ERROR(Ingest(source_.Next(w_.rows_per_batch)));
    }

    timed_ = true;
    const int64_t start = NowMicros() + 2000;
    const OpenLoop schedule(start, w_.period_us);
    std::thread reader;
    if (w_.reader) {
      reader = std::thread([this, batches, start] { ReaderLoop(batches, start); });
    }
    Status st;
    for (int64_t k = 0; k < batches && st.ok(); ++k) {
      schedule.WaitFor(k);
      st = Ingest(source_.Next(w_.rows_per_batch));
    }
    if (reader.joinable()) reader.join();
    RETURN_IF_ERROR(st);
    RETURN_IF_ERROR(reader_error_);
    spans_->push_encode_us += push_encode_us_;
    spans_->queries.insert(spans_->queries.end(), queries_.begin(),
                           queries_.end());

    RETURN_IF_ERROR(db_.RefreshSystemTables());
    for (int i = 0; i < kProbes; ++i) {
      ASSIGN_OR_RETURN(QueryTimes t, TraceQuery(&db_, kCatalogProbeSql));
      spans_->probes.push_back(t);
    }
    return Status::OK();
  }

 private:
  /// Decodes the batch's wire frame and ingests it; in the timed phase,
  /// records the spans.
  Status Ingest(const Batch& b) {
    const std::vector<int64_t> closes =
        prev_last_ts_ == 0 ? std::vector<int64_t>{}
                           : ClosesBetween(prev_last_ts_, b.last_ts, w_.advance_us);
    prev_last_ts_ = b.last_ts;
    const std::string bytes = IngestFrame(b, 1);

    const double t0 = NowUs();
    size_t off = 0;
    net::Frame frame;
    std::string error;
    if (net::TryDecodeFrame(bytes, &off, &frame, &error) !=
        net::DecodeStatus::kFrame) {
      return Status::Internal("frame decode failed: " + error);
    }
    net::IngestColumnarRequest req;
    ASSIGN_OR_RETURN(bool columnar, net::DecodeIngestBodyColumnar(frame.body, &req));
    if (!columnar) return Status::Internal("batch did not decode columnar");
    const double t1 = NowUs();
    first_cb_ = last_cb_ = 0;
    RETURN_IF_ERROR(db_.Ingest(req.stream, std::move(req.batch), req.system_time));
    const double t2 = NowUs();

    double commit = 0;
    for (const auto& [close, rows] : pending_) {
      const double c0 = NowUs();
      RETURN_IF_ERROR(shadow_->OnBatch(close, rows));
      commit += NowUs() - c0;
    }
    pending_.clear();
    if (!closes.empty()) acked_close_.store(closes.back());
    if (!timed_) return Status::OK();

    Spans& s = *spans_;
    s.rows += static_cast<int64_t>(b.rows.size());
    s.closes += static_cast<int64_t>(closes.size());
    s.decode_us += t1 - t0;
    s.ingest_us += t2 - t1;
    s.commit_us += commit;
    if (first_cb_ == 0) {
      s.admit_absorb_us += t2 - t1;
    } else {
      s.first_close.push_back(first_cb_ - t1);
      s.close_span.push_back(last_cb_ - first_cb_);
      s.close_work_us += last_cb_ - t1;
      s.admit_absorb_us += t2 - last_cb_;
    }
    return Status::OK();
  }

  void ReaderLoop(int64_t queries, int64_t start) {
    const OpenLoop schedule(start, w_.period_us, w_.period_us / 2);
    Rng rng(ReaderSeed(seed_));
    for (int64_t j = 0; j < queries; ++j) {
      schedule.WaitFor(j);
      const ReportQuery q = MakeReportQuery(j, &rng, acked_close_.load());
      Result<QueryTimes> t = TraceQuery(&db_, q.sql);
      if (!t.ok()) {
        reader_error_ = t.status();
        return;
      }
      queries_.push_back(*t);
    }
  }

  const Workload& w_;
  const uint64_t seed_;
  Spans* spans_;
  RowSource source_;
  engine::Database db_;
  engine::Database shadow_db_;
  std::unique_ptr<streamrel::stream::Channel> shadow_;
  std::vector<std::pair<int64_t, std::vector<Row>>> pending_;
  int64_t prev_last_ts_ = 0;
  std::atomic<int64_t> acked_close_{INT64_MIN};
  bool timed_ = false;

  // Ingest thread only: callback timestamps of the current Ingest call.
  double first_cb_ = 0, last_cb_ = 0, push_encode_us_ = 0;
  // Reader thread only; read after it is joined.
  std::vector<QueryTimes> queries_;
  Status reader_error_;
};

std::string Json(const Workload& w, const Spans& s) {
  Report r;
  const double krows = static_cast<double>(s.rows) / 1000.0;
  const double closes = static_cast<double>(std::max<int64_t>(1, s.closes));
  r.Layer("net.decode_us_per_krow", s.decode_us / krows, "us/krow");
  r.Layer("net.push_encode_us_per_close", s.push_encode_us / closes, "us");
  r.Layer("stream.admit_absorb_us_per_krow", s.admit_absorb_us / krows,
          "us/krow");
  r.Layer("stream.first_close_us", Percentile(s.first_close, 0.5), "us");
  r.Layer("stream.close_span_us", Percentile(s.close_span, 0.5), "us");
  r.Layer("storage.commit_us_per_close", s.commit_us / closes, "us");
  std::vector<double> parse, plan, run, encode;
  double query_us = 0, reader_net_us = 0;
  for (const QueryTimes& t : s.queries) {
    query_us += t.parse + t.plan + t.run;
    reader_net_us += t.encode;
  }
  for (const auto* set : {&s.queries, &s.probes}) {
    for (const QueryTimes& t : *set) {
      parse.push_back(t.parse);
      plan.push_back(t.plan);
      run.push_back(t.run);
      encode.push_back(t.encode);
    }
  }
  r.Layer("net.rowset_encode_us", Percentile(encode, 0.5), "us");
  r.Layer("sql.parse_us", Percentile(parse, 0.5), "us");
  r.Layer("exec.plan_us", Percentile(plan, 0.5), "us");
  r.Layer("exec.run_us", Percentile(run, 0.5), "us");

  // Attribution of the traced time to layers, for the coverage check. A
  // real channel commits inside Ingest, before the first callback, so its
  // (shadow-measured) cost comes out of the close time there.
  const bool has_channel =
      w.init_sql.find("CREATE CHANNEL") != std::string::npos;
  const double commit_inside = has_channel ? s.commit_us : 0;
  const double close_us = s.close_work_us - s.push_encode_us - commit_inside;
  const double net_us = s.decode_us + s.push_encode_us + reader_net_us;
  const double attributed =
      net_us + s.admit_absorb_us + close_us + commit_inside + query_us;
  double intended = 0;
  if (w.name == "firehose") intended = s.decode_us + s.admit_absorb_us;
  if (w.name == "fanout") intended = close_us;
  if (w.name == "report") intended = commit_inside + query_us;
  r.Extra("share_net", net_us / attributed);
  r.Extra("share_stream_absorb", s.admit_absorb_us / attributed);
  r.Extra("share_stream_close", close_us / attributed);
  r.Extra("share_storage_commit", commit_inside / attributed);
  r.Extra("share_sql_exec", query_us / attributed);
  r.Extra("share_intended", intended / attributed);
  // Server-side work the replay timed, for trace.unattributed_pct.
  r.Extra("traced_us", s.decode_us + s.ingest_us + query_us + reader_net_us);
  r.Extra("rows", static_cast<double>(s.rows));
  return r.Json(1, 0);
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stoll(value);
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench_replay --workload NAME --seed N --seconds S\n");
    return 2;
  }
  Spans spans;
  for (int i = 0; i < kServers; ++i) {
    Segment segment(*w, seed, &spans);
    Status st = segment.Run(w->batches_per_server(seconds));
    if (!st.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", Json(*w, spans).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
