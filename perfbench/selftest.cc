// Self-tests of the benchmark's own code: percentiles, the open-loop
// schedule's lateness, close detection, input determinism and the
// reference oracle. Run with `python3 perfbench/run.py --selftest` or
// `ctest` in the benchmark's build directory. Exits non-zero on failure.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                 \
    }                                                             \
  } while (0)

void TestPercentile() {
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(Percentile({7}, 0.5) == 7);
  EXPECT(Percentile({7}, 0.99) == 7);
  // Nearest rank: the smallest sample with >= q*n samples at or below it.
  EXPECT(Percentile({4, 1, 3, 2}, 0.5) == 2);
  EXPECT(Percentile({5, 1, 4, 2, 3}, 0.5) == 3);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  EXPECT(Percentile(v, 0.5) == 500);
  EXPECT(Percentile(v, 0.99) == 990);
  EXPECT(Percentile(v, 1.0) == 1000);
}

void TestTailRule() {
  // A p99 needs at least 10 samples beyond it: 1000 samples, not 999.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(5, 0.99) == 0);
  EXPECT(SamplesBeyond(0, 0.99) == 0);
}

void TestOpenLoop() {
  const OpenLoop s(1'000'000, 250, 100);
  EXPECT(s.Due(0) == 1'000'100);
  EXPECT(s.Due(4) == 1'001'100);
  // Due long ago: no sleep, and the lateness is the whole delay.
  const int64_t now = NowMicros();
  const OpenLoop past(now - 50'000, 10'000);
  const int64_t late = past.WaitFor(0);
  EXPECT(late >= 50'000 && late < 1'000'000);
  // Due in the future: the call sleeps until then and is (nearly) on time.
  const OpenLoop future(NowMicros() + 20'000, 10'000);
  const int64_t before = NowMicros();
  const int64_t on_time = future.WaitFor(0);
  EXPECT(NowMicros() - before >= 19'000);
  EXPECT(on_time >= 0 && on_time < 20'000);
}

void TestClosesBetween() {
  EXPECT(ClosesBetween(0, 59, 60).empty());
  EXPECT(ClosesBetween(59, 60, 60) == std::vector<int64_t>{60});
  EXPECT(ClosesBetween(60, 119, 60).empty());
  EXPECT((ClosesBetween(100, 300, 60) == std::vector<int64_t>{120, 180, 240, 300}));
}

void TestWorkloads() {
  for (const char* name : {"firehose", "fanout", "report"}) {
    const Workload* w = FindWorkload(name);
    EXPECT(w != nullptr);
    if (w == nullptr) continue;
    // Batches span whole slices, so every batch starts on a boundary.
    EXPECT((w->rows_per_batch * w->row_spacing_us) % w->advance_us == 0 ||
           w->advance_us % (w->rows_per_batch * w->row_spacing_us) == 0);
    EXPECT(kEpoch % w->advance_us == 0);
    EXPECT(!w->subscribers.empty() && !w->subscribers[0].empty());
  }
  EXPECT(FindWorkload("nope") == nullptr);
}

void TestRowSourceDeterminism() {
  const Workload& w = *FindWorkload("report");
  RowSource a(w, 5), b(w, 5), c(w, 6);
  const Batch x = a.Next(100), y = b.Next(100), z = c.Next(100);
  EXPECT(x.rows == y.rows);
  EXPECT(x.rows != z.rows);
  EXPECT(x.first_ts == kEpoch);
  EXPECT(x.last_ts == kEpoch + 99 * w.row_spacing_us);
  const Batch next = a.Next(1);
  EXPECT(next.first_ts == x.last_ts + w.row_spacing_us);
}

Batch MakeBatch(std::vector<std::pair<int, int64_t>> url_ts, int ip = 0) {
  Batch b;
  for (const auto& [url, ts] : url_ts) {
    b.rows.push_back({streamrel::Value::String(UrlName(url)),
                      streamrel::Value::Timestamp(ts),
                      streamrel::Value::String(IpName(ip))});
    b.url_ids.push_back(url);
    b.ip_ids.push_back(ip++);
  }
  b.first_ts = url_ts.front().second;
  b.last_ts = url_ts.back().second;
  return b;
}

void TestOracleSlidingWindow() {
  Workload w = *FindWorkload("fanout");  // 5-minute windows, 1-minute closes
  Oracle o(w);
  const int64_t m = kMinute, t0 = kEpoch;
  o.Add(MakeBatch({{1, t0}, {2, t0 + 10}, {1, t0 + m + 5}}));
  o.Add(MakeBatch({{1, t0 + 2 * m}}));
  // Close t0 + 2m covers [t0 - 3m, t0 + 2m): url 1 twice, url 2 once.
  const std::string max1 = std::to_string(t0 + m + 5);
  EXPECT((o.Expected(t0 + 2 * m) ==
          std::vector<std::string>{"/page/1|2|" + max1,
                                   "/page/2|1|" + std::to_string(t0 + 10)}));
  // Close t0 + m sees only the first minute.
  EXPECT((o.Expected(t0 + m) ==
          std::vector<std::string>{"/page/1|1|" + std::to_string(t0),
                                   "/page/2|1|" + std::to_string(t0 + 10)}));
  // Five minutes on, the first minute has slid out of the window.
  o.Add(MakeBatch({{3, t0 + 6 * m}}));
  EXPECT((o.Expected(t0 + 6 * m) ==
          std::vector<std::string>{"/page/1|2|" + std::to_string(t0 + 2 * m)}));
}

void TestOracleScalar() {
  Workload w = *FindWorkload("firehose");
  Oracle o(w);
  const int64_t t0 = kEpoch, adv = w.advance_us;
  o.Add(MakeBatch({{1, t0}, {2, t0 + 1}, {3, t0 + adv}}));
  EXPECT((o.Expected(t0 + adv) ==
          std::vector<std::string>{"2|" + std::to_string(t0 + 1)}));
}

void TestOracleReport() {
  Workload w = *FindWorkload("report");
  Oracle o(w);
  const int64_t m = kMinute, t0 = kEpoch;
  // Minute 0: url 1 from ips 0,1,0 (via repeated ip ids); url 2 once.
  Batch b = MakeBatch({{1, t0}, {1, t0 + 1}, {1, t0 + 2}, {2, t0 + 3}});
  b.ip_ids = {0, 1, 0, 5};
  o.Add(b);
  EXPECT(o.Expected(t0 + m).empty());  // not closed yet
  o.Add(MakeBatch({{2, t0 + m}, {2, t0 + m + 1}}));
  const std::string c1 = std::to_string(t0 + m);
  EXPECT((o.Expected(t0 + m) ==
          std::vector<std::string>{"/page/1|3|2|" + c1, "/page/2|1|1|" + c1}));
  o.Add(MakeBatch({{1, t0 + 2 * m}}));
  const std::string c2 = std::to_string(t0 + 2 * m);

  ReportQuery lookup;
  lookup.url = 2;
  lookup.upto = t0 + 2 * m;
  EXPECT((o.Answer(lookup) ==
          std::vector<std::string>{c1 + "|1|1", c2 + "|2|2"}));
  lookup.upto = t0 + m;
  EXPECT((o.Answer(lookup) == std::vector<std::string>{c1 + "|1|1"}));

  ReportQuery topn;
  topn.topn = true;
  topn.upto = t0 + 2 * m;
  // Ties order by URL text; sums cover both closes.
  EXPECT((o.Answer(topn) == std::vector<std::string>{"/page/1|3", "/page/2|3"}));
}

void TestReportQueries() {
  Rng a(ReaderSeed(3)), b(ReaderSeed(3));
  for (int64_t j = 0; j < 6; ++j) {
    const ReportQuery x = MakeReportQuery(j, &a, kEpoch + 30 * kMinute);
    const ReportQuery y = MakeReportQuery(j, &b, kEpoch + 30 * kMinute);
    EXPECT(x.sql == y.sql);
    EXPECT(x.topn == (j % 2 == 1));
    EXPECT(x.url >= 0 && x.url < kLookupUrls);
  }
  const ReportQuery q = MakeReportQuery(0, &a, kEpoch + kMinute);
  EXPECT(q.sql.find("'2009-01-05 00:01:00'") != std::string::npos);
}

void TestCanon() {
  const streamrel::Row row = {streamrel::Value::String("/page/1"),
                              streamrel::Value::Int64(3),
                              streamrel::Value::Timestamp(42),
                              streamrel::Value::Null()};
  EXPECT(Canon(row) == "/page/1|3|42|NULL");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentile();
  TestTailRule();
  TestOpenLoop();
  TestClosesBetween();
  TestWorkloads();
  TestRowSourceDeterminism();
  TestOracleSlidingWindow();
  TestOracleScalar();
  TestOracleReport();
  TestReportQueries();
  TestCanon();
  std::printf("perfbench self-tests: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
