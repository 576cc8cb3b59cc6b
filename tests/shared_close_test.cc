// Shared window close: within one close step, a shared pipeline merges
// each window once for its whole aggregate-call union, and member CQs
// with an identical post-aggregation program evaluate once and share the
// output rows (CloseMemo). The seeded differential replays a randomized
// dashboard — 8-32 CQs on one stream/filter/GROUP BY signature with
// random aggregate subsets, exact duplicates, HAVING, ORDER BY and
// LIMIT/OFFSET variants, two VISIBLE widths on one slice width, plus a
// scalar pipeline, a CQ that joins the live pipeline mid-stream and one
// dropped mid-stream — and requires the delivery transcript to be
// byte-identical to the same SQL created with allow_shared=false. The
// unit tests pin what must never share, per-CQ emit gating, the merge
// counters, and pipeline teardown when the last member is dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/time.h"
#include "test_util.h"

namespace streamrel {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

constexpr const char* kStreamDdl =
    "CREATE STREAM s (k varchar, ts timestamp CQTIME USER, v bigint, "
    "c varchar)";

Row R(const std::string& k, int64_t ts, std::optional<int64_t> v,
      const std::string& c) {
  return Row{Value::String(k), Value::Timestamp(ts),
             v.has_value() ? Value::Int64(*v) : Value::Null(),
             Value::String(c)};
}

/// Appends one line per delivery ("name@close n=<rows>") and one per row,
/// so empty closes and row order are both part of the transcript.
stream::CqCallback Record(const std::string& name,
                          std::vector<std::string>* out) {
  return [name, out](int64_t close, const std::vector<Row>& rows) {
    out->push_back(name + "@" + std::to_string(close) +
                   " n=" + std::to_string(rows.size()));
    for (const Row& row : rows) out->push_back("  " + RowToString(row));
    return Status::OK();
  };
}

std::optional<int64_t> Metric(const engine::QueryResult& stats,
                              const std::string& scope,
                              const std::string& name,
                              const std::string& metric) {
  for (const Row& row : stats.rows) {
    if (row[0].AsString() == scope && row[1].AsString() == name &&
        row[2].AsString() == metric) {
      return row[3].AsInt64();
    }
  }
  return std::nullopt;
}

int CountScope(const engine::QueryResult& stats, const std::string& scope) {
  int n = 0;
  for (const Row& row : stats.rows) n += row[0].AsString() == scope;
  return n;
}

// --- seeded differential ----------------------------------------------------

struct CqDef {
  std::string name;
  std::string sql;
};

/// The seed's dashboard: grouped CQs (one signature), scalar CQs (a second
/// signature), the mid-stream joiner, and the input schedule.
struct Plan {
  std::vector<CqDef> initial;
  CqDef joiner;
  size_t join_at = 0;  // batch index before which the joiner is created
  size_t drop_at = 0;  // batch index before which `dropped` is dropped
  std::string dropped;
  struct Batch {
    std::vector<Row> rows;
    int64_t heartbeat = INT64_MIN;  // AdvanceTime after the rows, if set
  };
  std::vector<Batch> batches;
  int64_t final_watermark = 0;
  size_t grouped = 0;  // initial[0, grouped) share the grouped pipeline
};

Plan MakePlan(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2246822519u + 7);
  auto below = [&rng](uint32_t n) { return static_cast<int>(rng() % n); };
  Plan plan;

  static const char* kAggs[] = {"count(*)", "sum(v)",
                                "min(v)",   "max(v)",
                                "count(distinct c)", "avg(v)",
                                "max(ts)"};
  constexpr int kNumAggs = 7;
  // Two VISIBLE widths on one 10-second slice width.
  static const char* kWindows[] = {
      "<VISIBLE '30 seconds' ADVANCE '10 seconds'>",
      "<VISIBLE '10 seconds'>"};
  const std::string where =
      below(2) == 0 ? ""
                    : " WHERE v > " + std::to_string(below(80) - 10);

  auto pick_aggs = [&]() {
    std::vector<int> aggs;
    for (int a = 0; a < kNumAggs; ++a) {
      if (below(3) == 0) aggs.push_back(a);
    }
    if (aggs.empty()) aggs.push_back(below(kNumAggs));
    return aggs;
  };
  auto grouped_sql = [&](const std::vector<int>& aggs, bool decorate) {
    std::string sql = "SELECT k";
    for (int a : aggs) {
      sql += std::string(", ") + kAggs[a] + " AS a" + std::to_string(a);
    }
    if (decorate && below(4) == 0) sql += ", cq_close(*) AS w";
    sql += std::string(" FROM s ") + kWindows[below(2)] + where +
           " GROUP BY k";
    if (!decorate) return sql;
    if (below(3) == 0) {
      sql += " HAVING count(*) > " + std::to_string(below(4));
    }
    if (below(2) == 0) {
      sql += " ORDER BY a" + std::to_string(aggs[below(aggs.size())]) +
             (below(2) == 0 ? " DESC" : " ASC");
      if (below(2) == 0) sql += ", k";
    }
    if (below(3) == 0) {
      sql += " LIMIT " + std::to_string(1 + below(4));
      if (below(2) == 0) sql += " OFFSET " + std::to_string(below(3));
    }
    return sql;
  };

  const int grouped = 8 + below(25);
  std::vector<int> first_aggs;
  for (int i = 0; i < grouped; ++i) {
    std::string sql;
    if (i > 0 && below(10) < 3) {
      sql = plan.initial[below(plan.initial.size())].sql;  // exact duplicate
    } else {
      std::vector<int> aggs = pick_aggs();
      if (i == 0) first_aggs = aggs;
      sql = grouped_sql(aggs, /*decorate=*/true);
    }
    plan.initial.push_back(CqDef{"g" + std::to_string(i), sql});
  }
  plan.grouped = plan.initial.size();

  // The scalar pipeline: always one exact duplicate pair.
  const int scalars = 2 + below(3);
  for (int i = 0; i < scalars; ++i) {
    std::string sql;
    if (i == 1) {
      sql = plan.initial.back().sql;
    } else {
      sql = "SELECT ";
      std::vector<int> aggs = pick_aggs();
      for (size_t j = 0; j < aggs.size(); ++j) {
        sql += (j > 0 ? ", " : "") + std::string(kAggs[aggs[j]]);
      }
      sql += std::string(" FROM s ") + kWindows[below(2)] + where;
    }
    plan.initial.push_back(CqDef{"sc" + std::to_string(i), sql});
  }

  // The joiner's aggregates are the first CQ's, so the live (frozen)
  // union already holds them and it joins instead of starting a version.
  plan.joiner = CqDef{"joiner", grouped_sql(first_aggs, /*decorate=*/true)};
  plan.dropped = plan.initial[below(plan.grouped)].name;

  static const char* kKeys[] = {"/a", "/b", "/c", "/d", "/e", "/f"};
  static const char* kClients[] = {"c1", "c2", "c3", "c4", "c5"};
  const size_t num_batches = 30 + below(20);
  plan.join_at = num_batches / 3 + below(num_batches / 3);
  plan.drop_at = 1 + below(num_batches - 1);
  int64_t ts = kSec;
  for (size_t b = 0; b < num_batches; ++b) {
    Plan::Batch batch;
    if (b == plan.join_at) {
      // A quiet gap wider than every VISIBLE: no window the joiner closes
      // can reach back to rows absorbed before it existed, which the
      // allow_shared=false twin never sees.
      ts += 40 * kSec;
    }
    const int n = 1 + below(24);
    for (int r = 0; r < n; ++r) {
      ts += below(6) * 500 * 1000;  // 0-2.5 s, ties included
      std::optional<int64_t> v;
      if (below(12) != 0) v = below(250) - 50;
      batch.rows.push_back(
          R(kKeys[below(6)], ts, v, kClients[below(5)]));
    }
    if (below(6) == 0) {
      ts += below(16) * kSec;
      batch.heartbeat = ts;
    }
    plan.batches.push_back(std::move(batch));
  }
  plan.final_watermark = ts + kMin;
  return plan;
}

/// Replays `plan`; with `shared` every CQ must take the shared strategy,
/// otherwise every CQ is generic. `row_at_a_time` ingests each row with
/// its own Ingest call instead of one call per batch.
void RunPlan(const Plan& plan, bool shared, bool row_at_a_time,
             std::vector<std::string>* transcript,
             engine::Database* db) {
  MustExecute(db, kStreamDdl);
  auto create = [&](const CqDef& def) {
    auto cq = db->CreateContinuousQuery(def.name, def.sql, shared);
    ASSERT_TRUE(cq.ok()) << def.sql << " -> " << cq.status().ToString();
    ASSERT_EQ((*cq)->is_shared(), shared) << def.sql;
    (*cq)->AddCallback(Record(def.name, transcript));
  };
  for (const CqDef& def : plan.initial) {
    create(def);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t b = 0; b < plan.batches.size(); ++b) {
    if (b == plan.join_at) {
      // Close out the quiet gap first, so the joiner starts on fresh rows.
      const int64_t first_ts =
          plan.batches[b].rows.front().at(1).AsTimestampMicros();
      ASSERT_TRUE(db->AdvanceTime("s", first_ts - kSec).ok());
      create(plan.joiner);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (b == plan.drop_at) {
      ASSERT_TRUE(db->DropContinuousQuery(plan.dropped).ok());
    }
    if (row_at_a_time) {
      for (const Row& row : plan.batches[b].rows) {
        ASSERT_TRUE(db->Ingest("s", {row}).ok());
      }
    } else {
      ASSERT_TRUE(db->Ingest("s", plan.batches[b].rows).ok());
    }
    if (plan.batches[b].heartbeat != INT64_MIN) {
      ASSERT_TRUE(db->AdvanceTime("s", plan.batches[b].heartbeat).ok());
    }
  }
  ASSERT_TRUE(db->AdvanceTime("s", plan.final_watermark).ok());
}

class SharedCloseDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SharedCloseDifferential, MatchesUnsharedTranscript) {
  const int seed = GetParam();
  const Plan plan = MakePlan(seed);
  std::vector<std::string> oracle, shared;
  engine::Database oracle_db, shared_db;
  RunPlan(plan, /*shared=*/false, /*row_at_a_time=*/false, &oracle,
          &oracle_db);
  ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  // Odd seeds feed the shared run one row per Ingest call, so every row
  // is its own batch; even seeds ingest whole batches. AdvanceTime closes
  // on both.
  RunPlan(plan, /*shared=*/true, /*row_at_a_time=*/seed % 2 == 1, &shared,
          &shared_db);
  ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;

  ASSERT_FALSE(oracle.empty());
  for (size_t i = 0; i < std::min(oracle.size(), shared.size()); ++i) {
    ASSERT_EQ(shared[i], oracle[i])
        << "seed " << seed << ": first divergence at transcript line " << i;
  }
  ASSERT_EQ(shared.size(), oracle.size()) << "seed " << seed;

  // The two pipelines (grouped and scalar) really shared their closes:
  // the joiner attached to the live grouped pipeline, each pipeline
  // merged fewer windows than its members closed, and the scalar
  // pipeline's duplicate pair reused an evaluation.
  auto stats = MustExecute(&shared_db, "SHOW STATS");
  EXPECT_EQ(Metric(stats, "engine", "runtime", "shared_pipelines"), 2)
      << "seed " << seed;
  stream::StreamRuntime* rt = shared_db.runtime();
  const stream::SliceAggregator* grouped =
      rt->GetCq(plan.joiner.name)->shared_aggregator();
  const stream::SliceAggregator* scalar =
      rt->GetCq(plan.initial[plan.grouped].name)->shared_aggregator();
  int64_t grouped_closes = 0, scalar_closes = 0;
  for (const std::string& name : rt->CqNames()) {
    const stream::ContinuousQuery* cq = rt->GetCq(name);
    if (cq->shared_aggregator() == grouped) {
      grouped_closes += cq->windows_evaluated();
    } else {
      ASSERT_EQ(cq->shared_aggregator(), scalar) << name;
      scalar_closes += cq->windows_evaluated();
    }
  }
  EXPECT_LT(grouped->window_merges(), grouped_closes) << "seed " << seed;
  EXPECT_LT(scalar->window_merges(), scalar_closes) << "seed " << seed;
  EXPECT_GT(scalar->evals_reused(), 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedCloseDifferential,
                         ::testing::Range(1, 101));

// --- unit tests -------------------------------------------------------------

class SharedCloseTest : public ::testing::Test {
 protected:
  SharedCloseTest() { MustExecute(&db_, kStreamDdl); }

  stream::ContinuousQuery* Create(const std::string& name,
                                  const std::string& sql,
                                  std::vector<std::string>* transcript) {
    auto cq = db_.CreateContinuousQuery(name, sql);
    EXPECT_TRUE(cq.ok()) << sql << " -> " << cq.status().ToString();
    if (!cq.ok()) return nullptr;
    EXPECT_TRUE((*cq)->is_shared()) << sql;
    if (transcript != nullptr) (*cq)->AddCallback(Record(name, transcript));
    return *cq;
  }

  /// Two one-minute windows' worth of rows with distinct per-key counts
  /// (/a 4, /b 3, /c 2, /d 1 in the first; reversed in the second).
  static void IngestTwoMinutes(engine::Database* db) {
    std::vector<Row> rows;
    const char* keys[] = {"/a", "/b", "/c", "/d"};
    int64_t ts = kSec;
    for (int m = 0; m < 2; ++m) {
      for (int k = 0; k < 4; ++k) {
        const int n = m == 0 ? 4 - k : k + 1;
        for (int i = 0; i < n; ++i) {
          rows.push_back(R(keys[k], ts, 10 * k + i, "c"));
          ts += kSec;
        }
      }
      ts = (m + 1) * kMin + kSec;
    }
    ASSERT_TRUE(db->Ingest("s", rows).ok());
    ASSERT_TRUE(db->AdvanceTime("s", 2 * kMin).ok());
  }

  engine::Database db_;
};

// CQs that differ only in LIMIT, ORDER direction or a HAVING literal have
// different program keys: each evaluates on its own and delivers its own
// (different) rows, while the window is still merged once per close.
TEST_F(SharedCloseTest, NearDuplicatesNeverShareOutput) {
  const std::string base =
      "SELECT k, count(*) AS n FROM s <VISIBLE '1 minute'> GROUP BY k ";
  const std::vector<std::string> variants = {
      "ORDER BY n DESC LIMIT 2",
      "ORDER BY n DESC LIMIT 4",
      "ORDER BY n ASC LIMIT 2",
      "HAVING count(*) > 1 ORDER BY n DESC",
      "HAVING count(*) > 3 ORDER BY n DESC",
  };
  std::vector<std::vector<std::string>> got(variants.size());
  stream::ContinuousQuery* first = nullptr;
  for (size_t i = 0; i < variants.size(); ++i) {
    auto* cq = Create("v" + std::to_string(i), base + variants[i], &got[i]);
    ASSERT_NE(cq, nullptr);
    if (first == nullptr) first = cq;
    ASSERT_EQ(cq->shared_aggregator(), first->shared_aggregator());
  }
  IngestTwoMinutes(&db_);

  // Each variant against its own allow_shared=false twin.
  engine::Database oracle_db;
  MustExecute(&oracle_db, kStreamDdl);
  std::vector<std::vector<std::string>> want(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    auto cq = oracle_db.CreateContinuousQuery("v" + std::to_string(i),
                                              base + variants[i], false);
    ASSERT_TRUE(cq.ok());
    (*cq)->AddCallback(Record("v" + std::to_string(i), &want[i]));
  }
  IngestTwoMinutes(&oracle_db);

  // Without the "v<i>" name prefixes, every pair of transcripts differs.
  auto unnamed = [](std::vector<std::string> t) {
    for (std::string& line : t) {
      if (line[0] == 'v') line = line.substr(line.find('@'));
    }
    return t;
  };
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << variants[i];
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(unnamed(got[i]), unnamed(got[j]))
          << variants[i] << " vs " << variants[j];
    }
  }
  const stream::SliceAggregator* agg = first->shared_aggregator();
  EXPECT_EQ(agg->evals_reused(), 0);
  EXPECT_EQ(agg->window_merges(), 2);  // two closes, one merge each
}

// An emit watermark on one of two identical CQs suppresses only that
// CQ's delivery, whichever of the two evaluates first; both still count
// every close.
TEST_F(SharedCloseTest, EmitWatermarkGatesOnlyItsOwnCq) {
  const std::string sql =
      "SELECT k, count(*) AS n, max(v) AS mx FROM s <VISIBLE '1 minute'> "
      "GROUP BY k ORDER BY n DESC";
  std::vector<std::string> gated_first, open_second, open_third, gated_last;
  auto* a = Create("a", sql, &gated_first);
  auto* b = Create("b", sql, &open_second);
  auto* c = Create("c", sql, &open_third);
  auto* d = Create("d", sql, &gated_last);
  ASSERT_TRUE(db_.runtime()->SetCqEmitWatermark("a", kMin).ok());
  ASSERT_TRUE(db_.runtime()->SetCqEmitWatermark("d", kMin).ok());
  IngestTwoMinutes(&db_);

  auto closes = [](const std::vector<std::string>& t) {
    std::vector<std::string> out;
    for (const std::string& line : t) {
      if (line[0] != ' ') out.push_back(line.substr(line.find('@')));
    }
    return out;
  };
  EXPECT_EQ(closes(open_second),
            (std::vector<std::string>{"@60000000 n=4", "@120000000 n=4"}));
  EXPECT_EQ(closes(open_third), closes(open_second));
  EXPECT_EQ(closes(gated_first), (std::vector<std::string>{"@120000000 n=4"}));
  EXPECT_EQ(closes(gated_last), closes(gated_first));
  for (auto* cq : {a, b, c, d}) EXPECT_EQ(cq->windows_evaluated(), 2);
  EXPECT_EQ(a->rows_emitted(), 4);
  EXPECT_EQ(b->rows_emitted(), 8);
  // One evaluation per close, three reuses of it.
  EXPECT_EQ(a->shared_aggregator()->window_merges(), 2);
  EXPECT_EQ(a->shared_aggregator()->evals_reused(), 6);
}

// The fanout shape in miniature: 8 CQs, 4 distinct definitions, one
// pipeline. SHOW STATS reports one merge per close and the reuses.
TEST_F(SharedCloseTest, StatsCountMergesNotCqCloses) {
  static const char* kAggSets[] = {
      "count(*) AS n",
      "count(*) AS n, count(distinct c) AS d",
      "count(*) AS n, min(ts) AS mn",
      "count(*) AS n, max(ts) AS mx",
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(Create("m" + std::to_string(i),
                     std::string("SELECT k, ") + kAggSets[i % 4] +
                         " FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'> "
                         "GROUP BY k",
                     nullptr),
              nullptr);
  }
  IngestTwoMinutes(&db_);
  auto stats = MustExecute(&db_, "SHOW STATS");
  std::string key;
  for (const Row& row : stats.rows) {
    if (row[0].AsString() == "aggregator") key = row[1].AsString();
  }
  ASSERT_FALSE(key.empty());
  EXPECT_EQ(Metric(stats, "aggregator", key, "member_cqs"), 8);
  EXPECT_EQ(Metric(stats, "cq", "m0", "windows_closed"), 2);
  EXPECT_EQ(Metric(stats, "aggregator", key, "window_merges"), 2);
  EXPECT_EQ(Metric(stats, "aggregator", key, "evals_reused"), 8);
}

// Dropping a pipeline's last member tears the pipeline down: it stops
// absorbing, releases its kAggregator charge and its aggregator/<key>
// metrics. Regression: DropCq used to leave every pipeline it ever
// created absorbing rows with member_cqs stuck at 1.
TEST_F(SharedCloseTest, DropTearsDownOrphanPipelines) {
  static const char* kAggs[] = {"count(*)", "sum(v)", "min(v)", "max(v)"};
  int64_t ts = kSec;
  for (const char* agg : kAggs) {
    ASSERT_NE(Create("churn",
                     std::string("SELECT k, ") + agg +
                         " FROM s <VISIBLE '1 minute'> GROUP BY k",
                     nullptr),
              nullptr);
    ASSERT_TRUE(db_.Ingest("s", {R("/a", ts, 1, "c"), R("/b", ts, 2, "c")})
                    .ok());
    ts += kSec;
    ASSERT_TRUE(db_.DropContinuousQuery("churn").ok());
  }
  auto stats = MustExecute(&db_, "SHOW STATS");
  EXPECT_EQ(Metric(stats, "engine", "runtime", "shared_pipelines"), 0);
  EXPECT_EQ(CountScope(stats, "aggregator"), 0);
  EXPECT_EQ(db_.runtime()->governor()->held(
                MemoryGovernor::Account::kAggregator),
            0);

  // A pipeline with two members survives the first drop at member_cqs 1
  // and keeps delivering to the survivor.
  std::vector<std::string> survivor;
  auto* keep = Create("keep",
                      "SELECT k, count(*) FROM s <VISIBLE '1 minute'> "
                      "GROUP BY k",
                      &survivor);
  ASSERT_NE(Create("leave",
                   "SELECT k, count(*), max(v) FROM s <VISIBLE '1 minute'> "
                   "GROUP BY k",
                   nullptr),
            nullptr);
  ASSERT_TRUE(db_.Ingest("s", {R("/a", ts, 1, "c")}).ok());
  ASSERT_TRUE(db_.DropContinuousQuery("leave").ok());
  EXPECT_EQ(keep->shared_aggregator()->member_cqs(), 1);
  ASSERT_TRUE(db_.Ingest("s", {R("/a", ts + kSec, 1, "c")}).ok());
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  EXPECT_EQ(survivor,
            (std::vector<std::string>{"keep@60000000 n=1", "  (/a, 2)"}));
  EXPECT_EQ(keep->shared_aggregator()->rows_absorbed(), 2);
  ASSERT_TRUE(db_.DropContinuousQuery("keep").ok());
  stats = MustExecute(&db_, "SHOW STATS");
  EXPECT_EQ(Metric(stats, "engine", "runtime", "shared_pipelines"), 0);
  EXPECT_EQ(CountScope(stats, "aggregator"), 0);
  EXPECT_EQ(db_.runtime()->governor()->held(
                MemoryGovernor::Account::kAggregator),
            0);
}

}  // namespace
}  // namespace streamrel
