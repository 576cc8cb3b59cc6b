#include "stream/shared_aggregation.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/memory_governor.h"
#include "common/time.h"
#include "exec/operators.h"
#include "sql/parser.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

Schema StreamSchema() {
  return Schema({Column("url", DataType::kString),
                 Column("ts", DataType::kTimestamp),
                 Column("bytes", DataType::kInt64)});
}

exec::BoundExprPtr Bind(const std::string& text) {
  auto ast = sql::ParseExpression(text);
  EXPECT_TRUE(ast.ok());
  Schema schema = StreamSchema();
  exec::ExprBinder binder(schema);
  auto bound = binder.BindScalar(**ast);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? std::move(*bound) : nullptr;
}

exec::AggregateCall Call(const std::string& fn, const std::string& arg) {
  exec::AggregateCall call;
  call.function = fn;
  if (arg == "*") {
    call.star = true;
    call.display_name = fn + "(*)";
  } else {
    call.argument = Bind(arg);
    call.display_name = fn + "(" + arg + ")";
  }
  call.result_type = *exec::InferAggregateType(
      fn, call.star, call.argument ? call.argument->type : DataType::kNull);
  return call;
}

Row R(const std::string& url, int64_t ts, int64_t bytes) {
  return Row{Value::String(url), Value::Timestamp(ts), Value::Int64(bytes)};
}

// Absorbs one row through a one-row ColumnBatch, the shape a single-row
// ingest takes.
Status Absorb(SliceAggregator* agg, int64_t ts, const Row& row) {
  exec::ColumnBatch batch(row.size());
  batch.AppendRow(row);
  return agg->AddBatch(batch, exec::SelectionVector{0}, {ts}, 0, 1);
}

std::vector<exec::BoundExprPtr> GroupByUrl() {
  std::vector<exec::BoundExprPtr> groups;
  groups.push_back(Bind("url"));
  return groups;
}

TEST(SliceAggregatorTest, BasicGroupedCount) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());

  ASSERT_TRUE(Absorb(&agg, 10 * kSec, R("/a", 10 * kSec, 100)).ok());
  ASSERT_TRUE(Absorb(&agg, 20 * kSec, R("/a", 20 * kSec, 100)).ok());
  ASSERT_TRUE(Absorb(&agg, 30 * kSec, R("/b", 30 * kSec, 100)).ok());

  auto rows = agg.ComputeWindow(kMin, kMin);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  for (const Row& row : *rows) {
    if (row[0].AsString() == "/a") {
      EXPECT_EQ(row[1].AsInt64(), 2);
    } else {
      EXPECT_EQ(row[1].AsInt64(), 1);
    }
  }
}

TEST(SliceAggregatorTest, SlidingWindowMergesSlices) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());

  // One row per minute for 5 minutes.
  for (int m = 0; m < 5; ++m) {
    ASSERT_TRUE(
        Absorb(&agg, m * kMin + 30 * kSec, R("/a", m * kMin + 30 * kSec, 1))
            .ok());
  }
  // Window [0, 3min): 3 rows. Window [2min, 5min): 3 rows.
  auto w1 = agg.ComputeWindow(3 * kMin, 3 * kMin);
  ASSERT_TRUE(w1.ok());
  ASSERT_EQ(w1->size(), 1u);
  EXPECT_EQ((*w1)[0][1].AsInt64(), 3);
  auto w2 = agg.ComputeWindow(5 * kMin, 3 * kMin);
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ((*w2)[0][1].AsInt64(), 3);
}

TEST(SliceAggregatorTest, RowAtSliceBoundaryExcludedFromClosingWindow) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  ASSERT_TRUE(Absorb(&agg, kMin, R("/a", kMin, 1)).ok());  // ts == close
  auto rows = agg.ComputeWindow(kMin, kMin);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());  // belongs to the next window
  auto next = agg.ComputeWindow(2 * kMin, kMin);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->size(), 1u);
}

TEST(SliceAggregatorTest, FilterApplied) {
  SliceAggregator agg(kMin, Bind("bytes > 50"), GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  ASSERT_TRUE(Absorb(&agg, 1, R("/a", 1, 100)).ok());
  ASSERT_TRUE(Absorb(&agg, 2, R("/a", 2, 10)).ok());  // filtered out
  auto rows = agg.ComputeWindow(kMin, kMin);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 1);
}

TEST(SliceAggregatorTest, UnionAcrossMembers) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> first;
  first.push_back(Call("count", "*"));
  auto m1 = agg.RegisterCalls(std::move(first));
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(*m1, std::vector<size_t>{0});

  // Second member: shares count(*), adds sum(bytes).
  std::vector<exec::AggregateCall> second;
  second.push_back(Call("sum", "bytes"));
  second.push_back(Call("count", "*"));
  auto m2 = agg.RegisterCalls(std::move(second));
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(*m2, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(agg.union_call_count(), 2u);

  ASSERT_TRUE(Absorb(&agg, 1, R("/a", 1, 10)).ok());
  ASSERT_TRUE(Absorb(&agg, 2, R("/a", 2, 20)).ok());
  auto rows = agg.ComputeWindow(kMin, kMin);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 2);   // count(*) at union slot 0
  EXPECT_EQ((*rows)[0][2].AsInt64(), 30);  // sum(bytes) at union slot 1
}

TEST(SliceAggregatorTest, NoBackfillForLiveAggregator) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> first;
  first.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(first)).ok());
  ASSERT_TRUE(Absorb(&agg, 1, R("/a", 1, 1)).ok());

  std::vector<exec::AggregateCall> late;
  late.push_back(Call("sum", "bytes"));
  EXPECT_FALSE(agg.CanAccept(late));
  EXPECT_FALSE(agg.RegisterCalls(std::move(late)).ok());

  // An existing aggregate is still accepted.
  std::vector<exec::AggregateCall> same;
  same.push_back(Call("count", "*"));
  EXPECT_TRUE(agg.CanAccept(same));
  EXPECT_TRUE(agg.RegisterCalls(std::move(same)).ok());
}

TEST(SliceAggregatorTest, ScalarAggregationEmptyWindow) {
  SliceAggregator agg(kMin, nullptr, {});
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  auto rows = agg.ComputeWindow(kMin, kMin);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 0);
}

TEST(SliceAggregatorTest, EvictionDropsOldSlices) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  agg.NoteWindowVisible(2 * kMin);
  for (int m = 0; m < 10; ++m) {
    ASSERT_TRUE(Absorb(&agg, m * kMin, R("/a", m * kMin, 1)).ok());
  }
  EXPECT_EQ(agg.live_slices(), 10u);
  agg.EvictBefore(10 * kMin - agg.max_visible());
  EXPECT_LE(agg.live_slices(), 2u);
  // The last window still computes correctly from the remaining slices.
  auto rows = agg.ComputeWindow(10 * kMin, 2 * kMin);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 2);
}

TEST(SliceAggregatorTest, MisalignedWindowIsInternalError) {
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("count", "*"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  EXPECT_FALSE(agg.ComputeWindow(kMin, 90 * kSec).ok());
}

TEST(SliceAggregatorTest, MultipleWindowWidthsShareOnePipeline) {
  // Two members: 1-minute and 3-minute windows over the same slices.
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("sum", "bytes"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  for (int m = 0; m < 3; ++m) {
    ASSERT_TRUE(
        Absorb(&agg, m * kMin + kSec, R("/a", m * kMin + kSec, m + 1)).ok());
  }
  auto narrow = agg.ComputeWindow(3 * kMin, kMin);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ((*narrow)[0][1].AsInt64(), 3);  // last minute only
  auto wide = agg.ComputeWindow(3 * kMin, 3 * kMin);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ((*wide)[0][1].AsInt64(), 6);  // all three
}

TEST(SliceAggregatorTest, NaNKeysGroupAndChargeLikeOtherKeys) {
  // Four rows keyed NaN form one group, as four rows keyed 5.0 do, so both
  // charge one group to the kAggregator account and close to one row.
  auto charge_for = [](double key) {
    std::vector<exec::BoundExprPtr> groups;
    groups.push_back(Bind("bytes"));
    SliceAggregator agg(kMin, nullptr, std::move(groups));
    MemoryGovernor governor;
    agg.BindGovernor(&governor);
    std::vector<exec::AggregateCall> calls;
    calls.push_back(Call("count", "*"));
    EXPECT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
    exec::ColumnBatch batch(3);
    for (int i = 0; i < 4; ++i) {
      batch.AppendRow(Row{Value::String("/a"), Value::Timestamp(i),
                          Value::Double(key)});
    }
    EXPECT_TRUE(agg.AddBatch(batch, exec::SelectionVector{0, 1, 2, 3},
                             {0, 1, 2, 3}, 0, 4)
                    .ok());
    auto rows = agg.ComputeWindow(kMin, kMin);
    EXPECT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 1u);
    if (!rows->empty()) EXPECT_EQ((*rows)[0][1].AsInt64(), 4);
    return governor.held(MemoryGovernor::Account::kAggregator);
  };
  const int64_t nan_charge =
      charge_for(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan_charge, charge_for(5.0));
  EXPECT_GT(nan_charge, 0);
}

TEST(SliceAggregatorTest, SumOverflowFailsTheAbsorbAndTheMerge) {
  // Within one slice the absorb fails; across two slices that each hold a
  // representable sum, the window merge fails.
  SliceAggregator agg(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> calls;
  calls.push_back(Call("sum", "bytes"));
  ASSERT_TRUE(agg.RegisterCalls(std::move(calls)).ok());
  const int64_t big = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE(Absorb(&agg, 1, R("/a", 1, big)).ok());
  Status st = Absorb(&agg, 2, R("/a", 2, 1));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bigint out of range"), std::string::npos);

  SliceAggregator two(kMin, nullptr, GroupByUrl());
  std::vector<exec::AggregateCall> sum;
  sum.push_back(Call("sum", "bytes"));
  ASSERT_TRUE(two.RegisterCalls(std::move(sum)).ok());
  ASSERT_TRUE(Absorb(&two, 1, R("/a", 1, big)).ok());
  ASSERT_TRUE(Absorb(&two, kMin + 1, R("/a", kMin + 1, 1)).ok());
  EXPECT_TRUE(two.ComputeWindow(kMin, kMin).ok());
  auto merged = two.ComputeWindow(2 * kMin, 2 * kMin);
  EXPECT_FALSE(merged.ok());
}

}  // namespace
}  // namespace streamrel::stream
