#include "exec/aggregates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace streamrel::exec {
namespace {

AggKind Kind(const std::string& name, bool star = false,
             bool distinct = false) {
  auto r = ResolveAggregate(name, star, distinct);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : AggKind::kCountStar;
}

/// Rows of (key, argument) cells absorbed through one AggregateTable::Add.
struct Chunk {
  explicit Chunk(const std::vector<Value>& args,
                 const std::vector<Value>& keys = {})
      : batch(2) {
    for (size_t i = 0; i < args.size(); ++i) {
      batch.AppendRow(Row{keys.empty() ? Value::Null() : keys[i], args[i]});
      rows.push_back(static_cast<RowIndex>(i));
    }
    hashes.resize(args.size());
  }
  Status AddTo(AggregateTable* table, bool keyed, size_t calls) {
    std::vector<CellSource> keys;
    if (keyed) keys.push_back(CellSource{&batch, 0, rows.data()});
    std::vector<CellSource> args(calls, CellSource{&batch, 1, rows.data()});
    AggregateTable::HashKeys(keys, 0, rows.size(), hashes.data());
    int64_t bytes = 0;
    return table->Add(keys, args, hashes.data(), 0, rows.size(), &bytes);
  }
  ColumnBatch batch;
  std::vector<RowIndex> rows;
  std::vector<size_t> hashes;
};

/// Folds `args` into one scalar table of `kind` and returns its result.
Value Fold(AggKind kind, const std::vector<Value>& args) {
  AggregateTable table(0, {kind});
  Chunk chunk(args);
  EXPECT_TRUE(chunk.AddTo(&table, false, 1).ok());
  table.EnsureScalarGroup();
  std::vector<Row> out;
  table.Finalize(nullptr, &out);
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? Value() : out[0][0];
}

TEST(AggregatesTest, CountStar) {
  // star counts nulls too
  EXPECT_EQ(Fold(Kind("count", true), {Value::Null(), Value::Int64(1)})
                .AsInt64(),
            2);
}

TEST(AggregatesTest, CountSkipsNulls) {
  EXPECT_EQ(Fold(Kind("count"),
                 {Value::Null(), Value::Int64(1), Value::Int64(2)})
                .AsInt64(),
            2);
}

TEST(AggregatesTest, CountDistinct) {
  EXPECT_EQ(Fold(Kind("count", false, true),
                 {Value::String("a"), Value::String("b"), Value::String("a"),
                  Value::Null()})
                .AsInt64(),
            2);
  // 1 and 1.0 are one value; NaN equals NaN; -0.0 equals 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Fold(Kind("count", false, true),
                 {Value::Int64(1), Value::Double(1.0), Value::Double(nan),
                  Value::Double(nan), Value::Double(-0.0), Value::Int64(0)})
                .AsInt64(),
            3);
}

TEST(AggregatesTest, DistinctOnlyForCount) {
  EXPECT_FALSE(ResolveAggregate("sum", false, true).ok());
  EXPECT_FALSE(ResolveAggregate("avg", true, false).ok());
  EXPECT_FALSE(ResolveAggregate("median", false, false).ok());
}

TEST(AggregatesTest, SumIntAndDouble) {
  Value s = Fold(Kind("sum"), {Value::Int64(2), Value::Int64(3)});
  EXPECT_EQ(s.AsInt64(), 5);
  EXPECT_EQ(s.type(), DataType::kInt64);

  Value d = Fold(Kind("sum"), {Value::Double(1.5), Value::Int64(2)});
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
}

TEST(AggregatesTest, SumStartsAtItsFirstValue) {
  // -0.0 stays -0.0 (0.0 + -0.0 would be +0.0); avg starts at +0.0.
  Value s = Fold(Kind("sum"), {Value::Double(-0.0)});
  EXPECT_TRUE(std::signbit(s.AsDouble()));
  Value a = Fold(Kind("avg"), {Value::Double(-0.0)});
  EXPECT_FALSE(std::signbit(a.AsDouble()));
}

TEST(AggregatesTest, SumOverflowIsAnError) {
  AggregateTable table(0, {Kind("sum")});
  Chunk chunk({Value::Int64(std::numeric_limits<int64_t>::max()),
               Value::Int64(1)});
  Status st = chunk.AddTo(&table, false, 1);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bigint out of range"), std::string::npos);
}

TEST(AggregatesTest, SumOfNothingIsNull) {
  EXPECT_TRUE(Fold(Kind("sum"), {}).is_null());
  EXPECT_TRUE(Fold(Kind("sum"), {Value::Null()}).is_null());
}

TEST(AggregatesTest, Avg) {
  EXPECT_DOUBLE_EQ(
      Fold(Kind("avg"), {Value::Int64(1), Value::Int64(2), Value::Null()})
          .AsDouble(),
      1.5);
}

TEST(AggregatesTest, MinMax) {
  std::vector<Value> data;
  for (int v : {5, 2, 9, 2}) data.push_back(Value::Int64(v));
  EXPECT_EQ(Fold(Kind("min"), data).AsInt64(), 2);
  EXPECT_EQ(Fold(Kind("max"), data).AsInt64(), 9);
}

TEST(AggregatesTest, MinMaxStrings) {
  EXPECT_EQ(
      Fold(Kind("min"), {Value::String("pear"), Value::String("apple")})
          .AsString(),
      "apple");
}

TEST(AggregatesTest, MinMaxMixedTypesKeepTheFirstOfEquals) {
  // A mixed column folds boxed with Value::Compare: 1 == 1.0, so the
  // first stays, with its own type.
  Value m = Fold(Kind("min"), {Value::Int64(1), Value::Double(1.0)});
  EXPECT_EQ(m.type(), DataType::kInt64);
  Value x = Fold(Kind("max"),
                 {Value::Int64(3), Value::Double(3.5), Value::Int64(2)});
  EXPECT_EQ(x.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(x.AsDouble(), 3.5);
}

TEST(AggregatesTest, Stddev) {
  std::vector<Value> data;
  for (int v : {2, 4, 4, 4, 5, 5, 7, 9}) data.push_back(Value::Int64(v));
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(Fold(Kind("stddev"), data).AsDouble(), 2.138, 0.001);
}

TEST(AggregatesTest, StddevNeedsTwo) {
  EXPECT_TRUE(Fold(Kind("stddev"), {}).is_null());
  EXPECT_TRUE(Fold(Kind("stddev"), {Value::Int64(1)}).is_null());
  EXPECT_FALSE(
      Fold(Kind("stddev"), {Value::Int64(1), Value::Int64(3)}).is_null());
}

TEST(AggregatesTest, GroupsKeepFirstArrivalOrderAndValueEquality) {
  // NULL keys group together, NaN keys group together, 1 and 1.0 are one
  // key (the first arrival's).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  AggregateTable table(1, {Kind("count", true)});
  Chunk chunk(std::vector<Value>(7, Value::Int64(0)),
              {Value::Double(nan), Value::Null(), Value::Int64(1),
               Value::Double(nan), Value::Double(1.0), Value::Null(),
               Value::Double(nan)});
  ASSERT_TRUE(chunk.AddTo(&table, true, 1).ok());
  std::vector<Row> out;
  table.Finalize(nullptr, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::isnan(out[0][0].AsDouble()));
  EXPECT_EQ(out[0][1].AsInt64(), 3);
  EXPECT_TRUE(out[1][0].is_null());
  EXPECT_EQ(out[1][1].AsInt64(), 2);
  EXPECT_EQ(out[2][0].type(), DataType::kInt64);
  EXPECT_EQ(out[2][1].AsInt64(), 2);
}

// --- Merge: the property shared slices rely on. ----------------------------

struct MergeCase {
  const char* name;
  bool star;
  bool distinct;
};

class MergeEqualsSequentialTest : public ::testing::TestWithParam<MergeCase> {
};

TEST_P(MergeEqualsSequentialTest, SplitMergeMatchesSequential) {
  const MergeCase& c = GetParam();
  const AggKind kind = Kind(c.name, c.star, c.distinct);
  std::vector<Value> data;
  for (int i = 0; i < 100; ++i) {
    if (i % 11 == 0) {
      data.push_back(Value::Null());
    } else {
      data.push_back(Value::Int64((i * 37) % 13));
    }
  }
  // Sequential reference.
  Value expected = Fold(kind, data);

  // Split into 7 partials, then merge.
  std::vector<std::vector<Value>> parts(7);
  for (size_t i = 0; i < data.size(); ++i) parts[i % 7].push_back(data[i]);
  AggregateTable merged(0, {kind});
  for (const auto& part : parts) {
    AggregateTable partial(0, {kind});
    Chunk chunk(part);
    ASSERT_TRUE(chunk.AddTo(&partial, false, 1).ok());
    ASSERT_TRUE(merged.Merge(partial, nullptr).ok());
  }
  std::vector<Row> out;
  merged.Finalize(nullptr, &out);
  ASSERT_EQ(out.size(), 1u);
  Value actual = out[0][0];
  if (expected.is_null()) {
    EXPECT_TRUE(actual.is_null());
  } else if (expected.type() == DataType::kDouble) {
    EXPECT_NEAR(actual.AsDouble(), expected.AsDouble(), 1e-9);
  } else {
    EXPECT_EQ(actual.Compare(expected), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, MergeEqualsSequentialTest,
    ::testing::Values(MergeCase{"count", true, false},
                      MergeCase{"count", false, false},
                      MergeCase{"count", false, true},
                      MergeCase{"sum", false, false},
                      MergeCase{"avg", false, false},
                      MergeCase{"min", false, false},
                      MergeCase{"max", false, false},
                      MergeCase{"stddev", false, false}),
    [](const ::testing::TestParamInfo<MergeCase>& info) {
      std::string n = info.param.name;
      if (info.param.star) n += "_star";
      if (info.param.distinct) n += "_distinct";
      return n;
    });

TEST(AggregatesTest, MergeLeavesTheSourceUntouched) {
  AggregateTable source(0, {Kind("sum")});
  Chunk five({Value::Int64(5)});
  ASSERT_TRUE(five.AddTo(&source, false, 1).ok());
  AggregateTable window(0, {Kind("sum")});
  ASSERT_TRUE(window.Merge(source, nullptr).ok());
  Chunk ten({Value::Int64(10)});
  ASSERT_TRUE(ten.AddTo(&window, false, 1).ok());
  std::vector<Row> src_out, win_out;
  source.Finalize(nullptr, &src_out);
  window.Finalize(nullptr, &win_out);
  EXPECT_EQ(src_out[0][0].AsInt64(), 5);
  EXPECT_EQ(win_out[0][0].AsInt64(), 15);
}

TEST(AggregatesTest, TypeInference) {
  EXPECT_EQ(*InferAggregateType("count", true, DataType::kNull),
            DataType::kInt64);
  EXPECT_EQ(*InferAggregateType("avg", false, DataType::kInt64),
            DataType::kDouble);
  EXPECT_EQ(*InferAggregateType("sum", false, DataType::kDouble),
            DataType::kDouble);
  EXPECT_EQ(*InferAggregateType("min", false, DataType::kString),
            DataType::kString);
  EXPECT_FALSE(InferAggregateType("sum", true, DataType::kNull).ok());
}

TEST(AggregatesTest, IsAggregateFunction) {
  EXPECT_TRUE(IsAggregateFunction("count"));
  EXPECT_TRUE(IsAggregateFunction("stddev"));
  EXPECT_FALSE(IsAggregateFunction("lower"));
  EXPECT_FALSE(IsAggregateFunction("cq_close"));
}

}  // namespace
}  // namespace streamrel::exec
