#include "exec/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "exec/binder.h"
#include "sql/parser.h"

namespace streamrel::exec {
namespace {

/// Builds a BufferScanNode over literal rows.
ExecNodePtr Source(Schema schema, std::vector<Row> rows) {
  auto batch = std::make_shared<std::vector<Row>>(std::move(rows));
  return std::make_unique<BufferScanNode>(std::move(schema), batch);
}

Schema AB() {
  return Schema({Column("a", DataType::kInt64),
                 Column("b", DataType::kString)});
}

BoundExprPtr Bind(const Schema& schema, const std::string& text) {
  auto ast = sql::ParseExpression(text);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  ExprBinder binder(schema);
  auto bound = binder.BindScalar(**ast);
  EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
  return bound.ok() ? std::move(*bound) : nullptr;
}

BoundExprPtr ColRef(size_t index, DataType type) {
  auto e = std::make_unique<BoundExpr>(BoundExprKind::kColumn);
  e->column_index = index;
  e->type = type;
  return e;
}

std::vector<Row> RunPlan(ExecNode* node) {
  ExecContext ctx;
  storage::TransactionManager txns;
  ctx.txns = &txns;
  auto r = CollectRows(node, &ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Row>{};
}

TEST(BufferScanTest, EmitsBatchAndReopens) {
  auto node = Source(AB(), {{Value::Int64(1), Value::String("x")},
                            {Value::Int64(2), Value::String("y")}});
  EXPECT_EQ(RunPlan(node.get()).size(), 2u);
  EXPECT_EQ(RunPlan(node.get()).size(), 2u);  // re-executable
}

TEST(BufferScanTest, SwappableBatch) {
  auto* raw = new BufferScanNode(AB(), nullptr);
  ExecNodePtr node(raw);
  EXPECT_TRUE(RunPlan(node.get()).empty());
  raw->SetBatch(std::make_shared<std::vector<Row>>(
      std::vector<Row>{{Value::Int64(7), Value::String("z")}}));
  EXPECT_EQ(RunPlan(node.get()).size(), 1u);
}

TEST(FilterTest, KeepsMatching) {
  auto node = std::make_unique<FilterNode>(
      Source(AB(), {{Value::Int64(1), Value::String("x")},
                    {Value::Int64(5), Value::String("y")},
                    {Value::Int64(9), Value::String("z")}}),
      Bind(AB(), "a > 4"));
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 5);
}

TEST(ProjectTest, ComputesExpressions) {
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(Bind(AB(), "a * 10"));
  exprs.push_back(Bind(AB(), "upper(b)"));
  auto node = std::make_unique<ProjectNode>(
      Schema({Column("x", DataType::kInt64),
              Column("u", DataType::kString)}),
      Source(AB(), {{Value::Int64(3), Value::String("ab")}}),
      std::move(exprs));
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 30);
  EXPECT_EQ(rows[0][1].AsString(), "AB");
}

TEST(LimitTest, LimitAndOffset) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int64(i), Value::String("")});
  auto node = std::make_unique<LimitNode>(Source(AB(), rows), 3, 2);
  auto out = RunPlan(node.get());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0].AsInt64(), 2);
  EXPECT_EQ(out[2][0].AsInt64(), 4);
}

TEST(LimitTest, NegativeLimitMeansUnlimited) {
  std::vector<Row> rows(5, Row{Value::Int64(1), Value::String("")});
  auto node = std::make_unique<LimitNode>(Source(AB(), rows), -1, 0);
  EXPECT_EQ(RunPlan(node.get()).size(), 5u);
}

TEST(DistinctTest, RemovesDuplicates) {
  auto node = std::make_unique<DistinctNode>(
      Source(AB(), {{Value::Int64(1), Value::String("x")},
                    {Value::Int64(1), Value::String("x")},
                    {Value::Int64(1), Value::String("y")},
                    {Value::Int64(2), Value::String("x")}}));
  EXPECT_EQ(RunPlan(node.get()).size(), 3u);
}

TEST(DistinctTest, NullsAreOneGroup) {
  auto node = std::make_unique<DistinctNode>(
      Source(AB(), {{Value::Null(), Value::Null()},
                    {Value::Null(), Value::Null()}}));
  EXPECT_EQ(RunPlan(node.get()).size(), 1u);
}

TEST(SortTest, AscendingDescending) {
  std::vector<SortKey> keys;
  keys.push_back({ColRef(0, DataType::kInt64), false});
  auto node = std::make_unique<SortNode>(
      Source(AB(), {{Value::Int64(2), Value::String("b")},
                    {Value::Int64(9), Value::String("a")},
                    {Value::Int64(5), Value::String("c")}}),
      std::move(keys));
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 9);
  EXPECT_EQ(rows[2][0].AsInt64(), 2);
}

TEST(SortTest, StableOnTies) {
  std::vector<SortKey> keys;
  keys.push_back({ColRef(0, DataType::kInt64), true});
  auto node = std::make_unique<SortNode>(
      Source(AB(), {{Value::Int64(1), Value::String("first")},
                    {Value::Int64(1), Value::String("second")}}),
      std::move(keys));
  auto rows = RunPlan(node.get());
  EXPECT_EQ(rows[0][1].AsString(), "first");
  EXPECT_EQ(rows[1][1].AsString(), "second");
}

TEST(SortTest, MultiKey) {
  std::vector<SortKey> keys;
  keys.push_back({ColRef(1, DataType::kString), true});
  keys.push_back({ColRef(0, DataType::kInt64), false});
  auto node = std::make_unique<SortNode>(
      Source(AB(), {{Value::Int64(1), Value::String("b")},
                    {Value::Int64(2), Value::String("a")},
                    {Value::Int64(3), Value::String("a")}}),
      std::move(keys));
  auto rows = RunPlan(node.get());
  EXPECT_EQ(rows[0][0].AsInt64(), 3);  // a,3
  EXPECT_EQ(rows[1][0].AsInt64(), 2);  // a,2
  EXPECT_EQ(rows[2][0].AsInt64(), 1);  // b,1
}

// Ties at the limit's boundary: a sort bounded by the LIMIT above it must
// return exactly the prefix of the full stable sort, arrival order first.
TEST(SortTest, TopKUnderLimitIsTheStableSortsPrefix) {
  std::vector<Row> input;
  for (int i = 0; i < 40; ++i) {
    input.push_back({Value::Int64((i * 7) % 5),
                     Value::String("r" + std::to_string(i))});
  }
  std::vector<Row> stable = input;
  std::stable_sort(stable.begin(), stable.end(),
                   [](const Row& a, const Row& b) {
                     return a[0].Compare(b[0]) > 0;  // DESC
                   });
  for (int64_t limit : {0, 1, 7, 8, 9, 16, 39, 40, 100}) {
    for (int64_t offset : {0, 3, 8}) {
      std::vector<SortKey> keys;
      keys.push_back({ColRef(0, DataType::kInt64), false});
      auto node = std::make_unique<LimitNode>(
          std::make_unique<SortNode>(Source(AB(), input), std::move(keys)),
          limit, offset);
      std::vector<Row> want;
      for (int64_t i = offset;
           i < std::min<int64_t>(offset + limit, stable.size()); ++i) {
        want.push_back(stable[i]);
      }
      // Run twice: a re-opened plan (a CQ's next close) sorts afresh.
      for (int run = 0; run < 2; ++run) {
        auto rows = RunPlan(node.get());
        ASSERT_EQ(rows.size(), want.size()) << limit << " " << offset;
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(RowToString(rows[i]), RowToString(want[i]))
              << "limit " << limit << " offset " << offset << " row " << i;
        }
      }
    }
  }
}

TEST(SortTest, OperatorKeyEncodesTheLimitBound) {
  auto sort_key_under = [](std::optional<int64_t> limit) {
    std::vector<SortKey> keys;
    keys.push_back({ColRef(0, DataType::kInt64), true});
    ExecNodePtr node =
        std::make_unique<SortNode>(Source(AB(), {}), std::move(keys));
    const ExecNode* sort = node.get();
    if (limit.has_value()) {
      node = std::make_unique<LimitNode>(std::move(node), *limit, 0);
    }
    std::string key;
    sort->AppendOperatorKey(&key);
    return key;
  };
  EXPECT_NE(sort_key_under(std::nullopt), sort_key_under(10));
  EXPECT_NE(sort_key_under(10), sort_key_under(5));
  EXPECT_EQ(sort_key_under(10), sort_key_under(10));
  // LIMIT ALL leaves the sort unbounded.
  EXPECT_EQ(sort_key_under(std::nullopt), sort_key_under(-1));
}

std::unique_ptr<HashAggregateNode> MakeCountByB(std::vector<Row> input) {
  std::vector<BoundExprPtr> groups;
  groups.push_back(ColRef(1, DataType::kString));
  std::vector<AggregateCall> calls;
  AggregateCall call;
  call.function = "count";
  call.star = true;
  call.result_type = DataType::kInt64;
  call.display_name = "count(*)";
  calls.push_back(std::move(call));
  return std::make_unique<HashAggregateNode>(
      Schema({Column("b", DataType::kString),
              Column("count(*)", DataType::kInt64)}),
      Source(AB(), std::move(input)), std::move(groups), std::move(calls));
}

TEST(HashAggregateTest, GroupedCount) {
  auto node = MakeCountByB({{Value::Int64(1), Value::String("x")},
                            {Value::Int64(2), Value::String("y")},
                            {Value::Int64(3), Value::String("x")}});
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& row : rows) {
    if (row[0].AsString() == "x") {
      EXPECT_EQ(row[1].AsInt64(), 2);
    } else {
      EXPECT_EQ(row[1].AsInt64(), 1);
    }
  }
}

TEST(HashAggregateTest, EmptyInputWithGroupsIsEmpty) {
  auto node = MakeCountByB({});
  EXPECT_TRUE(RunPlan(node.get()).empty());
}

TEST(HashAggregateTest, ScalarAggregateOnEmptyInput) {
  std::vector<AggregateCall> calls;
  AggregateCall call;
  call.function = "count";
  call.star = true;
  call.result_type = DataType::kInt64;
  call.display_name = "count(*)";
  calls.push_back(std::move(call));
  auto node = std::make_unique<HashAggregateNode>(
      Schema({Column("count(*)", DataType::kInt64)}), Source(AB(), {}),
      std::vector<BoundExprPtr>{}, std::move(calls));
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
}

Schema XY() {
  return Schema({Column("x", DataType::kInt64),
                 Column("y", DataType::kString)});
}

TEST(HashJoinTest, InnerJoin) {
  Schema joined = Schema::Concat(AB(), XY());
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(ColRef(0, DataType::kInt64));
  rk.push_back(ColRef(0, DataType::kInt64));
  auto node = std::make_unique<HashJoinNode>(
      joined,
      Source(AB(), {{Value::Int64(1), Value::String("l1")},
                    {Value::Int64(2), Value::String("l2")},
                    {Value::Int64(3), Value::String("l3")}}),
      Source(XY(), {{Value::Int64(2), Value::String("r2")},
                    {Value::Int64(3), Value::String("r3a")},
                    {Value::Int64(3), Value::String("r3b")}}),
      std::move(lk), std::move(rk), nullptr, sql::JoinType::kInner);
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 3u);  // 2->r2, 3->r3a, 3->r3b
}

TEST(HashJoinTest, LeftJoinPadsNulls) {
  Schema joined = Schema::Concat(AB(), XY());
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(ColRef(0, DataType::kInt64));
  rk.push_back(ColRef(0, DataType::kInt64));
  auto node = std::make_unique<HashJoinNode>(
      joined,
      Source(AB(), {{Value::Int64(1), Value::String("l1")},
                    {Value::Int64(2), Value::String("l2")}}),
      Source(XY(), {{Value::Int64(2), Value::String("r2")}}),
      std::move(lk), std::move(rk), nullptr, sql::JoinType::kLeft);
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 2u);
  // Row for key 1 is null-padded on the right.
  bool found_padded = false;
  for (const Row& row : rows) {
    if (row[0].AsInt64() == 1) {
      EXPECT_TRUE(row[2].is_null());
      EXPECT_TRUE(row[3].is_null());
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Schema joined = Schema::Concat(AB(), XY());
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(ColRef(0, DataType::kInt64));
  rk.push_back(ColRef(0, DataType::kInt64));
  auto node = std::make_unique<HashJoinNode>(
      joined, Source(AB(), {{Value::Null(), Value::String("l")}}),
      Source(XY(), {{Value::Null(), Value::String("r")}}), std::move(lk),
      std::move(rk), nullptr, sql::JoinType::kInner);
  EXPECT_TRUE(RunPlan(node.get()).empty());
}

TEST(HashJoinTest, ResidualPredicate) {
  Schema joined = Schema::Concat(AB(), XY());
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(ColRef(0, DataType::kInt64));
  rk.push_back(ColRef(0, DataType::kInt64));
  auto node = std::make_unique<HashJoinNode>(
      joined,
      Source(AB(), {{Value::Int64(1), Value::String("keep")},
                    {Value::Int64(1), Value::String("drop")}}),
      Source(XY(), {{Value::Int64(1), Value::String("r")}}), std::move(lk),
      std::move(rk), Bind(joined, "b = 'keep'"), sql::JoinType::kInner);
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsString(), "keep");
}

TEST(NestedLoopJoinTest, CrossProduct) {
  Schema joined = Schema::Concat(AB(), XY());
  auto node = std::make_unique<NestedLoopJoinNode>(
      joined,
      Source(AB(), {{Value::Int64(1), Value::String("a")},
                    {Value::Int64(2), Value::String("b")}}),
      Source(XY(), {{Value::Int64(10), Value::String("x")},
                    {Value::Int64(20), Value::String("y")},
                    {Value::Int64(30), Value::String("z")}}),
      nullptr, sql::JoinType::kCross);
  EXPECT_EQ(RunPlan(node.get()).size(), 6u);
}

TEST(NestedLoopJoinTest, NonEquiCondition) {
  Schema joined = Schema::Concat(AB(), XY());
  auto node = std::make_unique<NestedLoopJoinNode>(
      joined,
      Source(AB(), {{Value::Int64(5), Value::String("l")}}),
      Source(XY(), {{Value::Int64(3), Value::String("lt")},
                    {Value::Int64(7), Value::String("gt")}}),
      Bind(joined, "a > x"), sql::JoinType::kInner);
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][3].AsString(), "lt");
}

TEST(NestedLoopJoinTest, LeftJoinNoMatch) {
  Schema joined = Schema::Concat(AB(), XY());
  auto node = std::make_unique<NestedLoopJoinNode>(
      joined, Source(AB(), {{Value::Int64(5), Value::String("l")}}),
      Source(XY(), {}), nullptr, sql::JoinType::kLeft);
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(UnionAllTest, ConcatenatesChildren) {
  std::vector<ExecNodePtr> children;
  children.push_back(Source(AB(), {{Value::Int64(1), Value::String("a")}}));
  children.push_back(Source(AB(), {}));
  children.push_back(Source(AB(), {{Value::Int64(2), Value::String("b")},
                                   {Value::Int64(3), Value::String("c")}}));
  auto node = std::make_unique<UnionAllNode>(AB(), std::move(children));
  auto rows = RunPlan(node.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[2][0].AsInt64(), 3);
}

TEST(ExplainTest, RendersTree) {
  auto node = std::make_unique<FilterNode>(Source(AB(), {}),
                                           Bind(AB(), "a > 1"));
  std::string plan = ExplainPlan(*node);
  EXPECT_NE(plan.find("Filter"), std::string::npos);
  EXPECT_NE(plan.find("BufferScan"), std::string::npos);
}

TEST(HelpersTest, HashAndEquality) {
  std::vector<Value> a = {Value::Int64(1), Value::String("x")};
  std::vector<Value> b = {Value::Int64(1), Value::String("x")};
  std::vector<Value> c = {Value::Int64(2), Value::String("x")};
  EXPECT_EQ(HashValues(a), HashValues(b));
  EXPECT_TRUE(ValuesEqual(a, b));
  EXPECT_FALSE(ValuesEqual(a, c));
  EXPECT_FALSE(ValuesEqual(a, {Value::Int64(1)}));
}

}  // namespace
}  // namespace streamrel::exec
