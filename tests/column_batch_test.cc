// Unit tests for the columnar ingest batch: append/materialize round-trips,
// the null bitmap at word boundaries, byte-estimate and hash/equality parity
// with the row-at-a-time primitives they replace, and the compiled filter
// kernels (selection vectors) differentially against EvalPredicate. These
// are the leaf-level guarantees the vectorize differential suite builds on.

#include "exec/column_batch.h"

#include <gtest/gtest.h>

#include <limits>

#include <random>
#include <string>
#include <vector>

#include "common/memory_governor.h"
#include "exec/binder.h"
#include "sql/parser.h"

namespace streamrel::exec {
namespace {

Row MixedRow(int i) {
  return Row{Value::Int64(i),
             Value::String("s" + std::to_string(i % 7)),
             Value::Double(i * 0.5),
             Value::Timestamp(i * 1'000'000)};
}

TEST(ColumnBatchTest, RowMajorRoundTripIsExact) {
  ColumnBatch batch(4);
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(MixedRow(i));
  rows.push_back(Row{Value::Null(), Value::Null(), Value::Null(),
                     Value::Null()});
  rows.push_back(Row{Value::Bool(true), Value::String(""),
                     Value::Interval(-5), Value::Double(-0.0)});
  for (const Row& row : rows) batch.AppendRow(row);

  ASSERT_EQ(batch.row_count(), rows.size());
  std::vector<Row> back = batch.MaterializeAll();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(back[r].size(), rows[r].size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      // Type tags must survive, not just Compare-equality.
      EXPECT_EQ(back[r][c].type(), rows[r][c].type()) << r << "," << c;
      EXPECT_EQ(back[r][c].Compare(rows[r][c]), 0) << r << "," << c;
      EXPECT_EQ(back[r][c].ToString(), rows[r][c].ToString());
    }
  }
}

TEST(ColumnBatchTest, ColumnMajorFillMatchesRowMajor) {
  ColumnBatch by_row(3), by_col(3);
  std::vector<Row> rows = {
      Row{Value::Int64(1), Value::String("abc"), Value::Null()},
      Row{Value::Double(2.5), Value::String(""), Value::Bool(false)},
      Row{Value::Timestamp(7), Value::Null(), Value::Interval(9)},
  };
  for (const Row& row : rows) by_row.AppendRow(row);

  by_col.AppendInt64(0, 1);
  by_col.AppendString(1, "abc");
  by_col.AppendNull(2);
  by_col.CommitRow();
  by_col.AppendDouble(0, 2.5);
  by_col.AppendString(1, "");
  by_col.AppendBool(2, false);
  by_col.CommitRow();
  by_col.AppendTimestamp(0, 7);
  by_col.AppendNull(1);
  by_col.AppendInterval(2, 9);
  by_col.CommitRow();

  ASSERT_EQ(by_col.row_count(), by_row.row_count());
  for (RowIndex r = 0; r < by_row.row_count(); ++r) {
    EXPECT_EQ(by_col.row_bytes(r), by_row.row_bytes(r)) << r;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(by_col.tag(c, r), by_row.tag(c, r)) << r << "," << c;
      EXPECT_EQ(by_col.GetValue(c, r).Compare(by_row.GetValue(c, r)), 0);
    }
  }
  EXPECT_EQ(by_col.total_row_bytes(), by_row.total_row_bytes());
}

TEST(ColumnBatchTest, NullBitmapAcrossWordBoundaries) {
  // Rows 0..199 with NULLs at every multiple of 3; exercises bits 63/64/65
  // and the bitmap growth path well past one uint64 word.
  ColumnBatch batch(1);
  size_t expected_nulls = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      batch.AppendRow(Row{Value::Null()});
      ++expected_nulls;
    } else {
      batch.AppendRow(Row{Value::Int64(i)});
    }
  }
  EXPECT_EQ(batch.null_count(0), expected_nulls);
  for (RowIndex r = 0; r < 200; ++r) {
    EXPECT_EQ(batch.is_null(0, r), r % 3 == 0) << r;
    if (r % 3 != 0) EXPECT_EQ(batch.fixed(0, r), r);
  }
  // A reserve smaller than the eventual size must not corrupt anything.
  ColumnBatch tiny(1);
  tiny.Reserve(4);
  for (int i = 0; i < 100; ++i) tiny.AppendRow(Row{Value::Int64(i)});
  for (RowIndex r = 0; r < 100; ++r) {
    EXPECT_FALSE(tiny.is_null(0, r));
    EXPECT_EQ(tiny.fixed(0, r), r);
  }
}

TEST(ColumnBatchTest, AllNullColumn) {
  ColumnBatch batch(2);
  for (int i = 0; i < 70; ++i) {
    batch.AppendRow(Row{Value::Null(), Value::Int64(i)});
  }
  EXPECT_EQ(batch.null_count(0), 70u);
  EXPECT_EQ(batch.null_count(1), 0u);
  EXPECT_EQ(batch.uniform_tag(0), DataType::kNull);   // all-null => no tag
  EXPECT_EQ(batch.uniform_tag(1), DataType::kInt64);
  for (const Row& row : batch.MaterializeAll()) {
    EXPECT_TRUE(row[0].is_null());
  }
}

TEST(ColumnBatchTest, UniformTagTracking) {
  ColumnBatch batch(3);
  batch.AppendRow(Row{Value::Int64(1), Value::String("a"), Value::Int64(1)});
  batch.AppendRow(Row{Value::Int64(2), Value::String("b"), Value::Double(2)});
  EXPECT_EQ(batch.uniform_tag(0), DataType::kInt64);
  EXPECT_EQ(batch.uniform_tag(1), DataType::kString);
  EXPECT_EQ(batch.uniform_tag(2), DataType::kNull);  // mixed int/double
  batch.AppendRow(Row{Value::Null(), Value::String("c"), Value::Int64(3)});
  EXPECT_EQ(batch.uniform_tag(0), DataType::kNull);  // NULL breaks uniformity
  EXPECT_EQ(batch.uniform_tag(1), DataType::kString);
}

TEST(ColumnBatchTest, RowBytesMatchesEstimateRowBytes) {
  ColumnBatch batch(4);
  std::mt19937 rng(7);
  for (int i = 0; i < 64; ++i) {
    Row row{Value::Int64(static_cast<int64_t>(rng())),
            Value::String(std::string(rng() % 40, 'x')),
            rng() % 2 ? Value::Null() : Value::Double(1.25 * i),
            Value::Timestamp(i)};
    batch.AppendRow(row);
    EXPECT_EQ(batch.row_bytes(static_cast<RowIndex>(i)),
              EstimateRowBytes(row))
        << i;
  }
  int64_t sum = 0;
  for (RowIndex r = 0; r < batch.row_count(); ++r) sum += batch.row_bytes(r);
  EXPECT_EQ(batch.total_row_bytes(), sum);
}

// A row of the wrong width is kept whole: its cells read NULL (so the
// columns stay aligned), torn_row() and MaterializeRow() return it
// unchanged, and its byte estimate is the original row's.
TEST(ColumnBatchTest, WrongWidthRowIsKeptTorn) {
  ColumnBatch batch(3);
  const std::vector<Row> rows = {
      Row{Value::Int64(1), Value::String("ok"), Value::Timestamp(1)},
      Row{Value::String("short")},
      Row{Value::Int64(2), Value::String("long"), Value::Timestamp(2),
          Value::String("extra")},
      Row{Value::Int64(3), Value::String("ok"), Value::Timestamp(3)},
  };
  for (const Row& row : rows) batch.AppendRow(row);
  ASSERT_EQ(batch.row_count(), rows.size());
  EXPECT_EQ(batch.torn_row(0), nullptr);
  EXPECT_EQ(batch.torn_row(3), nullptr);
  int64_t sum = 0;
  for (RowIndex r = 0; r < batch.row_count(); ++r) {
    Row out;
    batch.MaterializeRow(r, &out);
    EXPECT_EQ(RowToString(out), RowToString(rows[r])) << r;
    EXPECT_EQ(batch.row_bytes(r), EstimateRowBytes(rows[r])) << r;
    sum += batch.row_bytes(r);
  }
  EXPECT_EQ(batch.total_row_bytes(), sum);
  for (RowIndex r : {1u, 2u}) {
    ASSERT_NE(batch.torn_row(r), nullptr) << r;
    EXPECT_EQ(batch.torn_row(r)->size(), rows[r].size());
    for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(batch.is_null(c, r));
  }
  EXPECT_EQ(batch.uniform_tag(2), DataType::kNull);  // torn cells are NULL
}

TEST(ColumnBatchTest, StampTimestampRewritesCellAndEstimate) {
  ColumnBatch batch(3);
  batch.AppendRow(Row{Value::String("a"), Value::Null(), Value::Int64(1)});
  batch.AppendRow(
      Row{Value::String("bb"), Value::String("stale"), Value::Int64(2)});
  batch.StampTimestamp(1, 0, 42);
  batch.StampTimestamp(1, 1, 43);

  EXPECT_EQ(batch.tag(1, 0), DataType::kTimestamp);
  EXPECT_FALSE(batch.is_null(1, 0));
  EXPECT_EQ(batch.fixed(1, 0), 42);
  EXPECT_EQ(batch.null_count(1), 0u);
  // Byte estimates re-derive to match the materialized (stamped) rows, and
  // later cells in the shared arena stay readable.
  for (RowIndex r = 0; r < 2; ++r) {
    Row out;
    batch.MaterializeRow(r, &out);
    EXPECT_EQ(out[1].AsTimestampMicros(), 42 + static_cast<int64_t>(r));
    EXPECT_EQ(batch.row_bytes(r), EstimateRowBytes(out)) << r;
  }
  EXPECT_EQ(batch.GetValue(0, 1).AsString(), "bb");
}

TEST(ColumnBatchTest, CellHashMatchesValueHash) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),
      Value::Bool(false),     Value::Int64(0),
      Value::Int64(-17),      Value::Int64(INT64_MAX),
      Value::Double(3.0),     Value::Double(3.5),
      Value::Double(-0.0),    Value::Double(9.3e18),
      Value::Timestamp(1234), Value::Interval(-9),
      Value::String(""),      Value::String("hello world"),
  };
  ColumnBatch batch(1);
  for (const Value& v : values) batch.AppendRow(Row{v});
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(batch.CellHash(0, static_cast<RowIndex>(i)), values[i].Hash())
        << values[i].ToString();
  }
}

TEST(ColumnBatchTest, CellEqualsMatchesValueCompare) {
  std::vector<Value> values = {
      Value::Null(),      Value::Int64(3),     Value::Double(3.0),
      Value::Double(3.5), Value::String("ab"), Value::Bool(true),
      Value::Timestamp(3)};
  ColumnBatch batch(1);
  for (const Value& v : values) batch.AppendRow(Row{v});
  for (size_t i = 0; i < values.size(); ++i) {
    for (const Value& rhs : values) {
      const bool expect = values[i].Compare(rhs) == 0;
      EXPECT_EQ(batch.CellEquals(0, static_cast<RowIndex>(i), rhs), expect)
          << values[i].ToString() << " vs " << rhs.ToString();
    }
  }
  // Cross-type numeric equality (int64 3 == double 3.0) and NULL == NULL
  // are part of the contract.
  EXPECT_TRUE(batch.CellEquals(0, 1, Value::Double(3.0)));
  EXPECT_TRUE(batch.CellEquals(0, 2, Value::Int64(3)));
  EXPECT_TRUE(batch.CellEquals(0, 0, Value::Null()));
}

TEST(ColumnBatchTest, CellEqualsFollowsCompareForNaN) {
  // Value::Compare calls two doubles equal unless one is less than the
  // other, so NaN equals NaN (and every number); -0.0 equals 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> values = {Value::Double(nan), Value::Double(-0.0),
                               Value::Int64(0), Value::Double(5.0),
                               Value::Null()};
  ColumnBatch batch(1);
  for (const Value& v : values) batch.AppendRow(Row{v});
  for (size_t i = 0; i < values.size(); ++i) {
    for (const Value& rhs : values) {
      EXPECT_EQ(batch.CellEquals(0, static_cast<RowIndex>(i), rhs),
                values[i].Compare(rhs) == 0)
          << values[i].ToString() << " vs " << rhs.ToString();
    }
  }
  EXPECT_TRUE(batch.CellEquals(0, 0, Value::Double(nan)));
}

/// Binds `text` against (i bigint, s varchar, d double, ts timestamp) for
/// the filter-kernel tests.
class VectorPredicateTest : public ::testing::Test {
 protected:
  VectorPredicateTest()
      : schema_({Column("i", DataType::kInt64),
                 Column("s", DataType::kString),
                 Column("d", DataType::kDouble),
                 Column("ts", DataType::kTimestamp)}) {}

  BoundExprPtr Bind(const std::string& text) {
    auto ast = sql::ParseExpression(text);
    EXPECT_TRUE(ast.ok()) << text;
    ExprBinder binder(schema_);
    auto bound = binder.BindScalar(**ast);
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return bound.ok() ? std::move(*bound) : nullptr;
  }

  /// Filters `batch` through the kernel and through row-at-a-time
  /// EvalPredicate; both must select the same rows.
  void ExpectKernelMatchesRowPath(const ColumnBatch& batch,
                                  const std::string& text,
                                  bool expect_vectorized) {
    BoundExprPtr expr = Bind(text);
    ASSERT_NE(expr, nullptr);
    VectorPredicate pred = VectorPredicate::Compile(expr.get());
    EXPECT_EQ(pred.vectorized(), expect_vectorized) << text;

    SelectionVector sel;
    Status st = pred.Filter(batch, &sel);
    ASSERT_TRUE(st.ok()) << text << ": " << st.ToString();

    SelectionVector expected;
    EvalContext ctx;
    Row scratch;
    for (RowIndex r = 0; r < batch.row_count(); ++r) {
      batch.MaterializeRow(r, &scratch);
      auto pass = EvalPredicate(*expr, scratch, ctx);
      ASSERT_TRUE(pass.ok());
      if (*pass) expected.push_back(r);
    }
    EXPECT_EQ(sel, expected) << text;
  }

  ColumnBatch RandomBatch(uint32_t seed, int rows) {
    std::mt19937 rng(seed);
    ColumnBatch batch(4);
    for (int i = 0; i < rows; ++i) {
      Row row{rng() % 8 ? Value::Int64(static_cast<int64_t>(rng() % 100))
                        : Value::Null(),
              Value::String("u" + std::to_string(rng() % 5)),
              rng() % 8 ? Value::Double((rng() % 100) * 0.5) : Value::Null(),
              Value::Timestamp(static_cast<int64_t>(i) * 1000)};
      batch.AppendRow(row);
    }
    return batch;
  }

  Schema schema_;
};

TEST_F(VectorPredicateTest, ComparisonsRunVectorized) {
  ColumnBatch batch = RandomBatch(11, 150);
  ExpectKernelMatchesRowPath(batch, "i > 50", true);
  ExpectKernelMatchesRowPath(batch, "i <= 10", true);
  ExpectKernelMatchesRowPath(batch, "42 < i", true);  // literal-first flip
  ExpectKernelMatchesRowPath(batch, "d >= 20.0", true);
  ExpectKernelMatchesRowPath(batch, "s = 'u3'", true);
  ExpectKernelMatchesRowPath(batch, "s <> 'u0'", true);
  ExpectKernelMatchesRowPath(batch, "i = 3.5", true);  // cross-type compare
}

TEST_F(VectorPredicateTest, AndLikeAndIsNullRunVectorized) {
  ColumnBatch batch = RandomBatch(23, 150);
  ExpectKernelMatchesRowPath(batch, "i > 20 AND s = 'u1'", true);
  ExpectKernelMatchesRowPath(batch, "i > 20 AND d < 30.0 AND s <> 'u2'",
                             true);
  ExpectKernelMatchesRowPath(batch, "s LIKE 'u%'", true);
  ExpectKernelMatchesRowPath(batch, "s LIKE '_3'", true);
  ExpectKernelMatchesRowPath(batch, "i IS NULL", true);
  ExpectKernelMatchesRowPath(batch, "i IS NOT NULL", true);
  ExpectKernelMatchesRowPath(batch, "i IS NULL AND d IS NOT NULL", true);
}

TEST_F(VectorPredicateTest, GenericShapesFallBackButStayExact) {
  ColumnBatch batch = RandomBatch(37, 120);
  // Arithmetic, OR, column-vs-column, and non-string LIKE patterns have no
  // kernel; they run the scratch-row fallback with identical results.
  ExpectKernelMatchesRowPath(batch, "i + 1 > 50", false);
  ExpectKernelMatchesRowPath(batch, "i > 90 OR i < 5", false);
  ExpectKernelMatchesRowPath(batch, "i > d", false);
  ExpectKernelMatchesRowPath(batch, "s LIKE 'u%' AND i + 0 >= 0", false);
}

TEST_F(VectorPredicateTest, EdgeSelections) {
  ColumnBatch batch = RandomBatch(41, 80);
  ExpectKernelMatchesRowPath(batch, "i > 1000", true);   // all filtered
  ExpectKernelMatchesRowPath(batch, "i >= 0 OR 1 = 1", false);  // none
  ExpectKernelMatchesRowPath(batch, "ts >= 0", true);    // all pass

  // NULL predicate result rejects, same as EvalPredicate.
  ColumnBatch nulls(4);
  for (int i = 0; i < 70; ++i) {
    nulls.AppendRow(Row{Value::Null(), Value::String("x"), Value::Null(),
                        Value::Timestamp(i)});
  }
  ExpectKernelMatchesRowPath(nulls, "i > 5", true);  // all-null => all reject
  ExpectKernelMatchesRowPath(nulls, "i IS NULL", true);

  // Empty batch: no selections, no errors.
  ColumnBatch empty(4);
  ExpectKernelMatchesRowPath(empty, "i > 5", true);

  // No predicate at all: everything passes.
  VectorPredicate pass_all = VectorPredicate::Compile(nullptr);
  EXPECT_TRUE(pass_all.vectorized());
  SelectionVector sel;
  ASSERT_TRUE(pass_all.Filter(batch, &sel).ok());
  EXPECT_EQ(sel.size(), batch.row_count());
}

TEST_F(VectorPredicateTest, FilterSelectionAndPositions) {
  ColumnBatch batch = RandomBatch(53, 100);
  BoundExprPtr gt = Bind("i > 30");
  BoundExprPtr eq = Bind("s = 'u2'");
  VectorPredicate pred_gt = VectorPredicate::Compile(gt.get());
  VectorPredicate pred_eq = VectorPredicate::Compile(eq.get());

  SelectionVector first, second;
  ASSERT_TRUE(pred_gt.Filter(batch, &first).ok());
  ASSERT_TRUE(pred_eq.FilterSelection(batch, first, &second).ok());
  for (RowIndex r : second) {
    EXPECT_FALSE(batch.is_null(0, r));
    EXPECT_GT(batch.fixed(0, r), 30);
    EXPECT_EQ(batch.str(1, r), "u2");
  }

  // FilterPositions keeps the *position within sel*, so side arrays
  // indexed by position stay aligned; [from, to) restricts the scan.
  ASSERT_GE(first.size(), 3u);
  std::vector<uint32_t> positions;
  ASSERT_TRUE(
      pred_eq.FilterPositions(batch, first, 2, first.size(), &positions)
          .ok());
  std::vector<uint32_t> expected;
  for (size_t p = 2; p < first.size(); ++p) {
    if (batch.str(1, first[p]) == "u2") {
      expected.push_back(static_cast<uint32_t>(p));
    }
  }
  EXPECT_EQ(positions, expected);
}

}  // namespace
}  // namespace streamrel::exec
