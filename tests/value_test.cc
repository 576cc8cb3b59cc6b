#include "common/value.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/time.h"

namespace streamrel {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, FactoryTypes) {
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::Int64(7).type(), DataType::kInt64);
  EXPECT_EQ(Value::Double(1.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::String("x").type(), DataType::kString);
  EXPECT_EQ(Value::Timestamp(10).type(), DataType::kTimestamp);
  EXPECT_EQ(Value::Interval(10).type(), DataType::kInterval);
}

TEST(ValueTest, IntComparison) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Int64(3).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::Int64(1).Compare(Value::Double(1.0)), 0);
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
}

TEST(ValueTest, NullComparesLowest) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::String("ab").Hash(), Value::String("ab").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Double(1.5).ToString(), "1.5");
}

TEST(ValueTest, CastIntToDouble) {
  auto r = Value::Int64(3).CastTo(DataType::kDouble);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->AsDouble(), 3.0);
}

TEST(ValueTest, CastStringToInt) {
  auto r = Value::String("123").CastTo(DataType::kInt64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt64(), 123);
  EXPECT_FALSE(Value::String("12x").CastTo(DataType::kInt64).ok());
}

TEST(ValueTest, CastStringToInterval) {
  auto r = Value::String("1 week").CastTo(DataType::kInterval);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsIntervalMicros(), kMicrosPerWeek);
}

TEST(ValueTest, CastNullIsNull) {
  auto r = Value::Null().CastTo(DataType::kInt64);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
}

TEST(ValueTest, CastToStringRoundTrip) {
  auto r = Value::Int64(-5).CastTo(DataType::kString);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "-5");
}

TEST(ValueTest, SerializeRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),           Value::Bool(true),
      Value::Int64(-123456),   Value::Double(3.25),
      Value::String("hello'"), Value::Timestamp(1230000000000000),
      Value::Interval(-5000),
  };
  std::string buf;
  for (const Value& v : values) v.Serialize(&buf);
  size_t offset = 0;
  for (const Value& expected : values) {
    auto r = Value::Deserialize(buf, &offset);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->type(), expected.type());
    EXPECT_EQ(r->Compare(expected), 0) << expected.ToString();
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(ValueTest, DeserializeTruncated) {
  std::string buf;
  Value::Int64(7).Serialize(&buf);
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  EXPECT_FALSE(Value::Deserialize(buf, &offset).ok());
}

TEST(ValueArithmeticTest, IntAdd) {
  auto r = ValueAdd(Value::Int64(2), Value::Int64(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt64(), 5);
  EXPECT_EQ(r->type(), DataType::kInt64);
}

TEST(ValueArithmeticTest, MixedAddPromotesToDouble) {
  auto r = ValueAdd(Value::Int64(2), Value::Double(0.5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(r->AsDouble(), 2.5);
}

TEST(ValueArithmeticTest, NullPropagates) {
  EXPECT_TRUE(ValueAdd(Value::Null(), Value::Int64(1))->is_null());
  EXPECT_TRUE(ValueMul(Value::Int64(1), Value::Null())->is_null());
}

TEST(ValueArithmeticTest, DivisionByZero) {
  EXPECT_FALSE(ValueDiv(Value::Int64(1), Value::Int64(0)).ok());
  EXPECT_FALSE(ValueDiv(Value::Double(1), Value::Double(0)).ok());
  EXPECT_FALSE(ValueMod(Value::Int64(1), Value::Int64(0)).ok());
}

TEST(ValueArithmeticTest, IntegerDivisionTruncates) {
  auto r = ValueDiv(Value::Int64(7), Value::Int64(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt64(), 3);
}

TEST(ValueArithmeticTest, TimestampPlusInterval) {
  auto r = ValueAdd(Value::Timestamp(100), Value::Interval(50));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kTimestamp);
  EXPECT_EQ(r->AsTimestampMicros(), 150);
}

TEST(ValueArithmeticTest, TimestampMinusTimestampIsInterval) {
  auto r = ValueSub(Value::Timestamp(100), Value::Timestamp(30));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kInterval);
  EXPECT_EQ(r->AsIntervalMicros(), 70);
}

TEST(ValueArithmeticTest, TimestampMinusInterval) {
  auto r = ValueSub(Value::Timestamp(100), Value::Interval(40));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kTimestamp);
  EXPECT_EQ(r->AsTimestampMicros(), 60);
}

TEST(ValueArithmeticTest, IntervalTimesNumber) {
  auto r = ValueMul(Value::Interval(100), Value::Int64(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kInterval);
  EXPECT_EQ(r->AsIntervalMicros(), 300);
}

TEST(ValueArithmeticTest, StringConcatViaAdd) {
  auto r = ValueAdd(Value::String("a"), Value::String("b"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "ab");
}

TEST(ValueArithmeticTest, BigintOverflowIsAnError) {
  const Value max = Value::Int64(INT64_MAX);
  const Value min = Value::Int64(INT64_MIN);
  for (auto r :
       {ValueAdd(max, Value::Int64(1)), ValueSub(min, Value::Int64(1)),
        ValueMul(max, Value::Int64(2)), ValueMul(min, Value::Int64(-1)),
        ValueDiv(min, Value::Int64(-1))}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), "bigint out of range");
  }
  // INT64_MIN % -1 is 0 (the hardware instruction traps on it).
  auto mod = ValueMod(min, Value::Int64(-1));
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(mod->AsInt64(), 0);
  EXPECT_EQ(ValueAdd(max, Value::Int64(-1))->AsInt64(), INT64_MAX - 1);
  EXPECT_EQ(ValueDiv(min, Value::Int64(1))->AsInt64(), INT64_MIN);
}

TEST(ValueArithmeticTest, TimestampAndIntervalOverflowIsAnError) {
  auto ts = ValueAdd(Value::Timestamp(INT64_MAX - 5), Value::Interval(10));
  ASSERT_FALSE(ts.ok());
  EXPECT_EQ(ts.status().message(), "timestamp out of range");
  EXPECT_FALSE(
      ValueAdd(Value::Interval(10), Value::Timestamp(INT64_MAX - 5)).ok());
  EXPECT_FALSE(
      ValueSub(Value::Timestamp(INT64_MIN + 5), Value::Interval(10)).ok());
  auto iv = ValueAdd(Value::Interval(INT64_MAX), Value::Interval(1));
  ASSERT_FALSE(iv.ok());
  EXPECT_EQ(iv.status().message(), "interval out of range");
  EXPECT_FALSE(
      ValueSub(Value::Timestamp(INT64_MIN), Value::Timestamp(1)).ok());
  EXPECT_EQ(ValueAdd(Value::Timestamp(5), Value::Interval(-5))
                ->AsTimestampMicros(),
            0);
}

TEST(ValueArithmeticTest, IncompatibleTypesError) {
  EXPECT_FALSE(ValueAdd(Value::Bool(true), Value::String("x")).ok());
  EXPECT_FALSE(ValueSub(Value::String("a"), Value::String("b")).ok());
}

}  // namespace
}  // namespace streamrel
