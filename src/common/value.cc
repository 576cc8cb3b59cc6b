#include "common/value.h"

#include <cmath>
#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/time.h"

namespace streamrel {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "boolean";
    case DataType::kInt64:
      return "bigint";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "varchar";
    case DataType::kTimestamp:
      return "timestamp";
    case DataType::kInterval:
      return "interval";
  }
  return "unknown";
}

bool IsNumericType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-type numeric comparison.
  if (IsNumericType(type_) && IsNumericType(other.type_)) {
    if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
      return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval:
      return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
    case DataType::kDouble: {
      return d_ < other.d_ ? -1 : (d_ > other.d_ ? 1 : 0);
    }
    case DataType::kString: {
      int c = s_.compare(other.s_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type_) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval:
      return std::hash<int64_t>()(i_);
    case DataType::kDouble: {
      // Hash exact-integer doubles like the equal int64 so cross-type
      // equality implies equal hashes.
      double r = std::round(d_);
      if (r == d_ && std::abs(d_) < 9.2e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d_));
      }
      return std::hash<double>()(d_);
    }
    case DataType::kString:
      return std::hash<std::string>()(s_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return i_ ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(i_);
    case DataType::kDouble: {
      char buf[32];
      snprintf(buf, sizeof(buf), "%g", d_);
      return buf;
    }
    case DataType::kString:
      return s_;
    case DataType::kTimestamp:
      return FormatTimestampMicros(i_);
    case DataType::kInterval:
      return FormatIntervalMicros(i_);
  }
  return "?";
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null() || type_ == target) return *this;
  switch (target) {
    case DataType::kBool:
      if (type_ == DataType::kInt64) return Value::Bool(i_ != 0);
      if (type_ == DataType::kString) {
        if (s_ == "true" || s_ == "t" || s_ == "1") return Value::Bool(true);
        if (s_ == "false" || s_ == "f" || s_ == "0") return Value::Bool(false);
        return Status::InvalidArgument("cannot cast '" + s_ + "' to boolean");
      }
      break;
    case DataType::kInt64:
      if (type_ == DataType::kDouble) {
        return Value::Int64(static_cast<int64_t>(d_));
      }
      if (type_ == DataType::kBool) return Value::Int64(i_);
      if (type_ == DataType::kTimestamp || type_ == DataType::kInterval) {
        return Value::Int64(i_);
      }
      if (type_ == DataType::kString) {
        errno = 0;
        char* end = nullptr;
        long long v = strtoll(s_.c_str(), &end, 10);
        if (errno != 0 || end == s_.c_str() || *end != '\0') {
          return Status::InvalidArgument("cannot cast '" + s_ +
                                         "' to bigint");
        }
        return Value::Int64(v);
      }
      break;
    case DataType::kDouble:
      if (type_ == DataType::kInt64 || type_ == DataType::kBool) {
        return Value::Double(static_cast<double>(i_));
      }
      if (type_ == DataType::kString) {
        errno = 0;
        char* end = nullptr;
        double v = strtod(s_.c_str(), &end);
        if (errno != 0 || end == s_.c_str() || *end != '\0') {
          return Status::InvalidArgument("cannot cast '" + s_ +
                                         "' to double");
        }
        return Value::Double(v);
      }
      break;
    case DataType::kString:
      return Value::String(ToString());
    case DataType::kTimestamp:
      if (type_ == DataType::kInt64) return Value::Timestamp(i_);
      if (type_ == DataType::kString) {
        auto r = ParseTimestampMicros(s_);
        if (!r.ok()) return r.status();
        return Value::Timestamp(*r);
      }
      break;
    case DataType::kInterval:
      if (type_ == DataType::kInt64) return Value::Interval(i_);
      if (type_ == DataType::kString) {
        auto r = ParseIntervalMicros(s_);
        if (!r.ok()) return r.status();
        return Value::Interval(*r);
      }
      break;
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument(std::string("cannot cast ") +
                                 DataTypeToString(type_) + " to " +
                                 DataTypeToString(target));
}

void Value::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval:
      PutI64(i_, out);
      break;
    case DataType::kDouble:
      out->append(reinterpret_cast<const char*>(&d_), sizeof(d_));
      break;
    case DataType::kString:
      PutString(s_, out);
      break;
  }
}

Result<Value> Value::Deserialize(const std::string& data, size_t* offset) {
  if (*offset >= data.size()) {
    return Status::IoError("truncated value: missing type tag");
  }
  DataType type = static_cast<DataType>(data[*offset]);
  ++*offset;
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval: {
      int64_t v = 0;
      RETURN_IF_ERROR(GetFixed(data, offset, &v));
      if (type == DataType::kBool) return Value::Bool(v != 0);
      if (type == DataType::kTimestamp) return Value::Timestamp(v);
      if (type == DataType::kInterval) return Value::Interval(v);
      return Value::Int64(v);
    }
    case DataType::kDouble: {
      double v = 0;
      RETURN_IF_ERROR(GetFixed(data, offset, &v));
      return Value::Double(v);
    }
    case DataType::kString: {
      std::string v;
      RETURN_IF_ERROR(GetString(data, offset, &v));
      return Value::String(std::move(v));
    }
  }
  return Status::IoError("unknown value type tag");
}

namespace {

Status BigintOutOfRange() {
  return Status::ExecutionError("bigint out of range");
}
Status IntervalOutOfRange() {
  return Status::ExecutionError("interval out of range");
}

/// ts + sign * interval, or an error when the result leaves int64.
Result<Value> CheckedTimestamp(int64_t ts, int64_t interval, int sign) {
  int64_t r = 0;
  const bool overflow = sign > 0 ? __builtin_add_overflow(ts, interval, &r)
                                 : __builtin_sub_overflow(ts, interval, &r);
  if (overflow) return Status::ExecutionError("timestamp out of range");
  return Value::Timestamp(r);
}

// Shared helper for the numeric arithmetic cases. `iop` may fail (division
// by zero); `dop` is infallible.
template <typename IntOp, typename DoubleOp>
Result<Value> NumericBinary(const Value& a, const Value& b, IntOp iop,
                            DoubleOp dop, const char* opname) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
    return iop(a.AsInt64(), b.AsInt64());
  }
  if (IsNumericType(a.type()) && IsNumericType(b.type())) {
    return dop(a.AsDouble(), b.AsDouble());
  }
  return Status::ExecutionError(std::string("cannot apply ") + opname +
                                " to " + DataTypeToString(a.type()) + " and " +
                                DataTypeToString(b.type()));
}

}  // namespace

Result<Value> ValueAdd(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() == DataType::kTimestamp && b.type() == DataType::kInterval) {
    return CheckedTimestamp(a.AsTimestampMicros(), b.AsIntervalMicros(), +1);
  }
  if (a.type() == DataType::kInterval && b.type() == DataType::kTimestamp) {
    return CheckedTimestamp(b.AsTimestampMicros(), a.AsIntervalMicros(), +1);
  }
  if (a.type() == DataType::kInterval && b.type() == DataType::kInterval) {
    int64_t r = 0;
    if (__builtin_add_overflow(a.AsIntervalMicros(), b.AsIntervalMicros(),
                               &r)) {
      return IntervalOutOfRange();
    }
    return Value::Interval(r);
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    return Value::String(a.AsString() + b.AsString());
  }
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        int64_t r = 0;
        if (__builtin_add_overflow(x, y, &r)) return BigintOutOfRange();
        return Value::Int64(r);
      },
      [](double x, double y) -> Result<Value> { return Value::Double(x + y); },
      "+");
}

Result<Value> ValueSub(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() == DataType::kTimestamp && b.type() == DataType::kInterval) {
    return CheckedTimestamp(a.AsTimestampMicros(), b.AsIntervalMicros(), -1);
  }
  if ((a.type() == DataType::kTimestamp && b.type() == DataType::kTimestamp) ||
      (a.type() == DataType::kInterval && b.type() == DataType::kInterval)) {
    int64_t r = 0;
    if (__builtin_sub_overflow(a.AsInt64(), b.AsInt64(), &r)) {
      return IntervalOutOfRange();
    }
    return Value::Interval(r);
  }
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        int64_t r = 0;
        if (__builtin_sub_overflow(x, y, &r)) return BigintOutOfRange();
        return Value::Int64(r);
      },
      [](double x, double y) -> Result<Value> { return Value::Double(x - y); },
      "-");
}

Result<Value> ValueMul(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() == DataType::kInterval && IsNumericType(b.type())) {
    return Value::Interval(
        static_cast<int64_t>(a.AsIntervalMicros() * b.AsDouble()));
  }
  if (IsNumericType(a.type()) && b.type() == DataType::kInterval) {
    return Value::Interval(
        static_cast<int64_t>(b.AsIntervalMicros() * a.AsDouble()));
  }
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        int64_t r = 0;
        if (__builtin_mul_overflow(x, y, &r)) return BigintOutOfRange();
        return Value::Int64(r);
      },
      [](double x, double y) -> Result<Value> { return Value::Double(x * y); },
      "*");
}

Result<Value> ValueDiv(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() == DataType::kInterval && IsNumericType(b.type())) {
    double d = b.AsDouble();
    if (d == 0) return Status::ExecutionError("interval division by zero");
    return Value::Interval(static_cast<int64_t>(a.AsIntervalMicros() / d));
  }
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        if (y == 0) return Status::ExecutionError("division by zero");
        // INT64_MIN / -1 is the one quotient that does not fit (and traps).
        if (y == -1 && x == INT64_MIN) return BigintOutOfRange();
        return Value::Int64(x / y);
      },
      [](double x, double y) -> Result<Value> {
        if (y == 0) return Status::ExecutionError("division by zero");
        return Value::Double(x / y);
      },
      "/");
}

Result<Value> ValueMod(const Value& a, const Value& b) {
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        if (y == 0) return Status::ExecutionError("modulo by zero");
        if (y == -1) return Value::Int64(0);  // INT64_MIN % -1 traps
        return Value::Int64(x % y);
      },
      [](double x, double y) -> Result<Value> {
        if (y == 0) return Status::ExecutionError("modulo by zero");
        return Value::Double(std::fmod(x, y));
      },
      "%");
}

}  // namespace streamrel
