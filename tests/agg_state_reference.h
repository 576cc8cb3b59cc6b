#ifndef STREAMREL_TESTS_AGG_STATE_REFERENCE_H_
#define STREAMREL_TESTS_AGG_STATE_REFERENCE_H_

// Reference aggregate states for the kernel differential
// (aggregate_kernel_differential_test): one heap object per aggregate per
// group, updated a boxed Value at a time. These are the states the engine
// ran before exec::AggregateTable, kept as they were except that sum
// reports a bigint/timestamp/interval overflow instead of skipping it.

#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/status.h"
#include "common/value.h"

namespace streamrel::reference {

/// Incremental, mergeable state of one aggregate over one group.
class AggState {
 public:
  virtual ~AggState() = default;

  /// Folds one input value in. For count(*) the argument is ignored.
  virtual Status Update(const Value& arg) = 0;

  /// Absorbs `other` (same concrete type).
  virtual Status Merge(const AggState& other) = 0;

  /// Produces the aggregate result for the rows folded so far.
  virtual Value Final() const = 0;

  /// Deep copy.
  virtual std::unique_ptr<AggState> Clone() const = 0;
};

using AggStatePtr = std::unique_ptr<AggState>;

class CountState : public AggState {
 public:
  explicit CountState(bool star) : star_(star) {}

  Status Update(const Value& arg) override {
    if (star_ || !arg.is_null()) ++count_;
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    count_ += static_cast<const CountState&>(other).count_;
    return Status::OK();
  }
  Value Final() const override { return Value::Int64(count_); }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<CountState>(star_);
    copy->count_ = count_;
    return copy;
  }

 private:
  bool star_;
  int64_t count_ = 0;
};

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

class CountDistinctState : public AggState {
 public:
  Status Update(const Value& arg) override {
    if (!arg.is_null()) seen_.insert(arg);
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    const auto& o = static_cast<const CountDistinctState&>(other);
    seen_.insert(o.seen_.begin(), o.seen_.end());
    return Status::OK();
  }
  Value Final() const override {
    return Value::Int64(static_cast<int64_t>(seen_.size()));
  }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<CountDistinctState>();
    copy->seen_ = seen_;
    return copy;
  }

 private:
  std::unordered_set<Value, ValueHasher> seen_;
};

class SumState : public AggState {
 public:
  Status Update(const Value& arg) override {
    if (arg.is_null()) return Status::OK();
    if (!has_value_) {
      sum_ = arg;
      has_value_ = true;
      return Status::OK();
    }
    auto r = ValueAdd(sum_, arg);
    if (r.ok()) {
      sum_ = *r;
    } else if (r.status().message().find("out of range") !=
               std::string::npos) {
      return r.status();  // overflow; any other error skips the input
    }
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    const auto& o = static_cast<const SumState&>(other);
    if (o.has_value_) return Update(o.sum_);
    return Status::OK();
  }
  Value Final() const override { return has_value_ ? sum_ : Value::Null(); }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<SumState>();
    copy->sum_ = sum_;
    copy->has_value_ = has_value_;
    return copy;
  }

 private:
  Value sum_;
  bool has_value_ = false;
};

class AvgState : public AggState {
 public:
  Status Update(const Value& arg) override {
    if (arg.is_null()) return Status::OK();
    sum_ += arg.AsDouble();
    ++count_;
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    const auto& o = static_cast<const AvgState&>(other);
    sum_ += o.sum_;
    count_ += o.count_;
    return Status::OK();
  }
  Value Final() const override {
    if (count_ == 0) return Value::Null();
    return Value::Double(sum_ / static_cast<double>(count_));
  }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<AvgState>();
    copy->sum_ = sum_;
    copy->count_ = count_;
    return copy;
  }

 private:
  double sum_ = 0;
  int64_t count_ = 0;
};

class MinMaxState : public AggState {
 public:
  explicit MinMaxState(bool is_min) : is_min_(is_min) {}

  Status Update(const Value& arg) override {
    if (arg.is_null()) return Status::OK();
    if (best_.is_null() || (is_min_ ? arg < best_ : best_ < arg)) {
      best_ = arg;
    }
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    return Update(static_cast<const MinMaxState&>(other).best_);
  }
  Value Final() const override { return best_; }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<MinMaxState>(is_min_);
    copy->best_ = best_;
    return copy;
  }

 private:
  bool is_min_;
  Value best_;
};

/// Sample standard deviation tracked as (n, sum, sum of squares) so that
/// slice partials merge exactly.
class StddevState : public AggState {
 public:
  Status Update(const Value& arg) override {
    if (arg.is_null()) return Status::OK();
    double x = arg.AsDouble();
    ++n_;
    sum_ += x;
    sumsq_ += x * x;
    return Status::OK();
  }
  Status Merge(const AggState& other) override {
    const auto& o = static_cast<const StddevState&>(other);
    n_ += o.n_;
    sum_ += o.sum_;
    sumsq_ += o.sumsq_;
    return Status::OK();
  }
  Value Final() const override {
    if (n_ < 2) return Value::Null();
    double mean = sum_ / static_cast<double>(n_);
    double var =
        (sumsq_ - static_cast<double>(n_) * mean * mean) /
        static_cast<double>(n_ - 1);
    return Value::Double(std::sqrt(var < 0 ? 0 : var));
  }
  AggStatePtr Clone() const override {
    auto copy = std::make_unique<StddevState>();
    copy->n_ = n_;
    copy->sum_ = sum_;
    copy->sumsq_ = sumsq_;
    return copy;
  }

 private:
  int64_t n_ = 0;
  double sum_ = 0;
  double sumsq_ = 0;
};

/// Fresh state for a bound aggregate call.
inline AggStatePtr MakeAggState(const std::string& name, bool star,
                                bool distinct) {
  if (distinct) return std::make_unique<CountDistinctState>();
  if (name == "count") return std::make_unique<CountState>(star);
  if (name == "sum") return std::make_unique<SumState>();
  if (name == "avg") return std::make_unique<AvgState>();
  if (name == "min") return std::make_unique<MinMaxState>(true);
  if (name == "max") return std::make_unique<MinMaxState>(false);
  return std::make_unique<StddevState>();
}

}  // namespace streamrel::reference

#endif  // STREAMREL_TESTS_AGG_STATE_REFERENCE_H_
