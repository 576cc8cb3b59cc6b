// Seeded differential of the aggregate engine against the reference states
// (agg_state_reference.h). Each seed builds a SliceAggregator with every
// aggregate function over one argument (a column, or an expression over
// it), absorbs random batches of
// rows at random slice boundaries, and after each batch compares a random
// window close against a row-at-a-time reference slice aggregator: one
// heap state per call per group, updated a boxed Value at a time, cloned
// and merged per window as the engine did before its typed kernels. Every
// output cell must match byte for byte (Value::Serialize), every error
// must surface at the same call, and the kAggregator charge must equal
// the per-group model.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <random>

#include "agg_state_reference.h"
#include "common/memory_governor.h"
#include "exec/operators.h"
#include "sql/parser.h"
#include "stream/shared_aggregation.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kWidth = 1000;  // slice width, micros

Schema ArgSchema() {
  return Schema({Column("k", DataType::kInt64), Column("x", DataType::kInt64)});
}

exec::BoundExprPtr Bind(const std::string& text) {
  auto ast = sql::ParseExpression(text);
  EXPECT_TRUE(ast.ok());
  Schema schema = ArgSchema();
  exec::ExprBinder binder(schema);
  auto bound = binder.BindScalar(**ast);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? std::move(*bound) : nullptr;
}

struct CallSpec {
  const char* fn;
  bool star;
  bool distinct;
};
constexpr CallSpec kCalls[] = {
    {"count", true, false}, {"count", false, false}, {"count", false, true},
    {"sum", false, false},  {"avg", false, false},   {"min", false, false},
    {"max", false, false},  {"stddev", false, false},
};

std::vector<exec::AggregateCall> MakeCalls(const std::string& arg) {
  std::vector<exec::AggregateCall> calls;
  for (const CallSpec& spec : kCalls) {
    exec::AggregateCall call;
    call.function = spec.fn;
    call.star = spec.star;
    call.distinct = spec.distinct;
    if (!spec.star) call.argument = Bind(arg);
    call.display_name = std::string(spec.fn) +
                        (spec.distinct ? "(distinct " : "(") +
                        (spec.star ? "*" : arg) + ")";
    call.result_type = DataType::kInt64;
    calls.push_back(std::move(call));
  }
  return calls;
}

/// The pre-engine slice aggregator, row at a time over reference states.
/// `key` (null: no GROUP BY) and `arg` are evaluated on each row.
class ReferenceSlices {
 public:
  ReferenceSlices(exec::BoundExprPtr key, exec::BoundExprPtr arg)
      : key_(std::move(key)), arg_(std::move(arg)), keyed_(key_ != nullptr) {}

  Status Absorb(const Row& row, int64_t ts) {
    int64_t q = ts / kWidth;
    if (ts % kWidth != 0 && ts < 0) --q;
    Slice& slice = slices_[q * kWidth];
    exec::EvalContext ctx;
    std::vector<Value> keys;
    if (keyed_) {
      ASSIGN_OR_RETURN(Value k, key_->Eval(row, ctx));
      keys.push_back(std::move(k));
    }
    ASSIGN_OR_RETURN(Value arg, arg_->Eval(row, ctx));
    const size_t h = exec::HashValues(keys);
    size_t g = slice.lookup.Find(h, [&](size_t idx) {
      return exec::ValuesEqual(slice.groups[idx].keys, keys);
    });
    if (g == exec::GroupIndex::kNone) {
      g = slice.groups.size();
      slice.lookup.Insert(h, g);
      Group group;
      group.keys = keys;
      for (const CallSpec& spec : kCalls) {
        group.states.push_back(
            reference::MakeAggState(spec.fn, spec.star, spec.distinct));
      }
      slice.groups.push_back(std::move(group));
      int64_t bytes = 48 + 64 * static_cast<int64_t>(std::size(kCalls));
      for (const Value& k : keys) bytes += EstimateValueBytes(k);
      slice.bytes += bytes;
    }
    Group& group = slice.groups[g];
    for (size_t c = 0; c < group.states.size(); ++c) {
      RETURN_IF_ERROR(group.states[c]->Update(arg));
    }
    return Status::OK();
  }

  Result<std::vector<Row>> Window(int64_t close, int64_t visible,
                                  const std::vector<size_t>& slots) const {
    std::vector<Group> merged;
    exec::GroupIndex lookup;
    for (auto it = slices_.lower_bound(close - visible);
         it != slices_.end() && it->first < close; ++it) {
      for (const Group& g : it->second.groups) {
        const size_t h = exec::HashValues(g.keys);
        const size_t found = lookup.Find(h, [&](size_t idx) {
          return exec::ValuesEqual(merged[idx].keys, g.keys);
        });
        if (found == exec::GroupIndex::kNone) {
          lookup.Insert(h, merged.size());
          Group copy;
          copy.keys = g.keys;
          for (size_t slot : slots) {
            copy.states.push_back(g.states[slot]->Clone());
          }
          merged.push_back(std::move(copy));
          continue;
        }
        for (size_t j = 0; j < slots.size(); ++j) {
          RETURN_IF_ERROR(merged[found].states[j]->Merge(*g.states[slots[j]]));
        }
      }
    }
    if (merged.empty() && !keyed_) {
      Group g;
      for (size_t slot : slots) {
        const CallSpec& spec = kCalls[slot];
        g.states.push_back(
            reference::MakeAggState(spec.fn, spec.star, spec.distinct));
      }
      merged.push_back(std::move(g));
    }
    std::vector<Row> rows;
    for (Group& g : merged) {
      Row row = g.keys;
      for (const auto& s : g.states) row.push_back(s->Final());
      rows.push_back(std::move(row));
    }
    return rows;
  }

  void EvictBefore(int64_t ts) {
    while (!slices_.empty() && slices_.begin()->first + kWidth <= ts) {
      slices_.erase(slices_.begin());
    }
  }

  int64_t bytes() const {
    int64_t total = 0;
    for (const auto& [start, slice] : slices_) total += slice.bytes;
    return total;
  }

 private:
  struct Group {
    std::vector<Value> keys;
    std::vector<reference::AggStatePtr> states;
  };
  struct Slice {
    std::vector<Group> groups;
    exec::GroupIndex lookup;
    int64_t bytes = 0;
  };
  exec::BoundExprPtr key_;
  exec::BoundExprPtr arg_;
  bool keyed_;
  std::map<int64_t, Slice> slices_;
};

std::string Serialize(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) v.Serialize(&out);
    out.push_back('\n');
  }
  return out;
}

std::string Describe(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    out += "  [";
    for (const Value& v : row) {
      out += std::string(DataTypeToString(v.type())) + ":" + v.ToString();
      out += " ";
    }
    out += "]\n";
  }
  return out;
}

/// Value generators. Each seed picks one argument type and one key type.
enum class ArgType {
  kBigint, kDouble, kVarchar, kTimestamp, kInterval, kBool, kIntDouble,
  kAnything, kBigintOverflow, kIntervalOverflow,
};
enum class KeyType { kNone, kSmallInt, kNumeric, kVarchar, kMostlyNull };

Value RandomArg(ArgType type, std::mt19937_64* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (type) {
    case ArgType::kBigint:
      return Value::Int64(pick(21) - 10);
    case ArgType::kDouble: {
      // Values whose sums depend on the fold order.
      static const double kPool[] = {0.1, 0.2, 0.3, 1e16, -1e16, 1.0,
                                     -0.0, 0.0, 3.5, 1e-3, 7.25};
      if (pick(40) == 0) return Value::Double(nan);
      return Value::Double(kPool[pick(std::size(kPool))]);
    }
    case ArgType::kVarchar: {
      static const char* kPool[] = {"a", "b", "ab", "", "zz", "B"};
      return Value::String(kPool[pick(std::size(kPool))]);
    }
    case ArgType::kTimestamp:
      return Value::Timestamp(1'000'000'000 + pick(1000) * 7);
    case ArgType::kInterval:
      return Value::Interval(pick(2001) - 1000);
    case ArgType::kBool:
      return Value::Bool(pick(2) == 0);
    case ArgType::kIntDouble: {
      switch (pick(7)) {
        case 0: return Value::Int64(1);
        case 1: return Value::Double(1.0);
        case 2: return Value::Int64(2);
        case 3: return Value::Double(2.5);
        case 4: return Value::Double(-0.0);
        case 5: return Value::Int64(0);
        default: return Value::Double(pick(3) == 0 ? nan : 0.5);
      }
    }
    case ArgType::kAnything: {
      static const ArgType kTypes[] = {
          ArgType::kBigint, ArgType::kDouble, ArgType::kVarchar,
          ArgType::kTimestamp, ArgType::kInterval, ArgType::kBool};
      return RandomArg(kTypes[pick(std::size(kTypes))], rng);
    }
    case ArgType::kBigintOverflow: {
      const int64_t big = std::numeric_limits<int64_t>::max() / 3;
      return Value::Int64(pick(2) == 0 ? big : -big + pick(5));
    }
    case ArgType::kIntervalOverflow: {
      const int64_t big = std::numeric_limits<int64_t>::max() / 2;
      return Value::Interval(pick(3) == 0 ? -big : big);
    }
  }
  return Value::Null();
}

Value RandomKey(KeyType type, std::mt19937_64* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (type) {
    case KeyType::kNone:
      return Value::Null();
    case KeyType::kSmallInt:
      return pick(10) == 0 ? Value::Null() : Value::Int64(pick(6));
    case KeyType::kNumeric: {
      switch (pick(8)) {
        case 0: return Value::Double(nan);
        case 1: return Value::Double(-0.0);
        case 2: return Value::Double(0.0);
        case 3: return Value::Int64(0);
        case 4: return Value::Int64(1);
        case 5: return Value::Double(1.0);
        case 6: return Value::Null();
        default: return Value::Double(2.5);
      }
    }
    case KeyType::kVarchar: {
      static const char* kPool[] = {"/a", "/b", "/c", "", "/index.html"};
      return Value::String(kPool[pick(std::size(kPool))]);
    }
    case KeyType::kMostlyNull:
      return pick(5) == 0 ? Value::Int64(7) : Value::Null();
  }
  return Value::Null();
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  const ArgType arg_type = static_cast<ArgType>(pick(10));
  const KeyType key_type = static_cast<KeyType>(pick(5));
  const int null_pct = std::vector<int>{0, 10, 50, 100}[pick(4)];
  const bool keyed = key_type != KeyType::kNone;
  // A computed key and argument take the engine's evaluate-into-a-column
  // path instead of reading the batch's columns.
  const bool computed = pick(3) == 0;
  const std::string key_text = computed ? "coalesce(k, k)" : "k";
  const std::string arg_text = computed ? "coalesce(x, x)" : "x";

  std::vector<exec::BoundExprPtr> groups;
  if (keyed) groups.push_back(Bind(key_text));
  SliceAggregator engine(kWidth, nullptr, std::move(groups));
  MemoryGovernor governor;
  engine.BindGovernor(&governor);
  ASSERT_TRUE(engine.RegisterCalls(MakeCalls(arg_text)).ok());
  ReferenceSlices ref(keyed ? Bind(key_text) : nullptr, Bind(arg_text));

  int64_t now = pick(3) * kWidth - kWidth;  // start below zero sometimes
  const int batches = 3 + pick(10);
  for (int b = 0; b < batches; ++b) {
    // A batch of rows with non-decreasing timestamps that may cross
    // several slice boundaries.
    const int n = 1 + pick(60);
    exec::ColumnBatch batch(2);
    std::vector<int64_t> ts;
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      now += pick(4) == 0 ? pick(static_cast<int>(2 * kWidth)) : pick(20);
      Row row{RandomKey(key_type, &rng),
              pick(100) < null_pct ? Value::Null() : RandomArg(arg_type, &rng)};
      batch.AppendRow(row);
      rows.push_back(std::move(row));
      ts.push_back(now);
    }
    exec::SelectionVector sel(n);
    for (int i = 0; i < n; ++i) sel[i] = static_cast<exec::RowIndex>(i);
    // Absorb the batch in one or two calls, as the runtime splits it at a
    // close.
    const size_t cut = static_cast<size_t>(pick(n + 1));
    for (auto [from, to] : {std::pair<size_t, size_t>{0, cut},
                            std::pair<size_t, size_t>{cut, n}}) {
      Status ref_status;
      for (size_t i = from; i < to && ref_status.ok(); ++i) {
        ref_status = ref.Absorb(rows[i], ts[i]);
      }
      Status status = engine.AddBatch(batch, sel, ts, from, to);
      ASSERT_EQ(status.ok(), ref_status.ok())
          << "engine: " << status.ToString()
          << " reference: " << ref_status.ToString();
      if (!status.ok()) {
        EXPECT_EQ(status.message(), ref_status.message());
        return;  // states diverge after a failed absorb
      }
      ASSERT_EQ(governor.held(MemoryGovernor::Account::kAggregator),
                ref.bytes());
    }

    // A random window ending at a slice boundary near `now`, over a random
    // subset of the calls in a random order.
    int64_t q = now / kWidth;
    if (now % kWidth != 0 && now < 0) --q;
    const int64_t close = (q + 1 - pick(3)) * kWidth;
    const int64_t visible = (1 + pick(4)) * kWidth;
    std::vector<size_t> slots;
    for (size_t c = 0; c < std::size(kCalls); ++c) {
      if (pick(3) != 0) slots.push_back(c);
    }
    std::shuffle(slots.begin(), slots.end(), rng);
    auto expected = ref.Window(close, visible, slots);
    auto actual = engine.ComputeWindow(close, visible, &slots);
    ASSERT_EQ(actual.ok(), expected.ok())
        << "engine: " << actual.status().ToString()
        << " reference: " << expected.status().ToString();
    if (actual.ok()) {
      ASSERT_EQ(Serialize(*actual), Serialize(*expected))
          << "window [" << close - visible << ", " << close << ")\nengine:\n"
          << Describe(*actual) << "reference:\n"
          << Describe(*expected);
    } else {
      EXPECT_EQ(actual.status().message(), expected.status().message());
    }

    if (pick(4) == 0) {
      const int64_t horizon = close - visible;
      engine.EvictBefore(horizon);
      ref.EvictBefore(horizon);
      ASSERT_EQ(governor.held(MemoryGovernor::Account::kAggregator),
                ref.bytes());
    }
  }
}

TEST(AggregateKernelDifferentialTest, MatchesReferenceStatesAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunSeed(seed);
    if (HasFatalFailure() || HasFailure()) return;
  }
}

}  // namespace
}  // namespace streamrel::stream
