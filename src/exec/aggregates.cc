#include "exec/aggregates.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace streamrel::exec {

namespace {

using column_batch_internal::BitsToDouble;

int64_t DoubleToBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Value::AsDouble of a cell: avg and stddev fold every input this way
/// (strings read as 0).
double CellAsDouble(DataType t, int64_t fixed) {
  return t == DataType::kDouble ? BitsToDouble(fixed)
                                : static_cast<double>(fixed);
}

bool IsFixedPayload(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp ||
         t == DataType::kInterval;
}

/// True when ValueAdd(a, b) is defined for the pair; it can then fail only
/// on overflow. sum skips an input it cannot add (its first bool stays).
bool SumAddable(DataType a, DataType b) {
  if (IsNumericType(a) && IsNumericType(b)) return true;
  if (a == DataType::kString) return b == DataType::kString;
  if (a == DataType::kInterval) {
    return b == DataType::kInterval || b == DataType::kTimestamp;
  }
  return a == DataType::kTimestamp && b == DataType::kInterval;
}

/// Folds `v` (non-null) into a boxed sum/min/max state (NULL = none yet).
Status FoldBoxed(AggKind kind, Value* acc, Value v) {
  if (acc->is_null()) {
    *acc = std::move(v);
    return Status::OK();
  }
  switch (kind) {
    case AggKind::kSum:
      if (SumAddable(acc->type(), v.type())) {
        ASSIGN_OR_RETURN(*acc, ValueAdd(*acc, v));
      }
      break;
    case AggKind::kMin:
      if (v < *acc) *acc = std::move(v);
      break;
    default:  // kMax
      if (*acc < v) *acc = std::move(v);
      break;
  }
  return Status::OK();
}

bool HasBit(const std::vector<uint64_t>& bits, size_t g) {
  return (bits[g >> 6] >> (g & 63)) & 1;
}
void SetBit(std::vector<uint64_t>* bits, size_t g) {
  (*bits)[g >> 6] |= uint64_t{1} << (g & 63);
}

/// Folds payload `x` into a typed sum/min/max slot `*v`, which holds a
/// value when `has`. `tag` is the payload type (kDouble for doubles).
Status FoldTyped(AggKind kind, DataType tag, bool has, int64_t* v,
                 int64_t x) {
  if (!has) {
    *v = x;
    return Status::OK();
  }
  if (tag == DataType::kDouble) {
    const double a = BitsToDouble(*v);
    const double b = BitsToDouble(x);
    if (kind == AggKind::kSum) {
      *v = DoubleToBits(a + b);
    } else if (kind == AggKind::kMin ? b < a : a < b) {
      *v = x;
    }
    return Status::OK();
  }
  if (kind != AggKind::kSum) {
    if (kind == AggKind::kMin ? x < *v : *v < x) *v = x;
    return Status::OK();
  }
  // timestamp + timestamp is undefined: the first timestamp stays.
  if (tag == DataType::kTimestamp) return Status::OK();
  if (__builtin_add_overflow(*v, x, v)) {
    return Status::ExecutionError(tag == DataType::kInt64
                                      ? "bigint out of range"
                                      : "interval out of range");
  }
  return Status::OK();
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max" || name == "stddev";
}

Result<AggKind> ResolveAggregate(const std::string& name, bool star,
                                 bool distinct) {
  if (distinct) {
    if (name != "count") {
      return Status::NotImplemented("DISTINCT is only supported for count()");
    }
    return AggKind::kCountDistinct;
  }
  if (name == "count") return star ? AggKind::kCountStar : AggKind::kCount;
  if (star) {
    return Status::BindError(name + "(*) is not valid; only count(*)");
  }
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  if (name == "stddev") return AggKind::kStddev;
  return Status::BindError("unknown aggregate: " + name);
}

Result<DataType> InferAggregateType(const std::string& name, bool star,
                                    DataType input) {
  if (name == "count") return DataType::kInt64;
  if (star) return Status::BindError("only count(*) takes '*'");
  if (name == "avg" || name == "stddev") return DataType::kDouble;
  if (name == "sum" || name == "min" || name == "max") return input;
  return Status::BindError("unknown aggregate: " + name);
}

// --- CellColumn -------------------------------------------------------------

Value CellColumn::Get(size_t i) const {
  const DataType t = tag(i);
  return CellValue(t, fixed(i),
                   t == DataType::kString ? str(i) : std::string_view());
}

void CellColumn::Append(DataType tag, int64_t fixed, std::string_view str) {
  tags_.push_back(static_cast<uint8_t>(tag));
  fixed_.push_back(fixed);
  arena_.append(str.data(), str.size());
  ends_.push_back(arena_.size());
}

// --- DistinctSet ------------------------------------------------------------

size_t AggregateTable::DistinctSet::Home(uint32_t group, size_t hash) const {
  const uint64_t mixed =
      (hash ^ (uint64_t{group} * 0x9e3779b97f4a7c15ull)) *
      0xbf58476d1ce4e5b9ull;
  return (mixed >> 32) & (slots_.size() - 1);
}

bool AggregateTable::DistinctSet::Insert(uint32_t group, size_t hash,
                                         DataType tag, int64_t fixed,
                                         std::string_view str) {
  if ((groups_.size() + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(group, hash);; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      slots_[i] = static_cast<uint32_t>(groups_.size() + 1);
      groups_.push_back(group);
      hashes_.push_back(hash);
      values_.Append(tag, fixed, str);
      return true;
    }
    const size_t e = slot - 1;
    if (groups_[e] == group && hashes_[e] == hash &&
        CellsEqual(
            values_.tag(e), values_.fixed(e), tag, fixed,
            [&] { return values_.str(e); }, [&] { return str; })) {
      return false;
    }
  }
}

void AggregateTable::DistinctSet::Grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (size_t e = 0; e < groups_.size(); ++e) {
    size_t i = Home(groups_[e], hashes_[e]);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

// --- AggregateTable ---------------------------------------------------------

AggregateTable::AggregateTable(size_t num_keys, std::vector<AggKind> kinds)
    : num_keys_(num_keys), keys_(num_keys) {
  accs_.resize(kinds.size());
  for (size_t c = 0; c < kinds.size(); ++c) accs_[c].kind = kinds[c];
}

void AggregateTable::HashKeys(const std::vector<CellSource>& keys,
                              size_t begin, size_t end, size_t* hashes) {
  for (size_t i = begin; i < end; ++i) hashes[i] = 0x345678;
  for (const CellSource& k : keys) {
    for (size_t i = begin; i < end; ++i) {
      hashes[i] = hashes[i] * 1000003 ^ k.batch->CellHash(k.col, k.rows[i]);
    }
  }
}

int64_t AggregateTable::Resolve(const std::vector<CellSource>& keys,
                                const size_t* hashes, size_t begin,
                                size_t end) {
  const size_t n = end - begin;
  gids_.resize(n);
  uint32_t* gids = gids_.data();
  if (num_keys_ == 0) {
    const int64_t bytes = group_count() == 0
                              ? kGroupBytes + kCallBytes *
                                    static_cast<int64_t>(accs_.size())
                              : 0;
    EnsureScalarGroup();
    std::fill(gids, gids + n, 0);
    return bytes;
  }
  int64_t bytes = 0;
  constexpr size_t kProbeAhead = 8;
  for (size_t i = begin; i < end; ++i) {
    // The probe's dependent loads for a row a few places ahead overlap
    // this row's key compare.
    if (i + kProbeAhead < end) index_.Prefetch(hashes[i + kProbeAhead]);
    const size_t h = hashes[i];
    size_t g = index_.Find(h, [&](size_t cand) {
      for (size_t c = 0; c < num_keys_; ++c) {
        const CellSource& k = keys[c];
        const RowIndex row = k.rows[i];
        const CellColumn& col = keys_[c];
        if (!CellsEqual(
                k.batch->tag(k.col, row), k.batch->fixed(k.col, row),
                col.tag(cand), col.fixed(cand),
                [&] { return k.batch->str(k.col, row); },
                [&] { return col.str(cand); })) {
          return false;
        }
      }
      return true;
    });
    if (g == GroupIndex::kNone) {
      g = group_count();
      index_.Insert(h, g);
      hashes_.push_back(h);
      bytes += kGroupBytes + kCallBytes * static_cast<int64_t>(accs_.size());
      for (size_t c = 0; c < num_keys_; ++c) {
        const CellSource& k = keys[c];
        keys_[c].AppendFrom(*k.batch, k.col, k.rows[i]);
        bytes += static_cast<int64_t>(sizeof(Value));
        if (keys_[c].tag(g) == DataType::kString) {
          bytes += static_cast<int64_t>(keys_[c].str(g).size());
        }
      }
    }
    gids[i - begin] = static_cast<uint32_t>(g);
  }
  return bytes;
}

void AggregateTable::EnsureScalarGroup() {
  if (num_keys_ != 0 || group_count() != 0) return;
  hashes_.push_back(0x345678);
  GrowAccumulators();
}

void AggregateTable::GrowAccumulators() {
  const size_t groups = group_count();
  for (Accumulator& acc : accs_) {
    switch (acc.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
      case AggKind::kCountDistinct:
        acc.n.resize(groups);
        break;
      case AggKind::kStddev:
        acc.sumsq.resize(groups);
        [[fallthrough]];
      case AggKind::kAvg:
        acc.n.resize(groups);
        acc.sum.resize(groups);
        break;
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
        if (acc.mode == Accumulator::Mode::kBoxed) {
          acc.boxed.resize(groups);
        } else {
          acc.val.resize(groups);
          acc.has.resize((groups + 63) / 64);
        }
        break;
    }
  }
}

Status AggregateTable::Add(const std::vector<CellSource>& keys,
                           const std::vector<CellSource>& args,
                           const size_t* hashes, size_t begin, size_t end,
                           int64_t* new_bytes) {
  *new_bytes = 0;
  if (begin >= end) return Status::OK();
  *new_bytes = Resolve(keys, hashes, begin, end);
  GrowAccumulators();
  for (size_t c = 0; c < accs_.size(); ++c) {
    RETURN_IF_ERROR(Absorb(&accs_[c], args[c], begin, end));
  }
  return Status::OK();
}

Status AggregateTable::Absorb(Accumulator* acc, const CellSource& arg,
                              size_t begin, size_t end) {
  const uint32_t* gids = gids_.data();  // row i's group is gids[i - begin]
  if (acc->kind == AggKind::kCountStar) {
    int64_t* n = acc->n.data();
    for (size_t i = begin; i < end; ++i) ++n[gids[i - begin]];
    return Status::OK();
  }
  const ColumnBatch& b = *arg.batch;
  const size_t col = arg.col;
  const RowIndex* rows = arg.rows;
  switch (acc->kind) {
    case AggKind::kCount: {
      int64_t* n = acc->n.data();
      for (size_t i = begin; i < end; ++i) {
        n[gids[i - begin]] += b.tag(col, rows[i]) != DataType::kNull;
      }
      return Status::OK();
    }
    case AggKind::kAvg:
    case AggKind::kStddev: {
      const bool squares = acc->kind == AggKind::kStddev;
      for (size_t i = begin; i < end; ++i) {
        const DataType t = b.tag(col, rows[i]);
        if (t == DataType::kNull) continue;
        const double x = CellAsDouble(t, b.fixed(col, rows[i]));
        const uint32_t g = gids[i - begin];
        ++acc->n[g];
        acc->sum[g] += x;
        if (squares) acc->sumsq[g] += x * x;
      }
      return Status::OK();
    }
    case AggKind::kCountDistinct: {
      for (size_t i = begin; i < end; ++i) {
        const RowIndex row = rows[i];
        const DataType t = b.tag(col, row);
        if (t == DataType::kNull) continue;
        if (acc->distinct.Insert(
                gids[i - begin], b.CellHash(col, row), t, b.fixed(col, row),
                t == DataType::kString ? b.str(col, row)
                                       : std::string_view())) {
          ++acc->n[gids[i - begin]];
        }
      }
      return Status::OK();
    }
    default:
      return FoldValues(acc, arg, begin, end);
  }
}

Status AggregateTable::FoldValues(Accumulator* acc, const CellSource& arg,
                                  size_t begin, size_t end) {
  using Mode = Accumulator::Mode;
  const uint32_t* gids = gids_.data();  // row i's group is gids[i - begin]
  const ColumnBatch& b = *arg.batch;
  const size_t col = arg.col;
  const RowIndex* rows = arg.rows;
  size_t i = begin;
  if (acc->mode == Mode::kEmpty) {
    while (i < end && b.tag(col, rows[i]) == DataType::kNull) ++i;
    if (i == end) return Status::OK();
    const DataType t = b.tag(col, rows[i]);
    if (IsFixedPayload(t)) {
      acc->mode = Mode::kFixed;
      acc->tag = t;
    } else if (t == DataType::kDouble) {
      acc->mode = Mode::kDouble;
      acc->tag = t;
    } else {
      ToBoxed(acc);
    }
  }
  if (acc->mode != Mode::kBoxed) {
    // Typed run: stops at the first cell of another type.
    const DataType want = acc->tag;
    for (; i < end; ++i) {
      const RowIndex row = rows[i];
      const DataType t = b.tag(col, row);
      if (t != want) {
        if (t == DataType::kNull) continue;
        break;
      }
      const uint32_t g = gids[i - begin];
      const bool has = HasBit(acc->has, g);
      RETURN_IF_ERROR(
          FoldTyped(acc->kind, want, has, &acc->val[g], b.fixed(col, row)));
      if (!has) SetBit(&acc->has, g);
    }
    if (i == end) return Status::OK();
    ToBoxed(acc);
  }
  for (; i < end; ++i) {
    const RowIndex row = rows[i];
    if (b.tag(col, row) == DataType::kNull) continue;
    RETURN_IF_ERROR(FoldBoxed(acc->kind, &acc->boxed[gids[i - begin]],
                              b.GetValue(col, row)));
  }
  return Status::OK();
}

void AggregateTable::ToBoxed(Accumulator* acc) {
  using Mode = Accumulator::Mode;
  acc->boxed.assign(acc->val.size(), Value::Null());
  if (acc->mode == Mode::kFixed || acc->mode == Mode::kDouble) {
    for (size_t g = 0; g < acc->val.size(); ++g) {
      if (HasBit(acc->has, g)) {
        acc->boxed[g] = CellValue(acc->tag, acc->val[g], {});
      }
    }
  }
  acc->val.clear();
  acc->has.clear();
  acc->mode = Mode::kBoxed;
}

Status AggregateTable::Merge(const AggregateTable& src,
                             const std::vector<size_t>* slots) {
  // Remap src's groups onto this table's, appending unseen keys in src's
  // group order.
  std::vector<uint32_t> remap(src.group_count());
  for (size_t sg = 0; sg < src.group_count(); ++sg) {
    const size_t h = src.hashes_[sg];
    size_t g = index_.Find(h, [&](size_t cand) {
      for (size_t c = 0; c < num_keys_; ++c) {
        const CellColumn& a = src.keys_[c];
        const CellColumn& b = keys_[c];
        if (!CellsEqual(
                a.tag(sg), a.fixed(sg), b.tag(cand), b.fixed(cand),
                [&] { return a.str(sg); }, [&] { return b.str(cand); })) {
          return false;
        }
      }
      return true;
    });
    if (num_keys_ == 0 && group_count() != 0) g = 0;
    if (g == GroupIndex::kNone) {
      g = group_count();
      if (num_keys_ != 0) index_.Insert(h, g);
      hashes_.push_back(h);
      for (size_t c = 0; c < num_keys_; ++c) {
        keys_[c].AppendFrom(src.keys_[c], sg);
      }
    }
    remap[sg] = static_cast<uint32_t>(g);
  }
  GrowAccumulators();
  for (size_t j = 0; j < accs_.size(); ++j) {
    const size_t slot = slots != nullptr ? (*slots)[j] : j;
    RETURN_IF_ERROR(MergeCall(&accs_[j], src.accs_[slot], remap));
  }
  return Status::OK();
}

Status AggregateTable::MergeCall(Accumulator* dst, const Accumulator& src,
                                 const std::vector<uint32_t>& remap) {
  using Mode = Accumulator::Mode;
  const size_t groups = remap.size();
  switch (dst->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      for (size_t g = 0; g < groups; ++g) dst->n[remap[g]] += src.n[g];
      return Status::OK();
    case AggKind::kStddev:
      for (size_t g = 0; g < groups; ++g) dst->sumsq[remap[g]] += src.sumsq[g];
      [[fallthrough]];
    case AggKind::kAvg:
      for (size_t g = 0; g < groups; ++g) {
        dst->n[remap[g]] += src.n[g];
        dst->sum[remap[g]] += src.sum[g];
      }
      return Status::OK();
    case AggKind::kCountDistinct: {
      const DistinctSet& set = src.distinct;
      const CellColumn& values = set.values();
      for (size_t e = 0; e < set.size(); ++e) {
        const uint32_t g = remap[set.group(e)];
        const DataType t = values.tag(e);
        if (dst->distinct.Insert(
                g, set.hash(e), t, values.fixed(e),
                t == DataType::kString ? values.str(e) : std::string_view())) {
          ++dst->n[g];
        }
      }
      return Status::OK();
    }
    default:
      break;
  }
  // sum / min / max: typed element by element while both sides hold the
  // same payload type, boxed otherwise.
  if (src.mode == Mode::kEmpty) return Status::OK();
  if (dst->mode == Mode::kEmpty && src.mode != Mode::kBoxed) {
    dst->mode = src.mode;
    dst->tag = src.tag;
  }
  if (dst->mode == src.mode && dst->mode != Mode::kBoxed &&
      dst->tag == src.tag) {
    for (size_t g = 0; g < groups; ++g) {
      if (!HasBit(src.has, g)) continue;
      const uint32_t d = remap[g];
      const bool has = HasBit(dst->has, d);
      RETURN_IF_ERROR(
          FoldTyped(dst->kind, dst->tag, has, &dst->val[d], src.val[g]));
      if (!has) SetBit(&dst->has, d);
    }
    return Status::OK();
  }
  if (dst->mode != Mode::kBoxed) ToBoxed(dst);
  for (size_t g = 0; g < groups; ++g) {
    Value v = src.mode == Mode::kBoxed ? src.boxed[g]
              : HasBit(src.has, g)     ? CellValue(src.tag, src.val[g], {})
                                       : Value::Null();
    if (v.is_null()) continue;
    RETURN_IF_ERROR(FoldBoxed(dst->kind, &dst->boxed[remap[g]], std::move(v)));
  }
  return Status::OK();
}

Value AggregateTable::Final(const Accumulator& acc, size_t g) {
  using Mode = Accumulator::Mode;
  switch (acc.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return Value::Int64(acc.n[g]);
    case AggKind::kAvg:
      if (acc.n[g] == 0) return Value::Null();
      return Value::Double(acc.sum[g] / static_cast<double>(acc.n[g]));
    case AggKind::kStddev: {
      // Sample standard deviation from (n, sum, sum of squares).
      const int64_t n = acc.n[g];
      if (n < 2) return Value::Null();
      const double mean = acc.sum[g] / static_cast<double>(n);
      const double var =
          (acc.sumsq[g] - static_cast<double>(n) * mean * mean) /
          static_cast<double>(n - 1);
      return Value::Double(std::sqrt(var < 0 ? 0 : var));
    }
    default:
      break;
  }
  switch (acc.mode) {
    case Mode::kEmpty:
      return Value::Null();
    case Mode::kBoxed:
      return acc.boxed[g];
    default:
      return HasBit(acc.has, g) ? CellValue(acc.tag, acc.val[g], {})
                                : Value::Null();
  }
}

void AggregateTable::Finalize(const std::vector<size_t>* slots,
                              std::vector<Row>* out) const {
  const size_t calls = slots != nullptr ? slots->size() : accs_.size();
  out->reserve(out->size() + group_count());
  for (size_t g = 0; g < group_count(); ++g) {
    Row row;
    row.reserve(num_keys_ + calls);
    for (const CellColumn& k : keys_) row.push_back(k.Get(g));
    for (size_t j = 0; j < calls; ++j) {
      row.push_back(Final(accs_[slots != nullptr ? (*slots)[j] : j], g));
    }
    out->push_back(std::move(row));
  }
}

}  // namespace streamrel::exec
