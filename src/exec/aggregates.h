#ifndef STREAMREL_EXEC_AGGREGATES_H_
#define STREAMREL_EXEC_AGGREGATES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/column_batch.h"
#include "exec/group_index.h"

namespace streamrel::exec {

/// The kernel an aggregate call runs, resolved once from its
/// (name, star, distinct) triple.
enum class AggKind : uint8_t {
  kCountStar,
  kCount,
  kCountDistinct,
  kSum,
  kAvg,
  kMin,
  kMax,
  kStddev,
};

/// True if `name` (lowercased) is a supported aggregate:
/// count / sum / avg / min / max / stddev / count(distinct).
bool IsAggregateFunction(const std::string& name);

/// The kernel for an aggregate call. `star` marks count(*); `distinct`
/// marks count(DISTINCT x) (only count supports DISTINCT).
Result<AggKind> ResolveAggregate(const std::string& name, bool star,
                                 bool distinct);

/// Static result type: count -> bigint, avg/stddev -> double, sum/min/max
/// follow the input type.
Result<DataType> InferAggregateType(const std::string& name, bool star,
                                    DataType input);

/// Cells of one column stored as ColumnBatch stores them: a type tag and a
/// fixed-width payload per cell (doubles bit-cast), strings in one arena
/// with an end offset per cell.
class CellColumn {
 public:
  size_t size() const { return tags_.size(); }
  DataType tag(size_t i) const { return static_cast<DataType>(tags_[i]); }
  int64_t fixed(size_t i) const { return fixed_[i]; }
  std::string_view str(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(arena_.data() + begin, ends_[i] - begin);
  }
  /// Materializes cell `i` as a Value.
  Value Get(size_t i) const;

  void Append(DataType tag, int64_t fixed, std::string_view str);
  void AppendFrom(const ColumnBatch& batch, size_t col, RowIndex row) {
    const DataType t = batch.tag(col, row);
    Append(t, batch.fixed(col, row),
           t == DataType::kString ? batch.str(col, row) : std::string_view());
  }
  void AppendFrom(const CellColumn& other, size_t i) {
    const DataType t = other.tag(i);
    Append(t, other.fixed(i),
           t == DataType::kString ? other.str(i) : std::string_view());
  }

 private:
  std::vector<uint8_t> tags_;
  std::vector<int64_t> fixed_;
  std::vector<size_t> ends_;
  std::string arena_;
};

/// One input column of an absorbed chunk: cell i is
/// (*batch)(col, rows[i]). A count(*) argument has no batch.
struct CellSource {
  const ColumnBatch* batch = nullptr;
  size_t col = 0;
  const RowIndex* rows = nullptr;
};

/// The one aggregate engine: a hash-grouped table of mergeable partial
/// aggregates, laid out column by column. Slice absorb, the window close
/// and snapshot GROUP BY all run through it.
///
/// Keys are stored as ColumnBatch stores cells, one CellColumn per GROUP BY
/// item, with each group's key hash beside them; groups keep first-arrival
/// order. Each aggregate call owns one accumulator column:
///  - count, count(*): int64 counts;
///  - sum, min, max: an int64 payload (int64, timestamp or interval) or a
///    double, with a has-value bitmap, while the input stays one such type;
///    a boxed Value per group otherwise (mixed tags, bool, strings), folded
///    with the same rules (ValueAdd, Value::Compare);
///  - avg, stddev: an int64 count and double sum (and sum of squares);
///  - count(distinct): a per-group counter and one open-addressed set of
///    (group, value) entries, keyed by the value's cell hash.
/// Keys, min, max and distinct values compare as Value::Compare does (NULL
/// equals NULL, 1 equals 1.0, NaN equals NaN); hashes are Value::Hash.
///
/// Floats fold in absorb order, and a merge folds the source's partials in
/// after the table's own, so per-slice partials merged in slice order
/// reproduce a row-at-a-time fold of each slice followed by a fold of the
/// slice results. sum starts at its first value and avg at +0.0.
class AggregateTable {
 public:
  AggregateTable(size_t num_keys, std::vector<AggKind> kinds);

  size_t group_count() const { return hashes_.size(); }

  /// Governor model of one group: the 48 bytes of a keys-and-states record,
  /// EstimateValueBytes of each key and 64 bytes per aggregate call.
  static constexpr int64_t kGroupBytes = 48;
  static constexpr int64_t kCallBytes = 64;

  /// Key hash of each cell row i in [begin, end) into hashes[i]: the
  /// exec::HashValues fold over the key cells' Value::Hash.
  static void HashKeys(const std::vector<CellSource>& keys, size_t begin,
                       size_t end, size_t* hashes);

  /// Absorbs rows [begin, end) of the sources: resolves each row's group
  /// (appending unseen keys in arrival order), then runs one kernel per
  /// call over (group, argument cell) pairs. `args` has one entry per call.
  /// `*new_bytes` receives the governor model of the groups appended, also
  /// when a sum overflows (the error is returned; the groups stay).
  Status Add(const std::vector<CellSource>& keys,
             const std::vector<CellSource>& args, const size_t* hashes,
             size_t begin, size_t end, int64_t* new_bytes);

  /// Folds `src` into this table: src's call slots[j] into this table's
  /// call j (all calls, in order, when `slots` is null). Groups are
  /// matched by key and new ones appended in src's order.
  Status Merge(const AggregateTable& src, const std::vector<size_t>* slots);

  /// Gives a table without keys its one group (a scalar aggregate over no
  /// rows still yields one row).
  void EnsureScalarGroup();

  /// Appends one row per group: its keys, then the results of calls
  /// `slots` (all calls when null).
  void Finalize(const std::vector<size_t>* slots, std::vector<Row>* out) const;

 private:
  /// Set of (group, value) pairs for one count(distinct) call.
  class DistinctSet {
   public:
    /// Inserts (group, cell) unless an equal pair is present; true if new.
    bool Insert(uint32_t group, size_t hash, DataType tag, int64_t fixed,
                std::string_view str);
    size_t size() const { return groups_.size(); }
    uint32_t group(size_t e) const { return groups_[e]; }
    size_t hash(size_t e) const { return hashes_[e]; }
    const CellColumn& values() const { return values_; }

   private:
    /// First probe slot of (group, hash).
    size_t Home(uint32_t group, size_t hash) const;
    void Grow();

    std::vector<uint32_t> groups_;  // entries in insertion order
    std::vector<size_t> hashes_;
    CellColumn values_;
    std::vector<uint32_t> slots_;  // entry + 1, 0 = empty; power of two
  };

  /// One call's state column.
  struct Accumulator {
    /// Layout of a sum/min/max column: nothing seen yet, an int64 payload
    /// tagged `tag`, a double payload, or a boxed Value per group.
    enum class Mode : uint8_t { kEmpty, kFixed, kDouble, kBoxed };

    AggKind kind;
    Mode mode = Mode::kEmpty;
    DataType tag = DataType::kNull;  // kFixed payload type
    std::vector<int64_t> n;          // counts; avg/stddev input count
    std::vector<int64_t> val;        // sum/min/max payload
    std::vector<uint64_t> has;       // sum/min/max has-value bitmap
    std::vector<double> sum;         // avg/stddev
    std::vector<double> sumsq;       // stddev
    std::vector<Value> boxed;        // sum/min/max in kBoxed mode
    DistinctSet distinct;            // count(distinct)
  };

  /// Resolves rows [begin, end) to group ids in gids_[0, end - begin).
  int64_t Resolve(const std::vector<CellSource>& keys, const size_t* hashes,
                  size_t begin, size_t end);
  /// Sizes every accumulator for group_count() groups (new ones zeroed).
  void GrowAccumulators();
  Status Absorb(Accumulator* acc, const CellSource& arg, size_t begin,
                size_t end);
  Status FoldValues(Accumulator* acc, const CellSource& arg, size_t begin,
                    size_t end);
  static Status MergeCall(Accumulator* dst, const Accumulator& src,
                          const std::vector<uint32_t>& remap);
  static void ToBoxed(Accumulator* acc);
  static Value Final(const Accumulator& acc, size_t g);

  size_t num_keys_;
  std::vector<CellColumn> keys_;
  std::vector<size_t> hashes_;  // per group
  GroupIndex index_;
  std::vector<Accumulator> accs_;
  std::vector<uint32_t> gids_;  // Add's per-row group ids
};

}  // namespace streamrel::exec

#endif  // STREAMREL_EXEC_AGGREGATES_H_
