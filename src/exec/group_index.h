#ifndef STREAMREL_EXEC_GROUP_INDEX_H_
#define STREAMREL_EXEC_GROUP_INDEX_H_

#include <cstddef>
#include <vector>

namespace streamrel::exec {

/// Open-addressing (linear-probe) index from a group's 64-bit key hash to
/// its position in a group vector: the one hash table behind every
/// grouping in the engine (HashAggregateNode, DistinctNode, and the
/// stream pipelines' slice absorb and window merge). A probe is one
/// contiguous-array scan, where an unordered_map<hash, vector<index>>
/// costs a heap-node chase per row. Distinct groups may share a full
/// hash, so lookups keep probing past hash-equal slots whose keys do not
/// match, and the caller supplies the key-equality check. Positions are
/// the caller's, so groups keep first-occurrence order.
class GroupIndex {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Returns the index recorded under `hash` whose group satisfies `eq`,
  /// or kNone. `eq(index)` must be pure.
  template <typename Eq>
  size_t Find(size_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.group == kNone) return kNone;
      if (s.hash == hash && eq(s.group)) return s.group;
    }
  }

  /// Records `group` under `hash`; the caller has already Find()-checked
  /// that no equal-keyed group exists.
  void Insert(size_t hash, size_t group) {
    if ((used_ + 1) * 2 > slots_.size()) Grow();
    InsertNoGrow(hash, group);
    ++used_;
  }

  /// Hints the cache about `hash`'s first probe slot. The batch kernel
  /// issues this a few rows ahead of Find so the probe's dependent load
  /// is in flight while earlier rows update their aggregate states.
  void Prefetch(size_t hash) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
    }
  }

 private:
  struct Slot {
    size_t hash = 0;
    size_t group = kNone;
  };

  void InsertNoGrow(size_t hash, size_t group) {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].group != kNone) i = (i + 1) & mask;
    slots_[i].hash = hash;
    slots_[i].group = group;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.group != kNone) InsertNoGrow(s.hash, s.group);
    }
  }

  // Capacity is a power of two; load factor is kept at or below 1/2.
  std::vector<Slot> slots_;
  size_t used_ = 0;
};

}  // namespace streamrel::exec

#endif  // STREAMREL_EXEC_GROUP_INDEX_H_
