#ifndef STREAMREL_STORAGE_BTREE_INDEX_H_
#define STREAMREL_STORAGE_BTREE_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/heap_table.h"

namespace streamrel::storage {

/// An in-memory B+Tree secondary index mapping column values to RowIds.
/// Duplicate keys are supported (entries are ordered by the composite
/// (key, row_id)). Deletion removes entries in place without rebalancing —
/// nodes may become sparse but never invalid; fine for the paper's
/// append-mostly workloads.
///
/// The paper's Active Tables are "simply SQL tables [over which] indexes can
/// be defined to further improve query performance" (Section 3.3) — this is
/// that index.
///
/// Thread-safe via a single mutex.
class BTreeIndex {
 public:
  /// Indexes column `column_name`, at position `column` in the table's rows
  /// (resolved at CREATE INDEX, so no write looks it up by name). `fanout`
  /// is the maximum number of entries/keys per node.
  BTreeIndex(std::string column_name, size_t column, size_t fanout = 64);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  const std::string& column_name() const { return column_name_; }
  size_t column() const { return column_; }

  void Insert(const Value& key, RowId row_id);

  /// Removes one (key, row_id) entry; returns NotFound if absent.
  Status Remove(const Value& key, RowId row_id);

  /// Removes every entry. The index object stays, so plans that hold it
  /// keep a valid index (VACUUM rebuilds indexes this way).
  void Clear();

  /// Invokes `callback(row_id)` for every entry with this exact key;
  /// a false return stops early.
  void ScanEqual(const Value& key,
                 const std::function<bool(RowId)>& callback) const;

  /// Range scan over [lo, hi] with per-bound inclusivity; nullopt means
  /// unbounded. Entries are visited in key order.
  void ScanRange(const std::optional<Value>& lo, bool lo_inclusive,
                 const std::optional<Value>& hi, bool hi_inclusive,
                 const std::function<bool(const Value&, RowId)>& callback)
      const;

  size_t size() const;
  int height() const;

 private:
  struct Entry {
    Value key;
    RowId row_id;
  };
  struct Node;
  struct SplitResult {
    Value sep_key;
    RowId sep_row_id;
    Node* right;
  };

  static int CompareEntry(const Value& a_key, RowId a_rid, const Value& b_key,
                          RowId b_rid);
  std::optional<SplitResult> InsertInto(Node* node, const Value& key,
                                        RowId row_id);
  const Node* FindLeaf(const Value& key, RowId row_id) const;
  static void DeleteTree(Node* node);

  const std::string column_name_;
  const size_t column_;
  const size_t fanout_;
  mutable std::mutex mu_;
  Node* root_;
  size_t size_ = 0;
};

}  // namespace streamrel::storage

#endif  // STREAMREL_STORAGE_BTREE_INDEX_H_
