#include "storage/btree_index.h"

#include <algorithm>
#include <cassert>

namespace streamrel::storage {

/// B+Tree node. Leaves hold entries and a next-leaf link; internal nodes
/// hold separator entries and child pointers (children.size() ==
/// separators.size() + 1; child i holds entries < separators[i], child i+1
/// holds entries >= separators[i]).
struct BTreeIndex::Node {
  bool is_leaf;
  std::vector<Entry> entries;       // leaf payload or internal separators
  std::vector<Node*> children;      // internal only
  Node* next = nullptr;             // leaf chain

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

BTreeIndex::BTreeIndex(std::string column_name, size_t column,
                       size_t fanout)
    : column_name_(std::move(column_name)),
      column_(column),
      fanout_(std::max<size_t>(fanout, 4)),
      root_(new Node(/*leaf=*/true)) {}

BTreeIndex::~BTreeIndex() { DeleteTree(root_); }

void BTreeIndex::DeleteTree(Node* node) {
  if (!node->is_leaf) {
    for (Node* child : node->children) DeleteTree(child);
  }
  delete node;
}

int BTreeIndex::CompareEntry(const Value& a_key, RowId a_rid,
                             const Value& b_key, RowId b_rid) {
  int c = a_key.Compare(b_key);
  if (c != 0) return c;
  return a_rid < b_rid ? -1 : (a_rid > b_rid ? 1 : 0);
}

std::optional<BTreeIndex::SplitResult> BTreeIndex::InsertInto(
    Node* node, const Value& key, RowId row_id) {
  if (node->is_leaf) {
    auto it = std::lower_bound(
        node->entries.begin(), node->entries.end(), Entry{key, row_id},
        [](const Entry& a, const Entry& b) {
          return CompareEntry(a.key, a.row_id, b.key, b.row_id) < 0;
        });
    node->entries.insert(it, Entry{key, row_id});
    if (node->entries.size() <= fanout_) return std::nullopt;
    // Split the leaf.
    Node* right = new Node(/*leaf=*/true);
    size_t mid = node->entries.size() / 2;
    right->entries.assign(node->entries.begin() + mid, node->entries.end());
    node->entries.resize(mid);
    right->next = node->next;
    node->next = right;
    return SplitResult{right->entries.front().key,
                       right->entries.front().row_id, right};
  }
  // Internal node: find child.
  size_t lo = 0, hi = node->entries.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareEntry(node->entries[mid].key, node->entries[mid].row_id, key,
                     row_id) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  auto split = InsertInto(node->children[lo], key, row_id);
  if (!split.has_value()) return std::nullopt;
  node->entries.insert(node->entries.begin() + lo,
                       Entry{split->sep_key, split->sep_row_id});
  node->children.insert(node->children.begin() + lo + 1, split->right);
  if (node->entries.size() <= fanout_) return std::nullopt;
  // Split the internal node: middle separator moves up.
  Node* right = new Node(/*leaf=*/false);
  size_t mid = node->entries.size() / 2;
  Entry up = node->entries[mid];
  right->entries.assign(node->entries.begin() + mid + 1, node->entries.end());
  right->children.assign(node->children.begin() + mid + 1,
                         node->children.end());
  node->entries.resize(mid);
  node->children.resize(mid + 1);
  return SplitResult{up.key, up.row_id, right};
}

void BTreeIndex::Insert(const Value& key, RowId row_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto split = InsertInto(root_, key, row_id);
  if (split.has_value()) {
    Node* new_root = new Node(/*leaf=*/false);
    new_root->entries.push_back(Entry{split->sep_key, split->sep_row_id});
    new_root->children.push_back(root_);
    new_root->children.push_back(split->right);
    root_ = new_root;
  }
  ++size_;
}

const BTreeIndex::Node* BTreeIndex::FindLeaf(const Value& key,
                                             RowId row_id) const {
  const Node* node = root_;
  while (!node->is_leaf) {
    size_t lo = 0, hi = node->entries.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (CompareEntry(node->entries[mid].key, node->entries[mid].row_id, key,
                       row_id) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    node = node->children[lo];
  }
  return node;
}

Status BTreeIndex::Remove(const Value& key, RowId row_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* leaf = const_cast<Node*>(FindLeaf(key, row_id));
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), Entry{key, row_id},
      [](const Entry& a, const Entry& b) {
        return CompareEntry(a.key, a.row_id, b.key, b.row_id) < 0;
      });
  if (it == leaf->entries.end() ||
      CompareEntry(it->key, it->row_id, key, row_id) != 0) {
    return Status::NotFound("index entry not found for removal");
  }
  leaf->entries.erase(it);
  --size_;
  return Status::OK();
}

void BTreeIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  DeleteTree(root_);
  root_ = new Node(/*leaf=*/true);
  size_ = 0;
}

void BTreeIndex::ScanEqual(const Value& key,
                           const std::function<bool(RowId)>& callback) const {
  ScanRange(key, /*lo_inclusive=*/true, key, /*hi_inclusive=*/true,
            [&](const Value&, RowId rid) { return callback(rid); });
}

void BTreeIndex::ScanRange(
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive,
    const std::function<bool(const Value&, RowId)>& callback) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Node* leaf;
  if (lo.has_value()) {
    // Composite probe: (lo, 0) for inclusive (first entry with key >= lo),
    // (lo, max rid) for exclusive (first entry with key > lo).
    RowId probe_rid = lo_inclusive ? 0 : ~RowId{0};
    leaf = FindLeaf(*lo, probe_rid);
  } else {
    leaf = root_;
    while (!leaf->is_leaf) leaf = leaf->children.front();
  }
  for (const Node* node = leaf; node != nullptr; node = node->next) {
    for (const Entry& e : node->entries) {
      if (lo.has_value()) {
        int c = e.key.Compare(*lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (hi.has_value()) {
        int c = e.key.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      if (!callback(e.key, e.row_id)) return;
    }
  }
}

size_t BTreeIndex::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

int BTreeIndex::height() const {
  std::lock_guard<std::mutex> lock(mu_);
  int h = 1;
  const Node* node = root_;
  while (!node->is_leaf) {
    node = node->children.front();
    ++h;
  }
  return h;
}

}  // namespace streamrel::storage
