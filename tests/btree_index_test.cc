#include "storage/btree_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

namespace streamrel::storage {
namespace {

std::vector<RowId> Lookup(const BTreeIndex& index, const Value& key) {
  std::vector<RowId> out;
  index.ScanEqual(key, [&](RowId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

TEST(BTreeIndexTest, InsertAndPointLookup) {
  BTreeIndex index("c", 0);
  index.Insert(Value::Int64(10), 1);
  index.Insert(Value::Int64(20), 2);
  EXPECT_EQ(Lookup(index, Value::Int64(10)), std::vector<RowId>{1});
  EXPECT_EQ(Lookup(index, Value::Int64(20)), std::vector<RowId>{2});
  EXPECT_TRUE(Lookup(index, Value::Int64(30)).empty());
}

TEST(BTreeIndexTest, DuplicateKeys) {
  BTreeIndex index("c", 0);
  index.Insert(Value::String("k"), 5);
  index.Insert(Value::String("k"), 3);
  index.Insert(Value::String("k"), 9);
  auto ids = Lookup(index, Value::String("k"));
  EXPECT_EQ(ids, (std::vector<RowId>{3, 5, 9}));  // rowid order
}

TEST(BTreeIndexTest, SplitsAtScale) {
  BTreeIndex index("c", 0, /*fanout=*/8);
  for (int i = 0; i < 1000; ++i) {
    index.Insert(Value::Int64(i), static_cast<RowId>(i));
  }
  EXPECT_EQ(index.size(), 1000u);
  EXPECT_GT(index.height(), 2);
  for (int i = 0; i < 1000; i += 97) {
    EXPECT_EQ(Lookup(index, Value::Int64(i)),
              std::vector<RowId>{static_cast<RowId>(i)});
  }
}

TEST(BTreeIndexTest, ReverseInsertionOrder) {
  BTreeIndex index("c", 0, 8);
  for (int i = 999; i >= 0; --i) {
    index.Insert(Value::Int64(i), static_cast<RowId>(i));
  }
  std::vector<int64_t> keys;
  index.ScanRange(std::nullopt, true, std::nullopt, true,
                  [&](const Value& k, RowId) {
                    keys.push_back(k.AsInt64());
                    return true;
                  });
  ASSERT_EQ(keys.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(BTreeIndexTest, RandomInsertionSortedScan) {
  BTreeIndex index("c", 0, 16);
  std::mt19937 rng(42);
  std::vector<int64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    int64_t k = static_cast<int64_t>(rng() % 10000);
    inserted.push_back(k);
    index.Insert(Value::Int64(k), static_cast<RowId>(i));
  }
  std::sort(inserted.begin(), inserted.end());
  std::vector<int64_t> scanned;
  index.ScanRange(std::nullopt, true, std::nullopt, true,
                  [&](const Value& k, RowId) {
                    scanned.push_back(k.AsInt64());
                    return true;
                  });
  EXPECT_EQ(scanned, inserted);
}

TEST(BTreeIndexTest, RangeScanBounds) {
  BTreeIndex index("c", 0, 8);
  for (int i = 0; i < 100; ++i) {
    index.Insert(Value::Int64(i), static_cast<RowId>(i));
  }
  std::vector<int64_t> keys;
  auto collect = [&](const Value& k, RowId) {
    keys.push_back(k.AsInt64());
    return true;
  };
  index.ScanRange(Value::Int64(10), true, Value::Int64(13), true, collect);
  EXPECT_EQ(keys, (std::vector<int64_t>{10, 11, 12, 13}));

  keys.clear();
  index.ScanRange(Value::Int64(10), false, Value::Int64(13), false, collect);
  EXPECT_EQ(keys, (std::vector<int64_t>{11, 12}));

  keys.clear();
  index.ScanRange(std::nullopt, true, Value::Int64(2), true, collect);
  EXPECT_EQ(keys, (std::vector<int64_t>{0, 1, 2}));

  keys.clear();
  index.ScanRange(Value::Int64(97), true, std::nullopt, true, collect);
  EXPECT_EQ(keys, (std::vector<int64_t>{97, 98, 99}));
}

TEST(BTreeIndexTest, RangeScanEarlyStop) {
  BTreeIndex index("c", 0, 8);
  for (int i = 0; i < 100; ++i) {
    index.Insert(Value::Int64(i), static_cast<RowId>(i));
  }
  int count = 0;
  index.ScanRange(std::nullopt, true, std::nullopt, true,
                  [&](const Value&, RowId) { return ++count < 5; });
  EXPECT_EQ(count, 5);
}

TEST(BTreeIndexTest, RemoveSpecificEntry) {
  BTreeIndex index("c", 0);
  index.Insert(Value::Int64(1), 10);
  index.Insert(Value::Int64(1), 11);
  ASSERT_TRUE(index.Remove(Value::Int64(1), 10).ok());
  EXPECT_EQ(Lookup(index, Value::Int64(1)), std::vector<RowId>{11});
  EXPECT_EQ(index.size(), 1u);
}

TEST(BTreeIndexTest, RemoveMissingErrors) {
  BTreeIndex index("c", 0);
  index.Insert(Value::Int64(1), 10);
  EXPECT_FALSE(index.Remove(Value::Int64(1), 99).ok());
  EXPECT_FALSE(index.Remove(Value::Int64(2), 10).ok());
}

TEST(BTreeIndexTest, InsertRemoveChurn) {
  BTreeIndex index("c", 0, 8);
  for (int i = 0; i < 500; ++i) {
    index.Insert(Value::Int64(i % 50), static_cast<RowId>(i));
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(index.Remove(Value::Int64(i % 50), static_cast<RowId>(i)).ok());
  }
  EXPECT_EQ(index.size(), 250u);
  // Every remaining entry has an odd RowId.
  index.ScanRange(std::nullopt, true, std::nullopt, true,
                  [&](const Value&, RowId id) {
                    EXPECT_EQ(id % 2, 1u);
                    return true;
                  });
}

TEST(BTreeIndexTest, StringKeys) {
  BTreeIndex index("c", 0, 8);
  const char* words[] = {"pear", "apple", "fig", "banana", "cherry"};
  for (RowId i = 0; i < 5; ++i) {
    index.Insert(Value::String(words[i]), i);
  }
  std::vector<std::string> keys;
  index.ScanRange(std::nullopt, true, std::nullopt, true,
                  [&](const Value& k, RowId) {
                    keys.push_back(k.AsString());
                    return true;
                  });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry",
                                            "fig", "pear"}));
}

TEST(BTreeIndexTest, TimestampRange) {
  BTreeIndex index("ts", 0, 8);
  for (int i = 0; i < 60; ++i) {
    index.Insert(Value::Timestamp(i * 1000000), static_cast<RowId>(i));
  }
  std::vector<RowId> ids;
  index.ScanRange(Value::Timestamp(10000000), true,
                  Value::Timestamp(12000000), false,
                  [&](const Value&, RowId id) {
                    ids.push_back(id);
                    return true;
                  });
  EXPECT_EQ(ids, (std::vector<RowId>{10, 11}));
}

}  // namespace
}  // namespace streamrel::storage
