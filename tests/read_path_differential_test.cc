// Seeded differential of the heap read path. Each seed drives one database
// through SQL only: inserts, committed and rolled-back transactions,
// deletes (committed, rolled back and by the reading transaction itself),
// REPLACE-channel churn, VACUUM and cold caches, on tables whose pages hold
// a few rows each, so reads cross many pages and the unflushed tail. At
// random points it runs sequential scans, index equality and range scans
// and index-lookup joins, outside and inside an explicit transaction, and
// compares every answer with a reference that walks row ids one at a time
// with GetRowMeta, IsVisible and GetRow. It also pins the cost model: on a
// cold cache, a scan that reads k distinct flushed pages charges exactly k
// page reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/time.h"
#include "test_util.h"

namespace streamrel::engine {
namespace {

constexpr size_t kPageSize = 300;
constexpr int kSeeds = 100;
constexpr int kSteps = 200;
constexpr int64_t kKeys = 24;

/// splitmix64, so every platform replays the same seeds.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// One version of a table as the reference sees it.
struct Version {
  storage::RowId id;
  Row row;
};

/// The reference reader: every version visible under (`snap`, `reader`),
/// found one row id at a time.
std::vector<Version> ReferenceVisible(Database* db, const std::string& table,
                                      const storage::Snapshot& snap,
                                      storage::TxnId reader) {
  const storage::HeapTable& heap = *db->catalog()->GetTable(table)->heap;
  std::vector<Version> out;
  for (storage::RowId id = 0; id < heap.row_count(); ++id) {
    auto meta = heap.GetRowMeta(id);
    EXPECT_TRUE(meta.ok());
    if (!meta.ok() ||
        !db->txns()->IsVisible(meta->xmin, meta->xmax, snap, reader)) {
      continue;
    }
    auto row = heap.GetRow(id);
    EXPECT_TRUE(row.ok());
    if (row.ok()) out.push_back(Version{id, *row});
  }
  return out;
}

/// For each row id, the page the heap put it on (rows accumulate in a tail
/// buffer that is flushed as a page once it reaches kPageSize bytes), and
/// whether that page is flushed.
struct Layout {
  std::vector<int64_t> page;
  int64_t flushed_pages = 0;
};

Layout PageLayout(Database* db, const std::string& table) {
  const storage::HeapTable& heap = *db->catalog()->GetTable(table)->heap;
  Layout layout;
  size_t tail = 0;
  for (storage::RowId id = 0; id < heap.row_count(); ++id) {
    auto row = heap.GetRow(id);
    EXPECT_TRUE(row.ok());
    std::string bytes;
    if (row.ok()) SerializeRow(*row, &bytes);
    layout.page.push_back(layout.flushed_pages);
    tail += bytes.size();
    if (tail >= kPageSize) {
      ++layout.flushed_pages;
      tail = 0;
    }
  }
  return layout;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ReadPathDifferential {
 public:
  explicit ReadPathDifferential(uint64_t seed)
      : db_(Options()), rng_(seed), seed_(seed) {}

  void Run() {
    MustExecute(&db_,
                "CREATE TABLE t (k bigint, v varchar, g bigint);"
                "CREATE INDEX t_k ON t (k);"
                "CREATE TABLE r (k bigint, c bigint, t timestamp);"
                "CREATE INDEX r_k ON r (k);"
                "CREATE STREAM s (k bigint, ts timestamp CQTIME USER);"
                "CREATE STREAM agg AS SELECT k, count(*) AS c, "
                "cq_close(*) AS t FROM s <VISIBLE '1 minute'> GROUP BY k;"
                "CREATE CHANNEL ch FROM agg INTO r REPLACE");
    ExpectPlan("SELECT k FROM t", "SeqScan(t");
    ExpectPlan("SELECT k FROM t WHERE k = 3", "IndexScan(t.k");
    ExpectPlan("SELECT k FROM t WHERE k >= 3 AND k < 9", "IndexScan(t.k");
    ExpectPlan("SELECT t.k FROM t, r WHERE t.k = r.k",
               "IndexLookupJoin(r.k");
    ExpectPlan("SELECT r.k FROM r, t WHERE r.k = t.k AND t.g > r.c",
               "IndexLookupJoin(t.k");
    for (int step = 0; step < kSteps && !::testing::Test::HasFailure();
         ++step) {
      Step();
    }
    if (in_txn_) MustExecute(&db_, "COMMIT");
    CheckQuery();
  }

 private:
  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.heap_page_size = kPageSize;
    return options;
  }

  void ExpectPlan(const std::string& sql, const std::string& node) {
    std::string text;
    for (const Row& row : MustExecute(&db_, "EXPLAIN " + sql).rows) {
      text += row[0].AsString() + "\n";
    }
    EXPECT_NE(text.find(node), std::string::npos) << sql << "\n" << text;
  }

  void Step() {
    const int64_t pick = rng_.Below(100);
    if (pick < 22) {
      Insert();
    } else if (pick < 30) {
      MustExecute(&db_, "DELETE FROM t WHERE k = " +
                            std::to_string(rng_.Below(kKeys)));
    } else if (pick < 35) {
      MustExecute(&db_, "UPDATE t SET g = g + 1 WHERE k = " +
                            std::to_string(rng_.Below(kKeys)));
    } else if (pick < 42) {
      Transaction();
    } else if (pick < 55) {
      Ingest();
    } else if (pick < 59) {
      if (!in_txn_) {
        MustExecute(&db_, rng_.Below(2) == 0 ? "VACUUM t" : "VACUUM r");
      }
    } else if (pick < 63) {
      db_.disk()->DropCache();
    } else {
      CheckQuery();
    }
  }

  void Insert() {
    std::string sql = "INSERT INTO t VALUES ";
    const int64_t n = 1 + rng_.Below(4);
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0) sql += ", ";
      std::string v(static_cast<size_t>(rng_.Below(40)), 'a');
      for (char& ch : v) ch = static_cast<char>('a' + rng_.Below(26));
      sql += "(" + std::to_string(rng_.Below(kKeys)) + ", '" + v + "', " +
             std::to_string(rng_.Below(50)) + ")";
    }
    MustExecute(&db_, sql);
  }

  // Opens a transaction (or, inside one, ends it with COMMIT or ROLLBACK).
  // The first statement of a transaction is an INSERT, whose version
  // names the reading transaction for the reference.
  void Transaction() {
    if (in_txn_) {
      MustExecute(&db_, rng_.Below(2) == 0 ? "COMMIT" : "ROLLBACK");
      in_txn_ = false;
      reader_ = storage::kInvalidTxn;
      return;
    }
    MustExecute(&db_, "BEGIN");
    in_txn_ = true;
    Insert();
    const storage::HeapTable& heap = *db_.catalog()->GetTable("t")->heap;
    auto meta = heap.GetRowMeta(heap.row_count() - 1);
    ASSERT_TRUE(meta.ok());
    reader_ = meta->xmin;
  }

  // Feeds the stream behind the REPLACE channel; a row past the current
  // minute closes the window, and the channel replaces all of r.
  void Ingest() {
    std::vector<Row> rows;
    const int64_t n = 1 + rng_.Below(5);
    for (int64_t i = 0; i < n; ++i) {
      clock_ += rng_.Below(20) * kMicrosPerSecond;
      rows.push_back(
          Row{Value::Int64(rng_.Below(kKeys)), Value::Timestamp(clock_)});
    }
    ASSERT_TRUE(db_.Ingest("s", rows).ok());
  }

  // Runs one query, compares it with the reference, and sometimes runs it
  // on a cold cache and checks the page reads it charges.
  void CheckQuery() {
    const int64_t a = rng_.Below(kKeys);
    const int64_t b = a + rng_.Below(kKeys);
    const storage::TxnId reader = reader_;
    std::string sql;
    std::string paged_table;  // set when the page-read pin applies
    std::function<bool(const Row&)> pages_of;
    std::vector<std::string> expected;
    auto visible = [&](const std::string& table) {
      return ReferenceVisible(&db_, table, db_.txns()->CurrentSnapshot(),
                              reader);
    };
    switch (rng_.Below(7)) {
      case 0:
        sql = "SELECT k, v, g FROM t";
        paged_table = "t";
        pages_of = [](const Row&) { return true; };
        break;
      case 1:
        sql = "SELECT k, v, g FROM t WHERE g % 3 = 0";
        for (const Version& x : visible("t")) {
          if (x.row[2].AsInt64() % 3 == 0) {
            expected.push_back(RowToString(x.row));
          }
        }
        break;
      case 2:
        sql = "SELECT k, v, g FROM t WHERE k = " + std::to_string(a);
        paged_table = "t";
        pages_of = [a](const Row& row) { return row[0].AsInt64() == a; };
        break;
      case 3:
        sql = "SELECT k, v, g FROM t WHERE k >= " + std::to_string(a) +
              " AND k < " + std::to_string(b);
        paged_table = "t";
        pages_of = [a, b](const Row& row) {
          return row[0].AsInt64() >= a && row[0].AsInt64() < b;
        };
        break;
      case 4:
        sql = "SELECT k, v, g FROM t WHERE k > " + std::to_string(a) +
              " AND g % 2 = 1";
        for (const Version& x : visible("t")) {
          if (x.row[0].AsInt64() > a && x.row[2].AsInt64() % 2 == 1) {
            expected.push_back(RowToString(x.row));
          }
        }
        break;
      case 5: {
        sql = "SELECT t.k, t.v, r.c FROM t, r WHERE t.k = r.k";
        const std::vector<Version> right = visible("r");
        for (const Version& l : visible("t")) {
          for (const Version& x : right) {
            if (x.row[0].Compare(l.row[0]) == 0) {
              expected.push_back(RowToString(Row{l.row[0], l.row[1],
                                                 x.row[1]}));
            }
          }
        }
        break;
      }
      default: {
        sql = "SELECT r.k, r.c, t.g FROM r, t WHERE r.k = t.k AND t.g > r.c";
        const std::vector<Version> right = visible("t");
        for (const Version& l : visible("r")) {
          for (const Version& x : right) {
            if (x.row[0].Compare(l.row[0]) == 0 &&
                x.row[2].Compare(l.row[1]) > 0) {
              expected.push_back(RowToString(Row{l.row[0], l.row[1],
                                                 x.row[2]}));
            }
          }
        }
        break;
      }
    }
    int64_t want_reads = -1;
    if (!paged_table.empty()) {
      const Layout layout = PageLayout(&db_, paged_table);
      std::set<int64_t> pages;
      for (const Version& x : visible(paged_table)) {
        if (!pages_of(x.row)) continue;
        expected.push_back(RowToString(x.row));
        if (layout.page[x.id] < layout.flushed_pages) {
          pages.insert(layout.page[x.id]);
        }
      }
      if (rng_.Below(2) == 0) {
        db_.disk()->DropCache();
        want_reads = static_cast<int64_t>(pages.size());
      }
    }
    const int64_t reads_before = db_.disk()->stats().page_reads;
    auto result = db_.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_EQ(Sorted(RowStrings(*result)), Sorted(expected))
        << "seed " << seed_ << (in_txn_ ? " in a transaction" : "") << ": "
        << sql;
    if (want_reads >= 0) {
      EXPECT_EQ(db_.disk()->stats().page_reads - reads_before, want_reads)
          << "seed " << seed_ << ": cold " << sql;
    }
  }

  Database db_;
  Rng rng_;
  const uint64_t seed_;
  bool in_txn_ = false;
  storage::TxnId reader_ = storage::kInvalidTxn;
  int64_t clock_ = 0;
};

TEST(ReadPathDifferentialTest, EveryReaderMatchesTheRowAtATimeReference) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ReadPathDifferential(seed).Run();
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace streamrel::engine
