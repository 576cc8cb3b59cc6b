#include "stream/channel.h"

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/time.h"
#include "test_util.h"

namespace streamrel::stream {
namespace {

constexpr int64_t kSec = kMicrosPerSecond;
constexpr int64_t kMin = kMicrosPerMinute;

class ChannelTest : public ::testing::Test {
 protected:
  ~ChannelTest() override { FaultInjector::Instance().Reset(); }

  ChannelTest() {
    MustExecute(&db_,
                "CREATE STREAM s (url varchar, ts timestamp CQTIME USER)");
    MustExecute(&db_,
                "CREATE STREAM counts AS SELECT url, count(*) AS c, "
                "cq_close(*) AS w FROM s <VISIBLE '1 minute'> GROUP BY url");
    MustExecute(&db_,
                "CREATE TABLE archive (url varchar, c bigint, w timestamp)");
  }

  void Send(const std::string& url, int64_t ts) {
    ASSERT_TRUE(
        db_.Ingest("s", {Row{Value::String(url), Value::Timestamp(ts)}}).ok());
  }

  engine::Database db_;
};

TEST_F(ChannelTest, AppendModePersistsEveryWindow) {
  MustExecute(&db_, "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  Send("/a", 10 * kSec);
  Send("/a", 70 * kSec);
  Send("/b", 80 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", 2 * kMin).ok());

  auto result = MustExecute(&db_, "SELECT url, c, w FROM archive ORDER BY w, url");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][0].AsString(), "/a");
  EXPECT_EQ(result.rows[0][1].AsInt64(), 1);
  EXPECT_EQ(result.rows[0][2].AsTimestampMicros(), kMin);
  EXPECT_EQ(result.rows[1][2].AsTimestampMicros(), 2 * kMin);
}

TEST_F(ChannelTest, ReplaceModeKeepsOnlyLatestWindow) {
  MustExecute(&db_, "CREATE CHANNEL ch FROM counts INTO archive REPLACE");
  Send("/a", 10 * kSec);
  Send("/b", 70 * kSec);
  Send("/b", 80 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", 2 * kMin).ok());

  auto result = MustExecute(&db_, "SELECT url, c FROM archive");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString(), "/b");
  EXPECT_EQ(result.rows[0][1].AsInt64(), 2);
}

TEST_F(ChannelTest, WatermarkAdvancesAndDedupes) {
  MustExecute(&db_, "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  Channel* ch = db_.runtime()->GetChannel("ch");
  ASSERT_NE(ch, nullptr);
  Send("/a", 10 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  EXPECT_EQ(ch->watermark(), kMin);
  EXPECT_EQ(ch->batches_persisted(), 1);
  // Re-delivering an old batch is a no-op.
  ASSERT_TRUE(ch->OnBatch(kMin, {Row{Value::String("/dup"), Value::Int64(9),
                                     Value::Timestamp(kMin)}})
                  .ok());
  EXPECT_EQ(ch->batches_persisted(), 1);
}

TEST_F(ChannelTest, TypeCoercionIntoTableTypes) {
  // Archive column c is bigint; the derived stream's count is bigint too,
  // but build a float-valued derived stream to force a cast.
  MustExecute(&db_,
              "CREATE STREAM avgs AS SELECT avg(1) AS c "
              "FROM s <VISIBLE '1 minute'>");
  MustExecute(&db_, "CREATE TABLE avg_archive (c bigint)");
  MustExecute(&db_, "CREATE CHANNEL ch2 FROM avgs INTO avg_archive APPEND");
  Send("/a", 10 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  auto result = MustExecute(&db_, "SELECT c FROM avg_archive");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].type(), DataType::kInt64);
}

TEST_F(ChannelTest, ChannelWritesGoThroughWal) {
  MustExecute(&db_, "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  MustExecute(&db_, "CREATE TABLE cur (url varchar, c bigint, w timestamp)");
  MustExecute(&db_, "CREATE CHANNEL cur_ch FROM counts INTO cur REPLACE");
  Send("/a", 10 * kSec);
  Send("/b", 20 * kSec);
  ASSERT_TRUE(db_.AdvanceTime("s", kMin).ok());
  Send("/a", 70 * kSec);
  Send("/c", 80 * kSec);
  Send("/d", 90 * kSec);
  // Each close of the second window writes one transaction per channel.
  // APPEND: begin, the window's rows, progress, commit. REPLACE adds one
  // record that deletes the previous window's rows.
  const int64_t records_before = db_.wal()->record_count();
  Channel* append = db_.runtime()->GetChannel("ch");
  Channel* replace = db_.runtime()->GetChannel("cur_ch");
  ASSERT_TRUE(append->OnBatch(2 * kMin, {Row{Value::String("/a"),
                                             Value::Int64(1),
                                             Value::Timestamp(2 * kMin)},
                                         Row{Value::String("/c"),
                                             Value::Int64(1),
                                             Value::Timestamp(2 * kMin)}})
                  .ok());
  EXPECT_EQ(db_.wal()->record_count(), records_before + 4);
  ASSERT_TRUE(replace->OnBatch(2 * kMin, {Row{Value::String("/a"),
                                              Value::Int64(1),
                                              Value::Timestamp(2 * kMin)}})
                  .ok());
  EXPECT_EQ(db_.wal()->record_count(), records_before + 4 + 5);
  EXPECT_EQ(db_.wal()->synced_records(), db_.wal()->record_count());
  EXPECT_EQ(MustExecute(&db_, "SELECT url FROM cur").rows.size(), 1u);
  EXPECT_EQ(MustExecute(&db_, "SELECT url FROM archive").rows.size(), 4u);
}

TEST_F(ChannelTest, RawStreamChannelArchivesRows) {
  MustExecute(&db_, "CREATE TABLE raw_log (url varchar, ts timestamp)");
  MustExecute(&db_, "CREATE CHANNEL raw_ch FROM s INTO raw_log APPEND");
  Send("/a", 10 * kSec);
  Send("/b", 20 * kSec);
  auto result = MustExecute(&db_, "SELECT url FROM raw_log ORDER BY ts");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsString(), "/a");
}

TEST_F(ChannelTest, RawChannelWatermarkRestoredOnFailedBatch) {
  MustExecute(&db_, "CREATE TABLE raw_log (url varchar, ts timestamp)");
  MustExecute(&db_, "CREATE CHANNEL raw_ch FROM s INTO raw_log APPEND");
  Channel* ch = db_.runtime()->GetChannel("raw_ch");
  ASSERT_NE(ch, nullptr);
  Send("/a", 10 * kSec);
  ASSERT_EQ(ch->watermark(), 10 * kSec);

  // The next row group fails mid-persist (WAL rejects the write).
  FaultInjector::Instance().Arm("wal.append", FaultPolicy::FailOnce());
  EXPECT_FALSE(
      db_.Ingest("s", {Row{Value::String("/b"), Value::Timestamp(10 * kSec)}})
          .ok());
  // The failure must not leave the watermark regressed below the last
  // durable group: a redelivered batch at the old close would then pass
  // the dedup check and double-apply.
  EXPECT_EQ(ch->watermark(), 10 * kSec);
  ASSERT_TRUE(ch->OnBatch(10 * kSec, {Row{Value::String("/dup"),
                                          Value::Timestamp(10 * kSec)}})
                  .ok());
  auto result = MustExecute(&db_, "SELECT count(*) FROM raw_log");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1);
}

TEST_F(ChannelTest, ActiveTableIsIndexable) {
  MustExecute(&db_, "CREATE CHANNEL ch FROM counts INTO archive APPEND");
  MustExecute(&db_, "CREATE INDEX archive_url ON archive (url)");
  for (int m = 0; m < 3; ++m) {
    Send("/a", m * kMin + 10 * kSec);
    Send("/b", m * kMin + 20 * kSec);
  }
  ASSERT_TRUE(db_.AdvanceTime("s", 3 * kMin).ok());
  // Index maintained by channel inserts: query via the index.
  auto result =
      MustExecute(&db_, "SELECT c FROM archive WHERE url = '/a'");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(ChannelTest, ArityMismatchRejectedAtCreate) {
  MustExecute(&db_, "CREATE TABLE narrow (url varchar)");
  auto r = db_.Execute("CREATE CHANNEL bad FROM counts INTO narrow APPEND");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ChannelTest, MissingSourceOrTargetRejected) {
  EXPECT_FALSE(db_.Execute("CREATE CHANNEL c1 FROM ghost INTO archive").ok());
  EXPECT_FALSE(db_.Execute("CREATE CHANNEL c2 FROM counts INTO ghost").ok());
}

TEST_F(ChannelTest, InsertHelperCoercesAndIndexes) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, b varchar)");
  MustExecute(&db_, "CREATE INDEX t_b ON t (b)");
  MustExecute(&db_, "CREATE INDEX t_a ON t (a)");
  auto* table = db_.catalog()->GetTable("t");
  storage::TxnId txn = db_.txns()->Begin();
  ASSERT_TRUE(InsertRows(table,
                         {{Value::String("42"), Value::String("x")},
                          {Value::Int64(7), Value::Null()},
                          {Value::Double(42.0), Value::String("y")}},
                         txn, nullptr)
                  .ok());
  // A wrong arity anywhere in the call fails it before any write.
  EXPECT_FALSE(InsertRows(table, {{Value::Int64(1), Value::String("z")},
                                  {Value::Int64(2)}},
                          txn, nullptr)
                   .ok());
  ASSERT_TRUE(db_.txns()->Commit(txn, 0).ok());
  EXPECT_EQ(table->heap->row_count(), 3u);
  auto result = MustExecute(&db_, "SELECT b FROM t WHERE a = 42 ORDER BY b");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1][0].AsString(), "y");
  EXPECT_EQ(MustExecute(&db_, "SELECT a FROM t WHERE b = 'x'").rows.size(),
            1u);
}

// A version its own transaction deletes loses its index entries at once;
// another transaction's deleted version keeps them until VACUUM.
TEST_F(ChannelTest, DeleteRowsDropsIndexEntriesOfItsOwnVersions) {
  MustExecute(&db_, "CREATE TABLE t (a bigint, b varchar)");
  MustExecute(&db_, "CREATE INDEX t_a ON t (a)");
  MustExecute(&db_, "CREATE INDEX t_b ON t (b)");
  auto* table = db_.catalog()->GetTable("t");
  storage::TxnId txn = db_.txns()->Begin();
  ASSERT_TRUE(InsertRows(table,
                         {{Value::Int64(1), Value::String("x")},
                          {Value::Int64(2), Value::String("y")}},
                         txn, nullptr)
                  .ok());
  ASSERT_TRUE(DeleteRows(table, {0}, txn, *db_.txns(), nullptr).ok());
  ASSERT_TRUE(db_.txns()->Commit(txn, 0).ok());
  for (const auto& index : table->indexes) EXPECT_EQ(index->size(), 1u);

  storage::TxnId other = db_.txns()->Begin();
  ASSERT_TRUE(DeleteRows(table, {1}, other, *db_.txns(), nullptr).ok());
  ASSERT_TRUE(db_.txns()->Commit(other, 0).ok());
  for (const auto& index : table->indexes) EXPECT_EQ(index->size(), 1u);
  EXPECT_TRUE(MustExecute(&db_, "SELECT b FROM t WHERE a = 2").rows.empty());
}

}  // namespace
}  // namespace streamrel::stream
