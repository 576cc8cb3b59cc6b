#include "storage/wal.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/checksum.h"
#include "common/fault_injector.h"

namespace streamrel::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest()
      : disk_(std::make_shared<SimulatedDisk>()),
        wal_(std::make_shared<WriteAheadLog>(disk_)) {}

  std::shared_ptr<SimulatedDisk> disk_;
  std::shared_ptr<WriteAheadLog> wal_;
};

TEST_F(WalTest, AppendAndReplay) {
  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  begin.txn_id = 7;
  ASSERT_TRUE(wal_->Append(begin).ok());

  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 7;
  insert.object_name = "t";
  insert.rows = {{Value::Int64(1), Value::String("abc")}};
  ASSERT_TRUE(wal_->Append(insert).ok());

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 7;
  commit.int_payload = 12345;
  ASSERT_TRUE(wal_->Append(commit).ok());

  std::vector<WalRecord> replayed;
  ASSERT_TRUE(wal_->Replay([&](const WalRecord& r) {
                    replayed.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].type, WalRecordType::kBegin);
  EXPECT_EQ(replayed[1].object_name, "t");
  ASSERT_EQ(replayed[1].rows.size(), 1u);
  ASSERT_EQ(replayed[1].rows[0].size(), 2u);
  EXPECT_EQ(replayed[1].rows[0][1].AsString(), "abc");
  EXPECT_EQ(replayed[2].int_payload, 12345);
}

TEST_F(WalTest, ChannelProgressAndCheckpoint) {
  WalRecord progress;
  progress.type = WalRecordType::kChannelProgress;
  progress.object_name = "ch";
  progress.int_payload = 60'000'000;
  ASSERT_TRUE(wal_->Append(progress).ok());

  WalRecord checkpoint;
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.object_name = "cq1";
  checkpoint.blob = std::string("\x00\x01\x02", 3);
  ASSERT_TRUE(wal_->Append(checkpoint).ok());

  std::vector<WalRecord> replayed;
  ASSERT_TRUE(wal_->Replay([&](const WalRecord& r) {
                    replayed.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].int_payload, 60'000'000);
  EXPECT_EQ(replayed[1].blob.size(), 3u);
}

TEST_F(WalTest, SyncChargesOnlyPendingBytes) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(r).ok());
  wal_->Sync();
  int64_t bytes_after_first = disk_->stats().bytes_written;
  EXPECT_GT(bytes_after_first, 0);
  wal_->Sync();  // nothing pending
  EXPECT_EQ(disk_->stats().bytes_written, bytes_after_first);
  ASSERT_TRUE(wal_->Append(r).ok());
  wal_->Sync();
  EXPECT_GT(disk_->stats().bytes_written, bytes_after_first);
}

TEST_F(WalTest, RecordCountAndSize) {
  EXPECT_EQ(wal_->record_count(), 0);
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Append(r).ok());
  EXPECT_EQ(wal_->record_count(), 2);
  EXPECT_GT(wal_->byte_size(), 0);
}

TEST_F(WalTest, ResetClears) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(r).ok());
  wal_->Reset();
  EXPECT_EQ(wal_->record_count(), 0);
  int n = 0;
  ASSERT_TRUE(wal_->Replay([&](const WalRecord&) {
                    ++n;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(n, 0);
}

TEST_F(WalTest, ReplayCallbackErrorPropagates) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(r).ok());
  Status s = wal_->Replay(
      [](const WalRecord&) { return Status::Internal("stop"); });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST_F(WalTest, SimulateCrashDropsUnsyncedTail) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  r.txn_id = 2;
  ASSERT_TRUE(wal_->Append(r).ok());
  r.txn_id = 3;
  ASSERT_TRUE(wal_->Append(r).ok());

  wal_->SimulateCrash(CrashMode::kClean);

  // Only the synced prefix survives.
  std::vector<uint64_t> txns;
  WalReplayStats stats;
  ASSERT_TRUE(wal_->Replay(
                      [&](const WalRecord& got) {
                        txns.push_back(got.txn_id);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0], 1u);
  EXPECT_EQ(wal_->record_count(), 1);
  EXPECT_FALSE(stats.stopped_at_torn_tail);
  EXPECT_FALSE(stats.stopped_at_corrupt_tail);
}

TEST_F(WalTest, TornTailEndsReplayCleanly) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 2;
  insert.object_name = "t";
  insert.rows = {{Value::String("unsynced")}};
  ASSERT_TRUE(wal_->Append(insert).ok());

  wal_->SimulateCrash(CrashMode::kTornTail);
  EXPECT_GT(wal_->byte_size(), 0);

  int replayed = 0;
  WalReplayStats stats;
  ASSERT_TRUE(wal_->Replay(
                      [&](const WalRecord&) {
                        ++replayed;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(replayed, 1);  // only the synced record
  EXPECT_TRUE(stats.stopped_at_torn_tail);
  EXPECT_EQ(wal_->torn_tails_seen(), 1);
}

TEST_F(WalTest, CorruptTailEndsReplayCleanly) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 2;
  insert.object_name = "t";
  insert.rows = {{Value::String("unsynced")}};
  ASSERT_TRUE(wal_->Append(insert).ok());

  wal_->SimulateCrash(CrashMode::kCorruptTail);

  int replayed = 0;
  WalReplayStats stats;
  ASSERT_TRUE(wal_->Replay(
                      [&](const WalRecord&) {
                        ++replayed;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(replayed, 1);
  EXPECT_TRUE(stats.stopped_at_corrupt_tail);
  EXPECT_EQ(wal_->corrupt_tails_seen(), 1);
}

TEST_F(WalTest, AppendAfterCrashTruncatesDamagedTail) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  ASSERT_TRUE(wal_->Append(r).ok());
  wal_->SimulateCrash(CrashMode::kTornTail);

  // A recovering system writes over the damaged tail.
  r.txn_id = 2;
  ASSERT_TRUE(wal_->Append(r).ok());
  std::vector<uint64_t> txns;
  WalReplayStats stats;
  ASSERT_TRUE(wal_->Replay(
                      [&](const WalRecord& got) {
                        txns.push_back(got.txn_id);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0], 2u);
  EXPECT_FALSE(stats.stopped_at_torn_tail);
}

TEST_F(WalTest, CrashWithNothingUnsyncedIsHarmless) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  wal_->SimulateCrash(CrashMode::kTornTail);  // no unsynced tail to tear
  int replayed = 0;
  ASSERT_TRUE(wal_->Replay([&](const WalRecord&) {
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 1);
}

TEST_F(WalTest, RowWithAllValueTypesRoundTrips) {
  WalRecord r;
  r.type = WalRecordType::kInsert;
  r.object_name = "t";
  r.rows = {{Value::Null(),      Value::Bool(false), Value::Int64(-1),
             Value::Double(2.5), Value::String(""),  Value::Timestamp(99),
             Value::Interval(-100)}};
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Replay([&](const WalRecord& got) {
                    EXPECT_EQ(got.rows.size(), 1u);
                    EXPECT_EQ(got.rows[0].size(), 7u);
                    EXPECT_TRUE(got.rows[0][0].is_null());
                    EXPECT_EQ(got.rows[0][6].AsIntervalMicros(), -100);
                    return Status::OK();
                  })
                  .ok());
}

// Rows with a value of every DataType, NULLs in every column, and an empty
// string.
std::vector<Row> EveryTypeRows() {
  return {
      {Value::Null(), Value::Bool(false), Value::Int64(-1), Value::Double(2.5),
       Value::String(""), Value::Timestamp(99), Value::Interval(-100)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
       Value::Null(), Value::Null(), Value::Null()},
      {Value::Null(), Value::Bool(true), Value::Int64(INT64_MIN),
       Value::Double(-0.0), Value::String("/a/b/c"), Value::Timestamp(-1),
       Value::Interval(INT64_MAX)},
  };
}

std::vector<std::string> RowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

std::vector<WalRecord> ReplayAll(const WriteAheadLog& wal) {
  std::vector<WalRecord> replayed;
  EXPECT_TRUE(wal.Replay([&](const WalRecord& r) {
                   replayed.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  return replayed;
}

TEST_F(WalTest, MultiRowInsertAndDeleteRoundTrip) {
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 3;
  insert.object_name = "Hist";
  insert.rows = EveryTypeRows();
  ASSERT_TRUE(wal_->Append(insert).ok());
  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.txn_id = 3;
  del.object_name = "hist";
  del.row_ids = {0, 2, 1, UINT64_MAX};
  ASSERT_TRUE(wal_->Append(del).ok());
  EXPECT_EQ(wal_->record_count(), 2);

  const std::vector<WalRecord> replayed = ReplayAll(*wal_);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].type, WalRecordType::kInsert);
  EXPECT_EQ(replayed[0].txn_id, 3u);
  EXPECT_EQ(replayed[0].object_name, "Hist");
  EXPECT_EQ(RowStrings(replayed[0].rows), RowStrings(insert.rows));
  EXPECT_TRUE(replayed[0].rows[1][3].is_null());
  EXPECT_TRUE(replayed[0].row_ids.empty());
  EXPECT_EQ(replayed[1].type, WalRecordType::kDelete);
  EXPECT_EQ(replayed[1].object_name, "hist");
  EXPECT_EQ(replayed[1].row_ids, del.row_ids);
  EXPECT_TRUE(replayed[1].rows.empty());
}

// A call whose rows (or row ids) outgrow one replication slice becomes
// several records, each under the cap, that replay the same items in
// order; shipping decodes the same records.
TEST_F(WalTest, CallLargerThanTheCapBecomesSeveralRecords) {
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 5;
  insert.object_name = "t";
  for (int i = 0; i < 3000; ++i) {
    insert.rows.push_back({Value::Int64(i), Value::String(std::string(
                                                1000, 'a' + i % 26))});
  }
  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.txn_id = 5;
  del.object_name = "t";
  for (uint64_t i = 0; i < 300000; ++i) del.row_ids.push_back(i * 7);
  ASSERT_TRUE(wal_->Append(insert).ok());
  const int64_t insert_records = wal_->record_count();
  ASSERT_TRUE(wal_->Append(del).ok());
  const int64_t delete_records = wal_->record_count() - insert_records;
  EXPECT_EQ(insert_records, 3);  // ~3 MB of rows
  EXPECT_EQ(delete_records, 3);  // 2.4 MB of ids
  ASSERT_TRUE(wal_->Sync().ok());

  std::vector<Row> rows;
  std::vector<uint64_t> ids;
  for (const WalRecord& r : ReplayAll(*wal_)) {
    EXPECT_EQ(r.txn_id, 5u);
    EXPECT_EQ(r.object_name, "t");
    rows.insert(rows.end(), r.rows.begin(), r.rows.end());
    ids.insert(ids.end(), r.row_ids.begin(), r.row_ids.end());
  }
  EXPECT_EQ(RowStrings(rows), RowStrings(insert.rows));
  EXPECT_EQ(ids, del.row_ids);

  // Every frame fits one slice: fetching from each consumed offset ships
  // at least one whole frame.
  int64_t offset = 0;
  int64_t shipped = 0;
  while (offset < wal_->synced_bytes()) {
    const std::string slice = wal_->ReadSynced(offset, kWalSliceBytes);
    ASSERT_LE(static_cast<int64_t>(slice.size()), kWalSliceBytes);
    size_t consumed = 0;
    std::vector<WalRecord> records;
    ASSERT_TRUE(WriteAheadLog::DecodeShipped(slice, &consumed, &records).ok());
    ASSERT_GT(consumed, 0u);
    offset += static_cast<int64_t>(consumed);
    shipped += static_cast<int64_t>(records.size());
  }
  EXPECT_EQ(shipped, wal_->record_count());
}

// One row larger than the cap gets a frame of its own, and ReadSynced
// returns that frame whole however small the requested slice.
TEST_F(WalTest, RowLargerThanTheCapShipsWhole) {
  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  ASSERT_TRUE(wal_->Append(begin).ok());
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.object_name = "t";
  insert.rows = {{Value::String(std::string(1'500'000, 'x'))},
                 {Value::String("small")}};
  ASSERT_TRUE(wal_->Append(insert).ok());
  EXPECT_EQ(wal_->record_count(), 3);  // the big row, then the small one
  ASSERT_TRUE(wal_->Sync().ok());

  std::string all;
  int64_t offset = 0;
  std::vector<WalRecord> records;
  while (offset < wal_->synced_bytes()) {
    const std::string slice = wal_->ReadSynced(offset, 4096);
    size_t consumed = 0;
    ASSERT_TRUE(WriteAheadLog::DecodeShipped(slice, &consumed, &records).ok());
    ASSERT_GT(consumed, 0u) << "no progress at offset " << offset;
    all += slice.substr(0, consumed);
    offset += static_cast<int64_t>(consumed);
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].rows[0][0].AsString().size(), 1'500'000u);
  EXPECT_EQ(records[2].rows[0][0].AsString(), "small");
  EXPECT_EQ(all, wal_->ReadSynced(0, wal_->synced_bytes()));
  // An offset inside a frame is not a frame start: the slice keeps its
  // bound.
  EXPECT_EQ(wal_->ReadSynced(offset - 100, 10).size(), 10u);
}

// A record whose sync fails is dropped again, so a later sync cannot make
// it durable; the frames an earlier sync made durable stay. After an
// injected crash it stays, for SimulateCrash to tear.
TEST_F(WalTest, AppendAndSyncDropsARecordItsFailedSyncLeft) {
  FaultInjector::Instance().Reset();
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  ASSERT_TRUE(wal_->AppendAndSync(r).ok());
  r.txn_id = 2;
  ASSERT_TRUE(wal_->Append(r).ok());  // unsynced, before the failed one
  FaultInjector::Instance().Arm("wal.sync", FaultPolicy::FailOnce());
  r.txn_id = 3;
  EXPECT_FALSE(wal_->AppendAndSync(r).ok());
  EXPECT_EQ(wal_->record_count(), 2);
  r.txn_id = 4;
  ASSERT_TRUE(wal_->AppendAndSync(r).ok());
  std::vector<uint64_t> txns;
  for (const WalRecord& got : ReplayAll(*wal_)) txns.push_back(got.txn_id);
  EXPECT_EQ(txns, (std::vector<uint64_t>{1, 2, 4}));

  FaultInjector::Instance().Arm("wal.sync", FaultPolicy::CrashAtHit(1));
  r.txn_id = 5;
  EXPECT_FALSE(wal_->AppendAndSync(r).ok());
  EXPECT_EQ(wal_->record_count(), 4);
  FaultInjector::Instance().Reset();
  wal_->SimulateCrash(CrashMode::kTornTail);
  WalReplayStats stats;
  ASSERT_TRUE(wal_->Replay([](const WalRecord&) { return Status::OK(); },
                           &stats)
                  .ok());
  EXPECT_TRUE(stats.stopped_at_torn_tail);
}

// Every single-bit flip of a WAL record's frame must be rejected, both
// when a crash leaves it as the log's last frame (Replay) and when it is
// shipped to a standby (DecodeShipped). A flip in the payload or the
// checksum is a corrupt tail; a flip in the length either tears the tail
// (the frame now runs past the end) or fails the checksum before the end.
void ExpectEveryBitFlipRejected(const WalRecord& tail) {
  WriteAheadLog wal(std::make_shared<SimulatedDisk>());
  WalRecord first;
  first.type = WalRecordType::kBegin;
  first.txn_id = 1;
  ASSERT_TRUE(wal.Append(first).ok());
  ASSERT_TRUE(wal.Sync().ok());
  const std::string head = wal.ReadSynced(0, wal.synced_bytes());
  ASSERT_TRUE(wal.Append(tail).ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_EQ(wal.record_count(), 2);
  std::string record = wal.ReadSynced(static_cast<int64_t>(head.size()),
                                      wal.synced_bytes());
  ASSERT_GT(record.size(), kFrameHeaderBytes);

  for (size_t bit = 0; bit < 8 * record.size(); ++bit) {
    record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
    const bool length_bit = bit < 8 * sizeof(uint32_t);

    WriteAheadLog log(std::make_shared<SimulatedDisk>());
    ASSERT_TRUE(log.AppendShipped(head + record, 2).ok());
    int replayed = 0;
    WalReplayStats stats;
    const Status st = log.Replay(
        [&](const WalRecord& r) {
          EXPECT_EQ(r.type, WalRecordType::kBegin) << "bit " << bit;
          ++replayed;
          return Status::OK();
        },
        &stats);
    EXPECT_EQ(replayed, 1) << "bit " << bit;
    if (length_bit) {
      EXPECT_TRUE(!st.ok() || stats.stopped_at_torn_tail) << "bit " << bit;
    } else {
      EXPECT_TRUE(st.ok()) << "bit " << bit << ": " << st.ToString();
      EXPECT_TRUE(stats.stopped_at_corrupt_tail) << "bit " << bit;
    }

    size_t consumed = 0;
    std::vector<WalRecord> shipped;
    const Status ship =
        WriteAheadLog::DecodeShipped(head + record, &consumed, &shipped);
    EXPECT_EQ(shipped.size(), 1u) << "bit " << bit;
    EXPECT_EQ(consumed, head.size()) << "bit " << bit;
    if (!length_bit) {
      EXPECT_FALSE(ship.ok()) << "bit " << bit;
    }

    record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
  }
  // Unflipped, the same bytes replay and ship whole.
  size_t consumed = 0;
  std::vector<WalRecord> shipped;
  ASSERT_TRUE(
      WriteAheadLog::DecodeShipped(head + record, &consumed, &shipped).ok());
  EXPECT_EQ(shipped.size(), 2u);
  EXPECT_EQ(consumed, head.size() + record.size());
}

TEST_F(WalTest, EveryBitFlipOfARecordIsRejected) {
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 1;
  insert.object_name = "Hist";
  insert.rows = {{Value::Null(), Value::Bool(true), Value::Int64(-7),
                  Value::Double(0.1), Value::String("/a/b/c"),
                  Value::Timestamp(60), Value::Interval(5)}};
  ExpectEveryBitFlipRejected(insert);
}

TEST_F(WalTest, EveryBitFlipOfAMultiRowInsertIsRejected) {
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 1;
  insert.object_name = "Hist";
  insert.rows = EveryTypeRows();
  ExpectEveryBitFlipRejected(insert);
}

TEST_F(WalTest, EveryBitFlipOfADeleteIsRejected) {
  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.txn_id = 1;
  del.object_name = "Hist";
  del.row_ids = {0, 1, 7, 1u << 20, UINT64_MAX};
  ExpectEveryBitFlipRejected(del);
}

}  // namespace
}  // namespace streamrel::storage
