#include "storage/wal.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/checksum.h"

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
  insert.row = {Value::Int64(1), Value::String("abc")};
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
  ASSERT_EQ(replayed[1].row.size(), 2u);
  EXPECT_EQ(replayed[1].row[1].AsString(), "abc");
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

TEST_F(WalTest, SyncEveryAppendMode) {
  WriteAheadLog eager(disk_, /*sync_every_append=*/true);
  WalRecord r;
  r.type = WalRecordType::kBegin;
  ASSERT_TRUE(eager.Append(r).ok());
  EXPECT_GT(disk_->stats().bytes_written, 0);
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
  insert.row = {Value::String("unsynced")};
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
  insert.row = {Value::String("unsynced")};
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
  r.row = {Value::Null(),         Value::Bool(false), Value::Int64(-1),
           Value::Double(2.5),    Value::String(""),  Value::Timestamp(99),
           Value::Interval(-100)};
  ASSERT_TRUE(wal_->Append(r).ok());
  ASSERT_TRUE(wal_->Replay([&](const WalRecord& got) {
                    EXPECT_EQ(got.row.size(), 7u);
                    EXPECT_TRUE(got.row[0].is_null());
                    EXPECT_EQ(got.row[6].AsIntervalMicros(), -100);
                    return Status::OK();
                  })
                  .ok());
}

// Every single-bit flip of a WAL record's frame must be rejected, both
// when a crash leaves it as the log's last frame (Replay) and when it is
// shipped to a standby (DecodeShipped). A flip in the payload or the
// checksum is a corrupt tail; a flip in the length either tears the tail
// (the frame now runs past the end) or fails the checksum before the end.
TEST_F(WalTest, EveryBitFlipOfARecordIsRejected) {
  WalRecord first;
  first.type = WalRecordType::kBegin;
  first.txn_id = 1;
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.txn_id = 1;
  insert.object_name = "Hist";
  insert.row = {Value::Null(),        Value::Bool(true), Value::Int64(-7),
                Value::Double(0.1),   Value::String("/a/b/c"),
                Value::Timestamp(60), Value::Interval(5)};
  ASSERT_TRUE(wal_->Append(first).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  const std::string head = wal_->ReadSynced(0, wal_->synced_bytes());
  ASSERT_TRUE(wal_->Append(insert).ok());
  ASSERT_TRUE(wal_->Sync().ok());
  std::string record = wal_->ReadSynced(
      static_cast<int64_t>(head.size()), wal_->synced_bytes());
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

}  // namespace
}  // namespace streamrel::storage
