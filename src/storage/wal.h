#ifndef STREAMREL_STORAGE_WAL_H_
#define STREAMREL_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/disk.h"
#include "storage/transaction.h"

namespace streamrel::storage {

enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,           // (table, the rows one write call appended)
  kDelete = 5,           // (table, the row ids one write call deleted)
  kChannelProgress = 6,  // (channel, window-close watermark micros)
  kCheckpoint = 7,       // opaque operator-state blob (checkpoint recovery)
  kVacuum = 8,           // (table) — replayed as a barrier so post-vacuum
                         // RowIds stay stable
};

struct WalRecord {
  WalRecordType type;
  uint64_t txn_id = 0;
  std::string object_name;        // table or channel name
  std::vector<Row> rows;          // kInsert
  std::vector<uint64_t> row_ids;  // kDelete
  int64_t int_payload = 0;  // kChannelProgress watermark / kCommit
                            // commit-time / kCheckpoint coverage
  std::string blob;         // kCheckpoint state
};

/// The most bytes one replication fetch (REPL_FETCH) ships, and the cap on
/// one WAL frame, so every frame ships in one fetch. Only a frame holding a
/// single row larger than the cap exceeds it; ReadSynced ships it whole.
inline constexpr int64_t kWalSliceBytes = 1 << 20;

/// How a simulated crash leaves the end of the durable log.
enum class CrashMode {
  kClean,       // unsynced tail cut exactly at the last synced frame
  kTornTail,    // the first unsynced frame survives partially (torn write)
  kCorruptTail  // the first unsynced frame survives whole but bit-flipped
};

/// What a Replay pass observed about the log's tail.
struct WalReplayStats {
  int64_t records = 0;
  bool stopped_at_torn_tail = false;
  bool stopped_at_corrupt_tail = false;
};

/// Append-only write-ahead log. Records are buffered and charged to the
/// simulated disk as sequential writes on Sync(), which the caller issues
/// once per transaction (group commit).
///
/// Crash model: the durable image is the *synced prefix* only. Each record
/// is framed with its length and a FrameChecksum (common/checksum.h; wire
/// frames use the same framing); SimulateCrash() discards everything
/// unsynced (optionally leaving a torn or corrupt final frame, as a real
/// device would after a mid-write power cut), and Replay treats a damaged
/// frame at the tail as end-of-log rather than a recovery failure. Damage
/// anywhere BEFORE the tail is real corruption and still fails replay.
///
/// Fault points: `wal.append` (before anything is buffered) and
/// `wal.sync` (before anything is charged or marked durable).
///
/// Thread-safe.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::shared_ptr<SimulatedDisk> disk);

  /// Appends `record` as one frame, or as several (each repeating its header
  /// with the next run of rows or ids) when one would pass kWalSliceBytes.
  Status Append(const WalRecord& record);

  /// Charges any unsynced bytes to the disk model (one positioning cost +
  /// bandwidth), i.e. an fsync. Everything appended so far becomes part of
  /// the durable image. Fails without advancing durability when the
  /// `wal.sync` fault point fires.
  Status Sync();

  /// Replays all durable records in append order. A torn or
  /// checksum-mismatched frame at the very end of the log ends the replay
  /// cleanly (stats/counters record it); damage before the tail returns
  /// kIoError.
  Status Replay(const std::function<Status(const WalRecord&)>& callback,
                WalReplayStats* stats = nullptr) const;

  /// Append, then Sync. When the sync fails, the record's still-unsynced
  /// frames are dropped again, so a later Sync cannot make them durable;
  /// after an injected crash (FaultInjector::IsInjectedCrash) they stay, for
  /// SimulateCrash to tear.
  Status AppendAndSync(const WalRecord& record);

  /// Simulates a process/machine crash: the unsynced tail is discarded
  /// (it never reached the device), the cut AppendAndSync makes after a
  /// failed sync. kTornTail keeps a prefix of the first
  /// unsynced frame; kCorruptTail keeps the whole frame with a flipped
  /// payload byte. The next Append overwrites any such damaged tail, as a
  /// recovering system truncates it before writing.
  void SimulateCrash(CrashMode mode = CrashMode::kClean);

  /// Truncates the log (after a full checkpoint).
  void Reset();

  int64_t record_count() const;
  int64_t byte_size() const;

  /// Durable image boundary: bytes / records already fsynced. Replication
  /// ships exactly this prefix — the unsynced tail is not part of the
  /// durable image (PR 3 crash model) and must never leave the process.
  int64_t synced_bytes() const;
  int64_t synced_records() const;

  /// Copies up to `max_bytes` of the synced prefix starting at byte
  /// `from_offset`. The slice is NOT frame-aligned at the end; the
  /// receiver consumes whole checksum-valid frames and re-requests from
  /// its consumed offset (DecodeShipped reports how far it got). A valid
  /// frame at `from_offset` longer than `max_bytes` ships whole, so such a
  /// receiver always makes progress.
  std::string ReadSynced(int64_t from_offset, int64_t max_bytes) const;

  /// Decodes whole frames from a shipped byte slice. Advances `*consumed`
  /// past every frame whose checksum verifies and appends its record to
  /// `records`. A trailing partial frame is left unconsumed (the next
  /// fetch re-reads it). A COMPLETE frame with a bad checksum or an
  /// undecodable payload returns kIoError: the source log is intact by
  /// definition (only the synced prefix ships), so the bytes were damaged
  /// in flight and the receiver must discard and re-fetch.
  static Status DecodeShipped(const std::string& bytes, size_t* consumed,
                              std::vector<WalRecord>* records);

  /// Standby side of shipping: appends an already-framed slice of the
  /// primary's log verbatim and syncs it in one atomic step (the disk is
  /// charged as one sequential write). `bytes` must be exactly the frames
  /// DecodeShipped consumed — they are NOT re-validated here. Bypasses the
  /// `wal.append`/`wal.sync` fault points: those model primary-side write
  /// failures, and a partial slice append would break the invariant that
  /// the standby's log is a byte prefix of the primary's.
  Status AppendShipped(const std::string& bytes, int64_t record_count);

  /// Cumulative count of replays that ended at a torn / corrupt tail
  /// (surfaced under the `recovery` scope in SHOW STATS).
  int64_t torn_tails_seen() const;
  int64_t corrupt_tails_seen() const;

  /// Cumulative count of replays aborted by damage BEFORE the tail —
  /// genuine log corruption, not a crash artifact. Also surfaced under
  /// the `recovery` scope.
  int64_t midlog_corruptions_seen() const;

 private:
  // Where a frame walk stopped: after the last frame, at a partial frame
  // (a torn tail), at a whole last frame that fails its checksum (a
  // corrupt tail), or at a damaged frame before the last one or a
  // checksum-valid frame that does not decode.
  enum class WalkStop { kEnd, kPartial, kBadTail, kBadFrame };
  // The one frame walk behind Replay and DecodeShipped: passes the record
  // of each good frame of `bytes` to `visit`, in order, and stops at the
  // first bad one. `*end` is the offset past the last frame visited.
  static Result<WalkStop> WalkFrames(
      const std::string& bytes,
      const std::function<Status(WalRecord&&)>& visit, size_t* end);
  // Cuts the log back to `bytes` (`records` frames), but never into the
  // synced prefix. Caller holds mu_.
  void DropUnsyncedLocked(int64_t bytes, int64_t records);

  std::shared_ptr<SimulatedDisk> disk_;
  mutable std::mutex mu_;
  std::string log_;            // intact frames, in append order
  std::string tail_damage_;    // torn/corrupt bytes a crash left at the end
  int64_t synced_bytes_ = 0;   // prefix of log_ already charged
  int64_t synced_records_ = 0;
  int64_t record_count_ = 0;
  mutable int64_t torn_tails_seen_ = 0;
  mutable int64_t corrupt_tails_seen_ = 0;
  mutable int64_t midlog_corruptions_seen_ = 0;
};

/// The one begin / commit / abort sequence around every logged table write
/// (a window close, autocommit DML, BEGIN ... COMMIT); the only place that
/// builds kBegin, kCommit and kAbort records. Any failure between Begin()
/// and a successful Commit() aborts: in memory, so the transaction's rows
/// stay invisible and its delete stamps replaceable, and in the log. Its
/// data frames stay in the log, as its rows stay in the heap, so replay
/// assigns every later row the RowId it has live. Callers hold the DML lock
/// (DESIGN.md, "The write path").
class LoggedTxn {
 public:
  /// A handle on transaction `id`, begun by Begin().
  LoggedTxn(TransactionManager* txns, WriteAheadLog* wal, TxnId id)
      : txns_(txns), wal_(wal), id_(id) {}

  /// Starts a transaction and logs kBegin; if that fails, aborts it again.
  static Result<LoggedTxn> Begin(TransactionManager* txns,
                                 WriteAheadLog* wal);

  /// Runs `write` inside a new transaction and commits it at
  /// `commit_time_micros`; any failure aborts it and is returned.
  static Status Run(TransactionManager* txns, WriteAheadLog* wal,
                    int64_t commit_time_micros,
                    const std::function<Status(TxnId)>& write);

  TxnId id() const { return id_; }

  /// Logs kCommit and syncs (AppendAndSync), then commits in memory at
  /// `commit_time_micros` (a window close, or now). A failure aborts.
  Status Commit(int64_t commit_time_micros);

  /// Aborts in memory and logs kAbort. Returns `cause` when it is an error,
  /// otherwise how the abort went (ROLLBACK).
  Status Abort(Status cause);

 private:
  TransactionManager* txns_;
  WriteAheadLog* wal_;
  TxnId id_;
};

}  // namespace streamrel::storage

#endif  // STREAMREL_STORAGE_WAL_H_
