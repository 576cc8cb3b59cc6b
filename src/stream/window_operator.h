#ifndef STREAMREL_STREAM_WINDOW_OPERATOR_H_
#define STREAMREL_STREAM_WINDOW_OPERATOR_H_

#include <deque>
#include <vector>

#include "common/memory_governor.h"
#include "common/schema.h"
#include "common/status.h"
#include "stream/window.h"

namespace streamrel::stream {

/// One closed window: the relation of rows visible at `close_micros`
/// (RSTREAM semantics — the full window contents, not a delta).
struct WindowBatch {
  int64_t close_micros = 0;
  std::vector<Row> rows;
};

/// Buffers a stream's rows and materializes the relation sequence defined
/// by a window clause. Supports all three TruSQL window kinds:
///
///  - time windows: rows carry a CQTIME timestamp; windows close at every
///    multiple of ADVANCE once the stream's watermark passes the close.
///    Empty windows between data ARE emitted (a dashboard shows zero rows,
///    not a gap).
///  - row windows: a window closes every ADVANCE rows and contains the last
///    VISIBLE rows; the close timestamp is the newest row's timestamp.
///  - slices windows: operates on upstream *batches* (a derived stream's
///    window closes); every `slices_count` batches form one relation.
///
/// State is exposed for checkpoint-based recovery (Serialize/Restore).
class WindowOperator {
 public:
  explicit WindowOperator(WindowSpec spec);
  ~WindowOperator();

  const WindowSpec& spec() const { return spec_; }

  /// Charges buffered-row bytes to `governor` (kWindow account) from now
  /// on; already-buffered rows are charged immediately. Pass nullptr to
  /// detach (releases any charge).
  void BindGovernor(MemoryGovernor* governor);

  /// Starts the close schedule at the first boundary after `ts` if it has
  /// not started yet (time windows). Used for subscriptions that receive
  /// only watermarks (shared-aggregation CQs do not buffer rows here).
  void StartAt(int64_t ts) {
    if (spec_.kind == WindowSpec::Kind::kTime && next_close_ == INT64_MIN) {
      next_close_ = spec_.FirstCloseAfter(ts);
    }
  }

  /// Feeds one element of a raw stream (time/row windows).
  /// `ts` must be non-decreasing across calls.
  Status AddRow(int64_t ts, Row row, std::vector<WindowBatch>* closed);

  /// Feeds one upstream batch (slices windows, or time windows over a
  /// derived stream — each row adopts the batch close as its timestamp).
  Status AddBatch(int64_t close, const std::vector<Row>& rows,
                  std::vector<WindowBatch>* closed);

  /// Advances the watermark without data, closing any due windows
  /// (time windows only; row/slice windows are data-driven).
  Status AdvanceTime(int64_t watermark, std::vector<WindowBatch>* closed);

  /// Rows currently buffered (for tests and checkpoint sizing).
  size_t buffered_rows() const { return buffer_.size(); }

  /// The next scheduled close boundary (time windows; INT64_MIN until
  /// StartAt). Ingest uses this to skip the per-row StartAt/AdvanceTime
  /// calls for rows that cannot close a window.
  int64_t next_close() const { return next_close_; }

  /// Serializes the full operator state (buffer + counters) for
  /// checkpoint-based recovery.
  void Serialize(std::string* out) const;
  Status Restore(const std::string& data);

  /// Drops state and resumes as-if-fresh from `watermark` (used by
  /// active-table recovery, which re-primes from archived data instead).
  void ResetToWatermark(int64_t watermark);

 private:
  struct Element {
    int64_t ts;
    Row row;
  };

  Status CloseDueWindows(int64_t watermark, std::vector<WindowBatch>* closed);
  void EvictBefore(int64_t ts);

  // All buffer_ mutations go through these so the governor charge stays
  // exact at every mutation site (push/evict/clear/restore).
  void PushElement(Element e);
  void PopFrontElement();
  void ClearBuffer();

  const WindowSpec spec_;
  MemoryGovernor* governor_ = nullptr;
  int64_t bytes_buffered_ = 0;
  std::deque<Element> buffer_;
  int64_t next_close_ = INT64_MIN;  // time windows: next close boundary
  int64_t rows_since_advance_ = 0;  // row windows
  int64_t batches_since_emit_ = 0;  // slices windows
  int64_t last_ts_ = INT64_MIN;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_WINDOW_OPERATOR_H_
