#ifndef STREAMREL_STREAM_REORDER_BUFFER_H_
#define STREAMREL_STREAM_REORDER_BUFFER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/memory_governor.h"
#include "common/schema.h"
#include "common/status.h"

namespace streamrel::stream {

/// Bounded-slack reordering for nearly-ordered sources.
///
/// The paper models streams as *ordered* unbounded relations, and the
/// runtime enforces monotone CQTIME at ingest. Real feeds (multiple
/// collectors, network skew) are only nearly ordered; the standard remedy
/// is a slack buffer: hold each row until the watermark has advanced
/// `slack` past its timestamp, releasing rows in timestamp order. Rows
/// older than the slack bound are rejected (the caller may count/drop
/// them).
///
/// Usage: push rows as they arrive; releases come out via the sink
/// callback, already ordered and safe to hand to StreamRuntime::Ingest.
/// Call Flush when the source ends.
class ReorderBuffer {
 public:
  /// `sink(ts, rows)` receives ordered rows; rows sharing a timestamp are
  /// released together in arrival order.
  using Sink =
      std::function<Status(const std::vector<Row>& ordered_rows)>;

  ReorderBuffer(int64_t slack_micros, Sink sink)
      : slack_(slack_micros), sink_(std::move(sink)) {}
  ~ReorderBuffer();

  /// Accepts a row with timestamp `ts`. Returns kInvalidArgument (and does
  /// not buffer) if the row is too late: ts < watermark - slack.
  Status Push(int64_t ts, Row row);

  /// Releases everything still buffered, in order (end of stream).
  Status Flush();

  /// Highest timestamp seen (the reordering watermark).
  int64_t watermark() const { return watermark_; }

  size_t buffered_rows() const { return buffered_; }
  /// Rows successfully delivered to the sink. Rows a failing sink did not
  /// accept are re-buffered (still counted in buffered_rows) so a
  /// transient sink failure is retryable: the next Push or Flush delivers
  /// them again, in order. Invariant: pushed == released + buffered +
  /// rejected — no row is ever silently lost.
  int64_t rows_released() const { return released_; }
  /// Rows rejected at Push for being older than the slack bound.
  int64_t rows_rejected() const { return rejected_; }

  /// Charges pending-row bytes to `governor` (kReorder account) from now
  /// on; already-pending rows are charged immediately. nullptr detaches.
  void BindGovernor(MemoryGovernor* governor);

 private:
  Status ReleaseUpTo(int64_t bound);
  void ChargeRow(const Row& row);
  void ReleaseCharge(int64_t bytes);

  const int64_t slack_;
  Sink sink_;
  std::map<int64_t, std::vector<Row>> pending_;  // ts -> rows
  int64_t watermark_ = INT64_MIN;
  size_t buffered_ = 0;
  int64_t released_ = 0;
  int64_t rejected_ = 0;
  int64_t bytes_buffered_ = 0;
  MemoryGovernor* governor_ = nullptr;
};

}  // namespace streamrel::stream

#endif  // STREAMREL_STREAM_REORDER_BUFFER_H_
