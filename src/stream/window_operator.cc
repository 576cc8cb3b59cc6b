#include "stream/window_operator.h"

#include "common/bytes.h"

namespace streamrel::stream {

WindowOperator::WindowOperator(WindowSpec spec) : spec_(spec) {}

WindowOperator::~WindowOperator() {
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kWindow, bytes_buffered_);
  }
}

void WindowOperator::BindGovernor(MemoryGovernor* governor) {
  if (governor_ == governor) return;
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kWindow, bytes_buffered_);
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kWindow, bytes_buffered_);
  }
}

void WindowOperator::PushElement(Element e) {
  int64_t bytes = EstimateRowBytes(e.row) + static_cast<int64_t>(sizeof(int64_t));
  bytes_buffered_ += bytes;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kWindow, bytes);
  }
  buffer_.push_back(std::move(e));
}

void WindowOperator::PopFrontElement() {
  int64_t bytes = EstimateRowBytes(buffer_.front().row) +
                  static_cast<int64_t>(sizeof(int64_t));
  bytes_buffered_ -= bytes;
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kWindow, bytes);
  }
  buffer_.pop_front();
}

void WindowOperator::ClearBuffer() {
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kWindow, bytes_buffered_);
  }
  bytes_buffered_ = 0;
  buffer_.clear();
}

Status WindowOperator::AddRow(int64_t ts, Row row,
                              std::vector<WindowBatch>* closed) {
  if (ts < last_ts_) {
    return Status::InvalidArgument(
        "out-of-order stream element: " + std::to_string(ts) + " after " +
        std::to_string(last_ts_) +
        " (streams are ordered on their CQTIME attribute)");
  }
  last_ts_ = ts;
  switch (spec_.kind) {
    case WindowSpec::Kind::kTime: {
      if (next_close_ == INT64_MIN) {
        next_close_ = spec_.FirstCloseAfter(ts);
      }
      // A row at `ts` proves the watermark reached `ts`; every window with
      // close <= ts is complete (the row itself belongs to a later window).
      RETURN_IF_ERROR(CloseDueWindows(ts, closed));
      PushElement(Element{ts, std::move(row)});
      return Status::OK();
    }
    case WindowSpec::Kind::kRows: {
      PushElement(Element{ts, std::move(row)});
      while (static_cast<int64_t>(buffer_.size()) > spec_.visible) {
        PopFrontElement();
      }
      if (++rows_since_advance_ >= spec_.advance) {
        rows_since_advance_ = 0;
        WindowBatch batch;
        batch.close_micros = ts;
        batch.rows.reserve(buffer_.size());
        for (const Element& e : buffer_) batch.rows.push_back(e.row);
        closed->push_back(std::move(batch));
      }
      return Status::OK();
    }
    case WindowSpec::Kind::kSlices:
      return Status::Internal(
          "SLICES windows consume batches, not individual rows");
  }
  return Status::Internal("unreachable window kind");
}

Status WindowOperator::AddBatch(int64_t close, const std::vector<Row>& rows,
                                std::vector<WindowBatch>* closed) {
  if (spec_.kind == WindowSpec::Kind::kSlices) {
    for (const Row& row : rows) PushElement(Element{close, row});
    last_ts_ = close;
    if (++batches_since_emit_ >= spec_.slices_count) {
      batches_since_emit_ = 0;
      WindowBatch batch;
      batch.close_micros = close;
      batch.rows.reserve(buffer_.size());
      for (Element& e : buffer_) batch.rows.push_back(std::move(e.row));
      ClearBuffer();
      closed->push_back(std::move(batch));
    }
    return Status::OK();
  }
  // Time/row windows over a derived stream: each row adopts `close - 1` as
  // its timestamp (the instant just inside the producing window, as in
  // Flink's window-end timestamps) so that a downstream window ending at
  // the same boundary includes it; the close itself advances the watermark.
  for (const Row& row : rows) {
    RETURN_IF_ERROR(AddRow(close - 1, row, closed));
  }
  return AdvanceTime(close, closed);
}

Status WindowOperator::AdvanceTime(int64_t watermark,
                                   std::vector<WindowBatch>* closed) {
  if (watermark < last_ts_) {
    return Status::InvalidArgument("watermark regression");
  }
  last_ts_ = watermark;
  if (spec_.kind != WindowSpec::Kind::kTime || next_close_ == INT64_MIN) {
    return Status::OK();
  }
  return CloseDueWindows(watermark, closed);
}

Status WindowOperator::CloseDueWindows(int64_t watermark,
                                       std::vector<WindowBatch>* closed) {
  while (next_close_ <= watermark) {
    int64_t close = next_close_;
    int64_t open = close - spec_.visible;
    WindowBatch batch;
    batch.close_micros = close;
    for (const Element& e : buffer_) {
      if (e.ts >= open && e.ts < close) batch.rows.push_back(e.row);
    }
    closed->push_back(std::move(batch));
    next_close_ += spec_.advance;
    EvictBefore(next_close_ - spec_.visible);
  }
  return Status::OK();
}

void WindowOperator::EvictBefore(int64_t ts) {
  while (!buffer_.empty() && buffer_.front().ts < ts) PopFrontElement();
}

void WindowOperator::Serialize(std::string* out) const {
  PutI64(next_close_, out);
  PutI64(rows_since_advance_, out);
  PutI64(batches_since_emit_, out);
  PutI64(last_ts_, out);
  PutI64(static_cast<int64_t>(buffer_.size()), out);
  for (const Element& e : buffer_) {
    PutI64(e.ts, out);
    SerializeRow(e.row, out);
  }
}

Status WindowOperator::Restore(const std::string& data) {
  size_t offset = 0;
  ClearBuffer();
  RETURN_IF_ERROR(GetFixed(data, &offset, &next_close_));
  RETURN_IF_ERROR(GetFixed(data, &offset, &rows_since_advance_));
  RETURN_IF_ERROR(GetFixed(data, &offset, &batches_since_emit_));
  RETURN_IF_ERROR(GetFixed(data, &offset, &last_ts_));
  int64_t count = 0;
  RETURN_IF_ERROR(GetFixed(data, &offset, &count));
  for (int64_t i = 0; i < count; ++i) {
    Element e;
    RETURN_IF_ERROR(GetFixed(data, &offset, &e.ts));
    ASSIGN_OR_RETURN(e.row, DeserializeRow(data, &offset));
    PushElement(std::move(e));
  }
  return Status::OK();
}

void WindowOperator::ResetToWatermark(int64_t watermark) {
  ClearBuffer();
  rows_since_advance_ = 0;
  batches_since_emit_ = 0;
  if (spec_.kind == WindowSpec::Kind::kTime) {
    // Windows closing after `watermark` still need the rows in
    // [watermark - (visible - advance), watermark): recovery re-primes by
    // replaying the source from there (at-least-once from the persisted
    // watermark), so accept timestamps from that bound onward.
    last_ts_ = watermark - (spec_.visible - spec_.advance);
    if (last_ts_ > watermark) last_ts_ = watermark;  // tumbling+
    next_close_ = spec_.FirstCloseAfter(watermark - 1);
    if (next_close_ <= watermark) next_close_ += spec_.advance;
  } else {
    last_ts_ = watermark;
    next_close_ = INT64_MIN;
  }
}

}  // namespace streamrel::stream
