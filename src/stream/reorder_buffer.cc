#include "stream/reorder_buffer.h"

namespace streamrel::stream {

ReorderBuffer::~ReorderBuffer() {
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kReorder, bytes_buffered_);
  }
}

void ReorderBuffer::BindGovernor(MemoryGovernor* governor) {
  if (governor_ == governor) return;
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kReorder, bytes_buffered_);
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kReorder, bytes_buffered_);
  }
}

void ReorderBuffer::ChargeRow(const Row& row) {
  int64_t bytes = EstimateRowBytes(row);
  bytes_buffered_ += bytes;
  if (governor_ != nullptr) {
    governor_->Add(MemoryGovernor::Account::kReorder, bytes);
  }
}

void ReorderBuffer::ReleaseCharge(int64_t bytes) {
  bytes_buffered_ -= bytes;
  if (governor_ != nullptr) {
    governor_->Release(MemoryGovernor::Account::kReorder, bytes);
  }
}

Status ReorderBuffer::Push(int64_t ts, Row row) {
  if (watermark_ != INT64_MIN && ts < watermark_ - slack_) {
    ++rejected_;
    return Status::InvalidArgument(
        "row at " + std::to_string(ts) + " is earlier than the slack bound (" +
        std::to_string(watermark_ - slack_) + ")");
  }
  ChargeRow(row);
  pending_[ts].push_back(std::move(row));
  ++buffered_;
  if (ts > watermark_) watermark_ = ts;
  // Everything at or before watermark - slack can no longer be displaced.
  return ReleaseUpTo(watermark_ - slack_);
}

Status ReorderBuffer::ReleaseUpTo(int64_t bound) {
  std::vector<int64_t> stamps;
  std::vector<Row> batch;
  int64_t batch_bytes = 0;
  while (!pending_.empty() && pending_.begin()->first <= bound) {
    int64_t ts = pending_.begin()->first;
    for (Row& row : pending_.begin()->second) {
      batch_bytes += EstimateRowBytes(row);
      stamps.push_back(ts);
      batch.push_back(std::move(row));
    }
    pending_.erase(pending_.begin());
  }
  if (batch.empty()) return Status::OK();
  Status status = sink_(batch);
  if (!status.ok()) {
    // Re-buffer everything the sink did not accept: the drained buckets
    // were removed whole in ascending-timestamp order, so re-inserting in
    // the same order restores both the map and each bucket's arrival
    // order. The rows stay counted as buffered (and charged to the
    // governor), making a transient sink failure retryable — the next
    // Push past the bound, or Flush, delivers them again.
    for (size_t i = 0; i < batch.size(); ++i) {
      pending_[stamps[i]].push_back(std::move(batch[i]));
    }
    return status;
  }
  buffered_ -= batch.size();
  ReleaseCharge(batch_bytes);
  released_ += static_cast<int64_t>(batch.size());
  return Status::OK();
}

Status ReorderBuffer::Flush() { return ReleaseUpTo(INT64_MAX); }

}  // namespace streamrel::stream
