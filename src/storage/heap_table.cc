#include "storage/heap_table.h"

namespace streamrel::storage {

HeapTable::HeapTable(Schema schema, std::shared_ptr<SimulatedDisk> disk,
                     size_t page_size)
    : schema_(std::move(schema)),
      page_size_(page_size),
      disk_(std::move(disk)) {}

Result<RowId> HeapTable::Append(const std::vector<Row>& rows, TxnId xmin) {
  for (const Row& row : rows) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument(
          "row arity " + std::to_string(row.size()) +
          " does not match schema " + schema_.ToString());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto first = static_cast<RowId>(locations_.size());
  // Every row is appended even when a page flush fails (the rows stay in
  // the tail), so the heap holds exactly the versions the call's kInsert
  // record logs; the flush error is returned after the loop.
  Status flushed = Status::OK();
  for (const Row& row : rows) {
    locations_.push_back(
        RowLocation{kTailPage, static_cast<uint32_t>(tail_.size())});
    meta_.push_back(RowMeta{xmin, kInvalidTxn});
    SerializeRow(row, &tail_);
    if (flushed.ok() && tail_.size() >= page_size_) {
      flushed = FlushTailLocked();
    }
  }
  RETURN_IF_ERROR(flushed);
  return first;
}

Status HeapTable::FlushTailLocked() {
  if (tail_.empty()) return Status::OK();
  PageId page = disk_->AllocatePage();
  const auto bytes = static_cast<int64_t>(tail_.size());
  Status written = disk_->WritePage(page, std::move(tail_));
  if (!written.ok()) {
    // A failed write leaves the tail intact; a later flush retries it.
    (void)disk_->FreePage(page);
    return written;
  }
  flushed_bytes_ += bytes;
  tail_.clear();
  uint32_t page_index = static_cast<uint32_t>(pages_.size());
  pages_.push_back(page);
  for (auto it = locations_.rbegin();
       it != locations_.rend() && it->page_index == kTailPage; ++it) {
    it->page_index = page_index;
  }
  return Status::OK();
}

Status HeapTable::Delete(const std::vector<RowId>& row_ids, TxnId xmax,
                         const TransactionManager& txns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (RowId id : row_ids) {
    if (id >= meta_.size()) {
      return Status::InvalidArgument("delete of unknown row id");
    }
    const TxnId prior = meta_[id].xmax;
    if (prior != kInvalidTxn && !txns.IsAborted(prior)) {
      return Status::Aborted("row already deleted");
    }
  }
  for (RowId id : row_ids) meta_[id].xmax = xmax;
  return Status::OK();
}

Result<HeapTable::RowMeta> HeapTable::GetRowMeta(RowId row_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (row_id >= meta_.size()) {
    return Status::InvalidArgument("meta of unknown row id");
  }
  return meta_[row_id];
}

template <typename Accept>
Status HeapTable::Read(const std::vector<RowId>* row_ids, Accept&& accept,
                       const Visitor& visitor) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = row_ids != nullptr ? row_ids->size() : meta_.size();
  // The page of the current run of rows: a run of rows on one page reads
  // it once, and the read shares the disk's buffer instead of copying it.
  std::shared_ptr<const std::string> page;
  uint32_t page_index = kTailPage;
  for (size_t i = 0; i < count; ++i) {
    const RowId id = row_ids != nullptr ? (*row_ids)[i] : i;
    if (id >= meta_.size()) {
      return Status::InvalidArgument("read of unknown row id " +
                                     std::to_string(id));
    }
    const RowMeta& meta = meta_[id];
    if (!accept(meta)) continue;
    const RowLocation& loc = locations_[id];
    const std::string* source = &tail_;
    if (loc.page_index != kTailPage) {
      if (loc.page_index != page_index) {
        ASSIGN_OR_RETURN(page, disk_->ReadPage(pages_[loc.page_index]));
        page_index = loc.page_index;
      }
      source = page.get();
    }
    size_t offset = loc.offset;
    ASSIGN_OR_RETURN(Row row, DeserializeRow(*source, &offset));
    if (!visitor(id, meta, std::move(row))) break;
  }
  return Status::OK();
}

Status HeapTable::Fetch(const TransactionManager& txns, const Snapshot& snap,
                        TxnId reader, const std::vector<RowId>& row_ids,
                        const Visitor& visitor) const {
  VisibilityMemo visible(txns, snap, reader);
  return Read(
      &row_ids,
      [&](const RowMeta& m) { return visible.IsVisible(m.xmin, m.xmax); },
      visitor);
}

Status HeapTable::Scan(const TransactionManager& txns, const Snapshot& snap,
                       TxnId reader, const Visitor& visitor) const {
  VisibilityMemo visible(txns, snap, reader);
  return Read(
      nullptr,
      [&](const RowMeta& m) { return visible.IsVisible(m.xmin, m.xmax); },
      visitor);
}

Status HeapTable::Scan(const VersionFilter& filter,
                       const Visitor& visitor) const {
  return Read(nullptr, filter, visitor);
}

Result<Row> HeapTable::GetRow(RowId row_id) const {
  const std::vector<RowId> ids{row_id};
  Row out;
  RETURN_IF_ERROR(Read(
      &ids, [](const RowMeta&) { return true; },
      [&](RowId, const RowMeta&, Row&& row) {
        out = std::move(row);
        return false;
      }));
  return out;
}

RowId HeapTable::row_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<RowId>(locations_.size());
}

int64_t HeapTable::byte_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_bytes_ + static_cast<int64_t>(tail_.size());
}

Status HeapTable::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId page : pages_) {
    RETURN_IF_ERROR(disk_->FreePage(page));
  }
  pages_.clear();
  tail_.clear();
  locations_.clear();
  meta_.clear();
  flushed_bytes_ = 0;
  return Status::OK();
}

}  // namespace streamrel::storage
