#include "storage/disk.h"

#include "common/fault_injector.h"

namespace streamrel::storage {

SimulatedDisk::SimulatedDisk(DiskModel model) : model_(model) {}

PageId SimulatedDisk::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  PageId id = next_page_++;
  pages_[id] = std::make_shared<const std::string>();
  return id;
}

int64_t SimulatedDisk::ReadCost(int64_t bytes) const {
  return model_.seek_micros +
         bytes / model_.read_mb_per_sec;  // bytes/MBps == micros/MiB-ish
}

int64_t SimulatedDisk::WriteCost(int64_t bytes) const {
  return model_.seek_micros + bytes / model_.write_mb_per_sec;
}

Status SimulatedDisk::WritePage(PageId page, std::string&& data) {
  RETURN_IF_ERROR(FaultInjector::Instance().Hit("disk.write"));
  const auto bytes = static_cast<int64_t>(data.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    return Status::IoError("write to unallocated page " +
                           std::to_string(page));
  }
  stats_.page_writes++;
  stats_.bytes_written += bytes;
  stats_.simulated_io_micros += WriteCost(bytes);
  it->second = std::make_shared<const std::string>(std::move(data));
  InstallInCache(page);
  return Status::OK();
}

Result<std::shared_ptr<const std::string>> SimulatedDisk::ReadPage(
    PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    return Status::IoError("read of unallocated page " + std::to_string(page));
  }
  if (cache_pos_.count(page)) {
    stats_.cache_hits++;
    TouchLru(page);
  } else {
    const auto bytes = static_cast<int64_t>(it->second->size());
    stats_.page_reads++;
    stats_.bytes_read += bytes;
    stats_.simulated_io_micros += ReadCost(bytes);
    InstallInCache(page);
  }
  return it->second;
}

Status SimulatedDisk::FreePage(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    return Status::IoError("free of unallocated page " + std::to_string(page));
  }
  pages_.erase(it);
  auto pos = cache_pos_.find(page);
  if (pos != cache_pos_.end()) {
    lru_.erase(pos->second);
    cache_pos_.erase(pos);
  }
  return Status::OK();
}

void SimulatedDisk::DropCache() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  cache_pos_.clear();
}

void SimulatedDisk::ChargeSequentialWrite(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += bytes;
  // Sequential appends amortize positioning; charge bandwidth only.
  stats_.simulated_io_micros += bytes / model_.write_mb_per_sec;
}

void SimulatedDisk::ChargeFlush(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += bytes;
  stats_.page_writes++;  // one device round trip per flush
  stats_.simulated_io_micros +=
      model_.seek_micros + bytes / model_.write_mb_per_sec;
}

void SimulatedDisk::ChargeSequentialRead(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_read += bytes;
  stats_.simulated_io_micros += bytes / model_.read_mb_per_sec;
}

DiskStats SimulatedDisk::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SimulatedDisk::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DiskStats();
}

void SimulatedDisk::TouchLru(PageId page) {
  auto pos = cache_pos_.find(page);
  lru_.erase(pos->second);
  lru_.push_front(page);
  pos->second = lru_.begin();
}

void SimulatedDisk::InstallInCache(PageId page) {
  auto pos = cache_pos_.find(page);
  if (pos != cache_pos_.end()) {
    TouchLru(page);
    return;
  }
  lru_.push_front(page);
  cache_pos_[page] = lru_.begin();
  while (lru_.size() > model_.cache_pages) {
    PageId victim = lru_.back();
    lru_.pop_back();
    cache_pos_.erase(victim);
  }
}

}  // namespace streamrel::storage
