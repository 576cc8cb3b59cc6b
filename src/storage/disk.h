#ifndef STREAMREL_STORAGE_DISK_H_
#define STREAMREL_STORAGE_DISK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace streamrel::storage {

using PageId = uint64_t;

/// Cost model for the simulated disk. Defaults approximate a 2009-era
/// enterprise disk array (the paper's store-first-query-later baseline runs
/// against spinning disks): ~4 ms average positioning, ~100 MB/s streaming.
struct DiskModel {
  int64_t seek_micros = 4000;        // per I/O positioning cost
  int64_t read_mb_per_sec = 100;     // sequential read bandwidth
  int64_t write_mb_per_sec = 80;     // sequential write bandwidth
  size_t cache_pages = 1024;         // buffer-pool capacity (LRU)

  static DiskModel Fast() {  // SSD-ish, for tests that ignore I/O cost
    return DiskModel{100, 2000, 1500, 1 << 20};
  }
};

/// Aggregate I/O accounting. `simulated_io_micros` is the disk-model time
/// the performed I/O *would have taken*; the engine does not sleep for it.
/// Benchmarks report both real CPU time and this simulated I/O time.
struct DiskStats {
  int64_t page_reads = 0;        // physical reads (cache misses)
  int64_t page_writes = 0;
  int64_t cache_hits = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t simulated_io_micros = 0;
};

/// An in-memory page store that charges a configurable latency/bandwidth
/// cost for every physical page access and provides an LRU buffer pool.
/// This stands in for the paper's real storage hierarchy: it makes
/// store-first-query-later pay for writing data out and reading it back,
/// which is exactly the work Continuous Analytics avoids.
///
/// Thread-safe.
class SimulatedDisk {
 public:
  explicit SimulatedDisk(DiskModel model = DiskModel());

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  /// Allocates an empty page and returns its id.
  PageId AllocatePage();

  /// Writes `data` as the page contents (charged as a physical write;
  /// the page is installed in the buffer pool). `data` is moved from only
  /// when the write succeeds, so a failed write leaves it intact.
  Status WritePage(PageId page, std::string&& data);

  /// Returns the page's contents without copying them: pages are
  /// immutable shared buffers, so the returned one stays valid and
  /// unchanged after a later WritePage or FreePage of the same page. A
  /// buffer-pool hit is free; a miss is charged.
  Result<std::shared_ptr<const std::string>> ReadPage(PageId page);

  /// Drops the page (no I/O charge).
  Status FreePage(PageId page);

  /// Evicts everything from the buffer pool (simulates a cold cache /
  /// restart) without touching stored data.
  void DropCache();

  /// Charges the model's cost for a raw append of `bytes` without page
  /// bookkeeping (used by the WAL, which is a separate sequential device).
  void ChargeSequentialWrite(int64_t bytes);
  void ChargeSequentialRead(int64_t bytes);

  /// Charges a durable flush: one positioning cost plus bandwidth for the
  /// pending bytes. This is what an fsync costs, and why group commit
  /// (fewer, larger flushes) beats syncing every append.
  void ChargeFlush(int64_t bytes);

  DiskStats stats() const;
  void ResetStats();
  const DiskModel& model() const { return model_; }

 private:
  // Caller holds mu_.
  void TouchLru(PageId page);
  void InstallInCache(PageId page);
  int64_t ReadCost(int64_t bytes) const;
  int64_t WriteCost(int64_t bytes) const;

  const DiskModel model_;
  mutable std::mutex mu_;
  PageId next_page_ = 1;
  std::unordered_map<PageId, std::shared_ptr<const std::string>> pages_;
  // LRU: front = most recent. cache_pos_ maps page -> list iterator.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> cache_pos_;
  DiskStats stats_;
};

}  // namespace streamrel::storage

#endif  // STREAMREL_STORAGE_DISK_H_
