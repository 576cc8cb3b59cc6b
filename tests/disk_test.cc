#include "storage/disk.h"

#include <gtest/gtest.h>

namespace streamrel::storage {
namespace {

TEST(SimulatedDiskTest, WriteReadRoundTrip) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "hello").ok());
  auto r = disk.ReadPage(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, "hello");
}

TEST(SimulatedDiskTest, ReadsShareOneImmutableBuffer) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "first").ok());
  auto a = disk.ReadPage(p);
  auto b = disk.ReadPage(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());  // no copy per read
  // A held buffer outlives a rewrite and a free of its page.
  ASSERT_TRUE(disk.WritePage(p, "second").ok());
  EXPECT_EQ(**a, "first");
  EXPECT_EQ(**disk.ReadPage(p), "second");
  ASSERT_TRUE(disk.FreePage(p).ok());
  EXPECT_EQ(**a, "first");
}

TEST(SimulatedDiskTest, UnallocatedPageErrors) {
  SimulatedDisk disk;
  EXPECT_FALSE(disk.ReadPage(999).ok());
  EXPECT_FALSE(disk.WritePage(999, "x").ok());
  EXPECT_FALSE(disk.FreePage(999).ok());
}

TEST(SimulatedDiskTest, WriteChargesCost) {
  DiskModel model;
  model.seek_micros = 1000;
  model.write_mb_per_sec = 100;
  SimulatedDisk disk(model);
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, std::string(100 * 100, 'x')).ok());
  DiskStats stats = disk.stats();
  EXPECT_EQ(stats.page_writes, 1);
  EXPECT_EQ(stats.bytes_written, 10000);
  // seek (1000us) + 10000 bytes / 100 MBps (=100us).
  EXPECT_EQ(stats.simulated_io_micros, 1100);
}

TEST(SimulatedDiskTest, CacheHitIsFree) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "data").ok());
  int64_t after_write = disk.stats().simulated_io_micros;
  ASSERT_TRUE(disk.ReadPage(p).ok());  // in cache from the write
  EXPECT_EQ(disk.stats().simulated_io_micros, after_write);
  EXPECT_EQ(disk.stats().cache_hits, 1);
  EXPECT_EQ(disk.stats().page_reads, 0);
}

TEST(SimulatedDiskTest, ColdReadAfterDropCacheIsCharged) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "data").ok());
  disk.DropCache();
  int64_t before = disk.stats().simulated_io_micros;
  ASSERT_TRUE(disk.ReadPage(p).ok());
  EXPECT_GT(disk.stats().simulated_io_micros, before);
  EXPECT_EQ(disk.stats().page_reads, 1);
}

TEST(SimulatedDiskTest, LruEviction) {
  DiskModel model;
  model.cache_pages = 2;
  SimulatedDisk disk(model);
  PageId a = disk.AllocatePage(), b = disk.AllocatePage(),
         c = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(a, "a").ok());
  ASSERT_TRUE(disk.WritePage(b, "b").ok());
  ASSERT_TRUE(disk.WritePage(c, "c").ok());  // evicts a
  ASSERT_TRUE(disk.ReadPage(a).ok());        // miss
  EXPECT_EQ(disk.stats().page_reads, 1);
  ASSERT_TRUE(disk.ReadPage(c).ok());        // hit (still resident)
  EXPECT_EQ(disk.stats().cache_hits, 1);
}

TEST(SimulatedDiskTest, LruTouchKeepsHotPage) {
  DiskModel model;
  model.cache_pages = 2;
  SimulatedDisk disk(model);
  PageId a = disk.AllocatePage(), b = disk.AllocatePage(),
         c = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(a, "a").ok());
  ASSERT_TRUE(disk.WritePage(b, "b").ok());
  ASSERT_TRUE(disk.ReadPage(a).ok());        // a is now most recent
  ASSERT_TRUE(disk.WritePage(c, "c").ok());  // evicts b, not a
  disk.ResetStats();
  ASSERT_TRUE(disk.ReadPage(a).ok());
  EXPECT_EQ(disk.stats().cache_hits, 1);
  EXPECT_EQ(disk.stats().page_reads, 0);
}

TEST(SimulatedDiskTest, SequentialChargesSkipSeek) {
  DiskModel model;
  model.seek_micros = 5000;
  model.write_mb_per_sec = 100;
  SimulatedDisk disk(model);
  disk.ChargeSequentialWrite(10000);
  EXPECT_EQ(disk.stats().simulated_io_micros, 100);  // bandwidth only
  EXPECT_EQ(disk.stats().bytes_written, 10000);
}

TEST(SimulatedDiskTest, FreePageRemovesData) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "x").ok());
  ASSERT_TRUE(disk.FreePage(p).ok());
  EXPECT_FALSE(disk.ReadPage(p).ok());
}

TEST(SimulatedDiskTest, ResetStats) {
  SimulatedDisk disk;
  PageId p = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(p, "x").ok());
  disk.ResetStats();
  DiskStats stats = disk.stats();
  EXPECT_EQ(stats.page_writes, 0);
  EXPECT_EQ(stats.simulated_io_micros, 0);
}

}  // namespace
}  // namespace streamrel::storage
