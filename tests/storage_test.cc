#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/write_cache.h"

namespace pictdb::storage {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/pictdb_" + tag + ".db";
}

// --- DiskManager -------------------------------------------------------------

template <typename T>
std::unique_ptr<DiskManager> MakeDisk(uint32_t page_size);

template <>
std::unique_ptr<DiskManager> MakeDisk<InMemoryDiskManager>(
    uint32_t page_size) {
  return std::make_unique<InMemoryDiskManager>(page_size);
}

template <>
std::unique_ptr<DiskManager> MakeDisk<FileDiskManager>(uint32_t page_size) {
  auto dm = FileDiskManager::Open(TempPath("disk"), page_size);
  PICTDB_CHECK(dm.ok());
  return std::move(dm).value();
}

template <typename T>
class DiskManagerTest : public ::testing::Test {};

using DiskManagerTypes = ::testing::Types<InMemoryDiskManager,
                                          FileDiskManager>;
TYPED_TEST_SUITE(DiskManagerTest, DiskManagerTypes);

TYPED_TEST(DiskManagerTest, AllocateReadWrite) {
  auto disk = MakeDisk<TypeParam>(128);
  EXPECT_EQ(disk->page_count(), 0u);
  const PageId a = disk->AllocatePage();
  const PageId b = disk->AllocatePage();
  EXPECT_NE(a, b);
  EXPECT_EQ(disk->page_count(), 2u);

  char buf[128];
  std::memset(buf, 0xAB, sizeof(buf));
  ASSERT_TRUE(disk->WritePage(a, buf).ok());

  char out[128];
  ASSERT_TRUE(disk->ReadPage(a, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, sizeof(buf)), 0);

  // Fresh page is zeroed.
  ASSERT_TRUE(disk->ReadPage(b, out).ok());
  for (char c : out) EXPECT_EQ(c, 0);
}

TYPED_TEST(DiskManagerTest, OutOfRangeAccess) {
  auto disk = MakeDisk<TypeParam>(128);
  char buf[128] = {};
  EXPECT_TRUE(disk->ReadPage(5, buf).IsOutOfRange());
  EXPECT_TRUE(disk->WritePage(5, buf).IsOutOfRange());
}

TYPED_TEST(DiskManagerTest, DeallocateRecyclesIds) {
  auto disk = MakeDisk<TypeParam>(128);
  const PageId a = disk->AllocatePage();
  disk->AllocatePage();
  disk->DeallocatePage(a);
  EXPECT_EQ(disk->AllocatePage(), a);
}

TYPED_TEST(DiskManagerTest, StatsCount) {
  auto disk = MakeDisk<TypeParam>(128);
  const PageId a = disk->AllocatePage();
  char buf[128] = {};
  ASSERT_TRUE(disk->WritePage(a, buf).ok());
  ASSERT_TRUE(disk->ReadPage(a, buf).ok());
  ASSERT_TRUE(disk->ReadPage(a, buf).ok());
  EXPECT_EQ(disk->stats().writes, 1u);
  EXPECT_EQ(disk->stats().reads, 2u);
  disk->ResetStats();
  EXPECT_EQ(disk->stats().reads, 0u);
}

TEST(FileDiskManagerTest, PersistsAcrossReopen) {
  const std::string path = TempPath("persist");
  {
    auto dm = FileDiskManager::Open(path, 128, /*truncate=*/true);
    ASSERT_TRUE(dm.ok());
    const PageId a = (*dm)->AllocatePage();
    char buf[128];
    std::memset(buf, 0x5C, sizeof(buf));
    ASSERT_TRUE((*dm)->WritePage(a, buf).ok());
  }
  {
    auto dm = FileDiskManager::Open(path, 128, /*truncate=*/false);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ((*dm)->page_count(), 1u);
    char out[128];
    ASSERT_TRUE((*dm)->ReadPage(0, out).ok());
    EXPECT_EQ(out[17], 0x5C);
  }
}

// --- BufferPool ---------------------------------------------------------------

TEST(BufferPoolTest, FetchCachesPages) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  const PageId id = page->id();
  page->Release();

  ASSERT_TRUE(pool.FetchPage(id).ok());
  ASSERT_TRUE(pool.FetchPage(id).ok());
  EXPECT_EQ(pool.stats().fetches, 2u);
  EXPECT_EQ(pool.stats().misses, 0u);  // NewPage left it resident
}

TEST(BufferPoolTest, DirtyPagesSurviveEviction) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 2);
  PageId first;
  {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    first = page->id();
    page->mutable_data()[0] = 'Z';
  }
  // Evict `first` by filling the pool.
  for (int i = 0; i < 4; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
  }
  auto again = pool.FetchPage(first);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 'Z');
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 2);
  auto pinned1 = pool.NewPage();
  auto pinned2 = pool.NewPage();
  ASSERT_TRUE(pinned1.ok() && pinned2.ok());
  // Both frames pinned: the next allocation cannot find a victim.
  auto third = pool.NewPage();
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted());

  pinned1->Release();
  auto fourth = pool.NewPage();
  EXPECT_TRUE(fourth.ok());
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 2);
  PageId a, b;
  {
    auto pa = pool.NewPage();
    a = pa->id();
  }
  {
    auto pb = pool.NewPage();
    b = pb->id();
  }
  // Touch a so b becomes LRU.
  { auto pa = pool.FetchPage(a); }
  { auto pc = pool.NewPage(); }  // must evict b

  disk.ResetStats();
  { auto pa = pool.FetchPage(a); }  // hit
  EXPECT_EQ(disk.stats().reads, 0u);
  { auto pb = pool.FetchPage(b); }  // miss -> disk read
  EXPECT_EQ(disk.stats().reads, 1u);
}

TEST(BufferPoolTest, PinCounting) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 4);
  auto p1 = pool.NewPage();
  ASSERT_TRUE(p1.ok());
  auto p2 = pool.FetchPage(p1->id());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(pool.pinned_frames(), 1u);  // same frame pinned twice
  p1->Release();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  p2->Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, MoveSemanticsOfGuard) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 4);
  auto p1 = pool.NewPage();
  ASSERT_TRUE(p1.ok());
  PageGuard moved = std::move(*p1);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(pool.pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, FlushAllWritesDirtyPages) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 4);
  PageId id;
  {
    auto page = pool.NewPage();
    id = page->id();
    page->mutable_data()[3] = 'Q';
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  char out[128];
  ASSERT_TRUE(disk.ReadPage(id, out).ok());
  EXPECT_EQ(out[3], 'Q');
}

// A NewPage that finds no frame must give its freshly allocated disk
// page back: a pool under pin pressure would otherwise grow the file
// by one page per failed call.
TEST(BufferPoolTest, FailedNewPageDoesNotLeakDiskPages) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 1);
  auto pinned = pool.NewPage();
  ASSERT_TRUE(pinned.ok());
  const PageId pages_before = disk.page_count();
  for (int i = 0; i < 3; ++i) {
    auto failed = pool.NewPage();
    EXPECT_TRUE(failed.status().IsResourceExhausted());
  }
  pinned->Release();
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_LE(disk.page_count(), pages_before + 1);
}

TEST(BufferPoolTest, FreePageRejectsPinned) {
  InMemoryDiskManager disk(128);
  BufferPool pool(&disk, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(pool.FreePage(page->id()).IsInvalidArgument());
  const PageId id = page->id();
  page->Release();
  EXPECT_TRUE(pool.FreePage(id).ok());
  // Freed id comes back from the allocator.
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->id(), id);
}

// --- HeapFile ------------------------------------------------------------------

struct HeapEnv {
  InMemoryDiskManager disk{256};
  BufferPool pool{&disk, 64};
};

TEST(DiskManagerTest, DeallocateOutOfRangeIsIgnored) {
  InMemoryDiskManager disk(256);
  const PageId a = disk.AllocatePage();
  // Bogus ids must not corrupt the free list: subsequent allocations
  // stay fresh instead of handing out an unallocated id.
  disk.DeallocatePage(a + 100);
  const PageId b = disk.AllocatePage();
  EXPECT_EQ(b, a + 1);
}

TEST(DiskManagerTest, DoubleFreeIsIgnored) {
  InMemoryDiskManager disk(256);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  disk.DeallocatePage(a);
  disk.DeallocatePage(a);  // double free: logged and dropped
  // Only one recycled slot may exist; the second allocation after
  // draining it must be a brand-new page, not `a` again.
  EXPECT_EQ(disk.AllocatePage(), a);
  EXPECT_EQ(disk.AllocatePage(), b + 1);
}

TEST(DiskManagerTest, FileDiskManagerDoubleFreeIsIgnored) {
  const std::string path = "/tmp/pictdb_double_free_test.db";
  std::remove(path.c_str());
  auto disk = FileDiskManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(disk.ok());
  const PageId a = (*disk)->AllocatePage();
  const PageId b = (*disk)->AllocatePage();
  (*disk)->DeallocatePage(a);
  (*disk)->DeallocatePage(a);
  (*disk)->DeallocatePage(b + 50);  // out of range
  EXPECT_EQ((*disk)->AllocatePage(), a);
  EXPECT_EQ((*disk)->AllocatePage(), b + 1);
  std::remove(path.c_str());
}

TEST(DiskManagerTest, FreedPageCanBeFreedAgainAfterReuse) {
  InMemoryDiskManager disk(256);
  const PageId a = disk.AllocatePage();
  disk.DeallocatePage(a);
  EXPECT_EQ(disk.AllocatePage(), a);  // recycled
  disk.DeallocatePage(a);             // legitimate second free
  EXPECT_EQ(disk.AllocatePage(), a);  // recycled again
}

// --- WriteCacheDiskManager flush/race behavior -------------------------------
// Regression tests for Sync() releasing mu_ across base I/O: a write or
// dealloc that lands mid-flush must neither be lost nor corrupt the base.

TEST(WriteCacheTest, RewriteDuringFlushStaysBufferedForNextBarrier) {
  InMemoryDiskManager base(128);
  WriteCacheDiskManager wcache(&base);
  const PageId a = wcache.AllocatePage();
  char v1[128], v2[128];
  std::memset(v1, 'x', sizeof v1);
  std::memset(v2, 'y', sizeof v2);
  ASSERT_TRUE(wcache.WritePage(a, v1).ok());
  // Re-write the page after its old bytes were copied out for the base
  // write but before that write lands.
  wcache.SetFlushHookForTest([&](PageId id) {
    if (id == a) {
      ASSERT_TRUE(wcache.WritePage(a, v2).ok());
    }
  });
  ASSERT_TRUE(wcache.Sync().ok());
  wcache.SetFlushHookForTest(nullptr);
  // The barrier flushed the pre-barrier bytes; the racing write is
  // still buffered (not silently dropped by the post-write erase).
  char out[128];
  ASSERT_TRUE(base.ReadPage(a, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(wcache.unsynced_pages(), 1u);
  ASSERT_TRUE(wcache.Sync().ok());
  ASSERT_TRUE(base.ReadPage(a, out).ok());
  EXPECT_EQ(out[0], 'y');
  EXPECT_EQ(wcache.unsynced_pages(), 0u);
}

TEST(WriteCacheTest, DeallocateDuringFlushDoesNotCorruptFreeList) {
  InMemoryDiskManager base(128);
  WriteCacheDiskManager wcache(&base);
  const PageId a = wcache.AllocatePage();
  const PageId b = wcache.AllocatePage();
  char buf[128];
  std::memset(buf, 'z', sizeof buf);
  ASSERT_TRUE(wcache.WritePage(a, buf).ok());
  ASSERT_TRUE(wcache.WritePage(b, buf).ok());
  // Free page `a` while the flush is between copying its bytes and
  // writing them to the base: the stale write may land on the freed
  // slot, but the free list must stay intact and reallocation must
  // hand the page back zeroed.
  wcache.SetFlushHookForTest([&](PageId id) {
    if (id == a) wcache.DeallocatePage(a);
  });
  ASSERT_TRUE(wcache.Sync().ok());
  wcache.SetFlushHookForTest(nullptr);
  EXPECT_EQ(wcache.unsynced_pages(), 0u);
  EXPECT_EQ(wcache.AllocatePage(), a);  // recycled, not lost
  char out[128];
  ASSERT_TRUE(base.ReadPage(a, out).ok());
  EXPECT_EQ(out[0], '\0');  // re-zeroed on reuse, stale bytes invisible
  ASSERT_TRUE(base.ReadPage(b, out).ok());
  EXPECT_EQ(out[0], 'z');
}

TEST(WriteCacheTest, ConcurrentWritersDuringSyncConverge) {
  InMemoryDiskManager base(128);
  WriteCacheDiskManager wcache(&base);
  constexpr int kPages = 16;
  std::vector<PageId> ids(kPages);
  for (int i = 0; i < kPages; ++i) ids[i] = wcache.AllocatePage();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    char buf[128];
    Random rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const PageId id = ids[rng.Uniform(kPages)];
      std::memset(buf, static_cast<char>('a' + rng.Uniform(26)), sizeof buf);
      ASSERT_TRUE(wcache.WritePage(id, buf).ok());
    }
  });
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(wcache.Sync().ok());
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // Quiesced: one final barrier drains everything and base == cache view.
  ASSERT_TRUE(wcache.Sync().ok());
  EXPECT_EQ(wcache.unsynced_pages(), 0u);
  for (int i = 0; i < kPages; ++i) {
    char via_cache[128], via_base[128];
    ASSERT_TRUE(wcache.ReadPage(ids[i], via_cache).ok());
    ASSERT_TRUE(base.ReadPage(ids[i], via_base).ok());
    EXPECT_EQ(std::memcmp(via_cache, via_base, sizeof via_cache), 0);
  }
}

TEST(BufferPoolTest, PinLeakIsDetectedAtDestruction) {
  InMemoryDiskManager disk(256);
  std::atomic<uint64_t> leak_gauge{0};
  {
    BufferPoolOptions opts;
    opts.tolerate_pin_leaks = true;  // observe, don't abort
    opts.pin_leak_gauge = &leak_gauge;
    BufferPool pool(&disk, 4, 1, opts);
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(pool.pinned_frames(), 1u);
    // Abandon the pin: the guard must not touch the pool after this.
    guard->Leak();
  }
  EXPECT_EQ(leak_gauge.load(), 1u);
}

TEST(BufferPoolTest, CleanDestructionReportsNoPinLeaks) {
  InMemoryDiskManager disk(256);
  std::atomic<uint64_t> leak_gauge{0};
  {
    BufferPoolOptions opts;
    opts.pin_leak_gauge = &leak_gauge;
    BufferPool pool(&disk, 4, 1, opts);
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(leak_gauge.load(), 0u);
}

TEST(HeapFileTest, InsertAndGet) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  auto rid = hf->Insert(Slice("hello world"));
  ASSERT_TRUE(rid.ok());
  auto rec = hf->Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello world");
}

TEST(HeapFileTest, GetMissingSlot) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  EXPECT_TRUE(hf->Get(Rid{hf->first_page(), 9}).status().IsNotFound());
}

TEST(HeapFileTest, DeleteTombstones) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  auto rid = hf->Insert(Slice("doomed"));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(hf->Delete(*rid).ok());
  EXPECT_TRUE(hf->Get(*rid).status().IsNotFound());
  EXPECT_TRUE(hf->Delete(*rid).IsNotFound());
  // Deleted slots are not reused: Rids stay unambiguous.
  auto rid2 = hf->Insert(Slice("fresh"));
  ASSERT_TRUE(rid2.ok());
  EXPECT_FALSE(*rid2 == *rid);
}

TEST(HeapFileTest, SpillsAcrossPages) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  std::vector<Rid> rids;
  const std::string payload(100, 'x');  // few fit per 256-byte page
  for (int i = 0; i < 50; ++i) {
    auto rid = hf->Insert(Slice(payload));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  std::set<PageId> pages;
  for (const Rid& r : rids) pages.insert(r.page_id);
  EXPECT_GT(pages.size(), 1u);
  for (const Rid& r : rids) {
    auto rec = hf->Get(r);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->size(), payload.size());
  }
}

TEST(HeapFileTest, RejectsOversizedRecord) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  const std::string huge(10000, 'x');
  EXPECT_TRUE(hf->Insert(Slice(huge)).status().IsInvalidArgument());
}

TEST(HeapFileTest, ScanVisitsAllLiveRecords) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    auto rid = hf->Insert(Slice("rec" + std::to_string(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  // Delete every third record.
  std::set<Rid> deleted;
  for (size_t i = 0; i < rids.size(); i += 3) {
    ASSERT_TRUE(hf->Delete(rids[i]).ok());
    deleted.insert(rids[i]);
  }
  size_t seen = 0;
  auto rid = hf->First();
  ASSERT_TRUE(rid.ok());
  Rid cur = *rid;
  while (cur.IsValid()) {
    EXPECT_EQ(deleted.count(cur), 0u);
    ++seen;
    auto next = hf->Next(cur);
    ASSERT_TRUE(next.ok());
    cur = *next;
  }
  EXPECT_EQ(seen, rids.size() - deleted.size());
  auto count = hf->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, seen);
}

TEST(HeapFileTest, UpdateInPlaceWhenSmaller) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  auto rid = hf->Insert(Slice("0123456789"));
  ASSERT_TRUE(rid.ok());
  auto updated = hf->Update(*rid, Slice("abc"));
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(*updated == *rid);  // in place
  EXPECT_EQ(*hf->Get(*rid), "abc");
}

TEST(HeapFileTest, UpdateRelocatesWhenLarger) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  auto rid = hf->Insert(Slice("abc"));
  ASSERT_TRUE(rid.ok());
  const std::string bigger(50, 'y');
  auto updated = hf->Update(*rid, Slice(bigger));
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(*updated == *rid);
  EXPECT_TRUE(hf->Get(*rid).status().IsNotFound());
  EXPECT_EQ(*hf->Get(*updated), bigger);
}

TEST(HeapFileTest, EmptyFileScan) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  auto rid = hf->First();
  ASSERT_TRUE(rid.ok());
  EXPECT_FALSE(rid->IsValid());
  EXPECT_EQ(*hf->Count(), 0u);
}

TEST(HeapFileTest, RandomizedAgainstReference) {
  HeapEnv env;
  auto hf = HeapFile::Create(&env.pool);
  ASSERT_TRUE(hf.ok());
  Random rng(404);
  std::map<Rid, std::string> reference;
  std::vector<Rid> live;
  for (int step = 0; step < 500; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 6 || live.empty()) {
      const std::string payload(1 + rng.Uniform(60),
                                static_cast<char>('a' + rng.Uniform(26)));
      auto rid = hf->Insert(Slice(payload));
      ASSERT_TRUE(rid.ok());
      reference[*rid] = payload;
      live.push_back(*rid);
    } else if (action < 8) {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(hf->Delete(live[idx]).ok());
      reference.erase(live[idx]);
      live.erase(live.begin() + idx);
    } else {
      const size_t idx = rng.Uniform(live.size());
      const std::string payload(1 + rng.Uniform(60), 'z');
      auto rid = hf->Update(live[idx], Slice(payload));
      ASSERT_TRUE(rid.ok());
      reference.erase(live[idx]);
      reference[*rid] = payload;
      live[idx] = *rid;
    }
  }
  for (const auto& [rid, expected] : reference) {
    auto rec = hf->Get(rid);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, expected);
  }
  EXPECT_EQ(*hf->Count(), reference.size());
}

}  // namespace
}  // namespace pictdb::storage
