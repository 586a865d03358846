// Differential test of the buffer pool against an in-test reference
// model: random fetch/new/modify/free sequences must produce byte-exact
// page contents and miss-for-miss CLOCK behaviour. Plus a multi-reader
// stress of the lock-free hit path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pictdb::storage {
namespace {

/// Reference model: page contents plus an exact single-shard CLOCK —
/// frame slots, the free list, reference bits and the hand.
class PoolModel {
 public:
  explicit PoolModel(size_t capacity, uint32_t page_size)
      : page_size_(page_size),
        frame_page_(capacity, kInvalidPageId),
        ref_(capacity, false) {
    // The pool hands out free frames in increasing index order.
    for (size_t i = capacity; i > 0; --i) free_frames_.push_back(i - 1);
  }

  PageId New() {
    const PageId id = free_ids_.empty()
                          ? static_cast<PageId>(contents_.size())
                          : free_ids_.back();
    if (free_ids_.empty()) {
      contents_.emplace_back(page_size_, 0);
    } else {
      free_ids_.pop_back();
      std::fill(contents_[id].begin(), contents_[id].end(), 0);
    }
    Load(id);
    return id;
  }

  /// Returns true if this fetch must be a miss in the real pool.
  bool Fetch(PageId id) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      ref_[it->second] = true;
      return false;
    }
    Load(id);
    return true;
  }

  void Write(PageId id, size_t offset, char value) {
    contents_[id][offset] = value;
  }

  char Read(PageId id, size_t offset) const { return contents_[id][offset]; }

  void Free(PageId id) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      frame_page_[it->second] = kInvalidPageId;
      free_frames_.push_back(it->second);
      resident_.erase(it);
    }
    free_ids_.push_back(id);
  }

  size_t LivePages() const { return contents_.size() - free_ids_.size(); }

 private:
  /// Claim a frame (free list first, then the CLOCK sweep) for `id`,
  /// unreferenced.
  void Load(PageId id) {
    size_t frame;
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else {
      for (;;) {
        frame = hand_;
        hand_ = (hand_ + 1) % frame_page_.size();
        if (!ref_[frame]) break;
        ref_[frame] = false;  // second chance
      }
      resident_.erase(frame_page_[frame]);
    }
    frame_page_[frame] = id;
    ref_[frame] = false;
    resident_[id] = frame;
  }

  uint32_t page_size_;
  std::vector<std::vector<char>> contents_;
  std::vector<PageId> free_ids_;
  std::vector<PageId> frame_page_;  // kInvalidPageId when free
  std::vector<bool> ref_;
  std::vector<size_t> free_frames_;  // back() is handed out next
  std::map<PageId, size_t> resident_;
  size_t hand_ = 0;
};

class BufferPoolModelTest : public ::testing::TestWithParam<int> {};

TEST_P(BufferPoolModelTest, MatchesReferenceModel) {
  constexpr size_t kCapacity = 8;
  constexpr uint32_t kPageSize = 128;
  InMemoryDiskManager disk(kPageSize);
  BufferPool pool(&disk, kCapacity);
  // Only the usable (pre-trailer) bytes belong to the consumer; the
  // checksum trailer at the end of each disk page is the pool's.
  const uint32_t usable = pool.page_size();
  PoolModel model(kCapacity, usable);

  Random rng(static_cast<uint64_t>(GetParam()));
  std::vector<PageId> live;

  for (int step = 0; step < 4000; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 2 || live.empty()) {
      // New page + write a byte.
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      const PageId model_id = model.New();
      ASSERT_EQ(guard->id(), model_id) << "allocation order diverged";
      const size_t offset = rng.Uniform(usable);
      const char value = static_cast<char>(rng.Uniform(256));
      guard->mutable_data()[offset] = value;
      model.Write(model_id, offset, value);
      live.push_back(model_id);
    } else if (action < 8) {
      // Fetch, verify a random byte, maybe write one.
      const PageId id = live[rng.Uniform(live.size())];
      const uint64_t misses_before = pool.stats().misses;
      auto guard = pool.FetchPage(id);
      ASSERT_TRUE(guard.ok());
      const bool expect_miss = model.Fetch(id);
      EXPECT_EQ(pool.stats().misses > misses_before, expect_miss)
          << "step " << step << " page " << id;
      const size_t check = rng.Uniform(usable);
      EXPECT_EQ(guard->data()[check], model.Read(id, check))
          << "content diverged at step " << step;
      if (rng.Bernoulli(0.5)) {
        const size_t offset = rng.Uniform(usable);
        const char value = static_cast<char>(rng.Uniform(256));
        guard->mutable_data()[offset] = value;
        model.Write(id, offset, value);
      }
    } else if (live.size() > 1) {
      // Free a page.
      const size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(pool.FreePage(live[pick]).ok());
      model.Free(live[pick]);
      live.erase(live.begin() + pick);
    }
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(model.LivePages(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPoolModelTest, ::testing::Range(1, 9));

// Four readers fetch id-stamped pages from a pool far smaller than the
// page set: a hot subset that stays resident (lock-free hits) plus
// random pages that keep every shard's CLOCK sweeping. Like a descent,
// a reader may pin a second page while holding the first. Every pin
// must see its own page's bytes, and every fetch must be counted.
TEST(BufferPoolConcurrencyTest, ReadersSeeTheirOwnPagesUnderEviction) {
  constexpr PageId kPages = 512;
  constexpr PageId kHot = 16;
  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 10000;
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, /*capacity=*/64, /*shards=*/4);
  const uint32_t usable = pool.page_size();
  for (PageId i = 0; i < kPages; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    ASSERT_EQ(guard->id(), i);
    std::memcpy(guard->mutable_data(), &i, sizeof(i));
    std::memcpy(guard->mutable_data() + usable - sizeof(i), &i, sizeof(i));
  }
  pool.ResetStats();

  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> wrong{0};
  auto reader = [&](uint64_t seed) {
    Random rng(seed);
    auto pick = [&] {
      return static_cast<PageId>(rng.Bernoulli(0.6) ? rng.Uniform(kHot)
                                                     : rng.Uniform(kPages));
    };
    auto fetch = [&](PageId id) {
      fetches.fetch_add(1, std::memory_order_relaxed);
      StatusOr<PageGuard> guard = pool.FetchPage(id);
      if (!guard.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return guard;
      }
      PageId head, tail;
      std::memcpy(&head, guard->data(), sizeof(head));
      std::memcpy(&tail, guard->data() + usable - sizeof(tail), sizeof(tail));
      if (guard->id() != id || head != id || tail != id) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
      return guard;
    };
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const PageId parent = pick();
      StatusOr<PageGuard> outer = fetch(parent);
      const PageId hints[2] = {pick(), pick()};
      pool.PrefetchResident(hints);
      if (rng.Bernoulli(0.5)) {
        StatusOr<PageGuard> inner = fetch(hints[0]);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(reader, 100 + t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  const BufferPoolStatsSnapshot stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, fetches.load());
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LT(stats.misses, stats.fetches);
  EXPECT_EQ(stats.evictions, stats.misses);  // the pool starts full
}

}  // namespace
}  // namespace pictdb::storage
