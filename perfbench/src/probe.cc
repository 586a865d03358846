#include "probe.h"

#include <chrono>
#include <thread>
#include <vector>

#include "common.h"
#include "simd/dispatch.h"
#include "trace.h"

namespace perfbench {

namespace ps = pictdb::storage;

namespace {

void AddSince(std::atomic<uint64_t>* total, int64_t start, int64_t end) {
  total->fetch_add(static_cast<uint64_t>(end - start),
                   std::memory_order_relaxed);
}

}  // namespace

pictdb::Status TimingDiskManager::ReadPage(ps::PageId id, char* out) {
  const int64_t start = NowNs();
  pictdb::Status s = base_->ReadPage(id, out);
  const int64_t end = NowNs();
  reads_.fetch_add(1, std::memory_order_relaxed);
  AddSince(&read_ns_, start, end);
  trace::Record("storage.disk_read", start, end);
  return s;
}

pictdb::Status TimingDiskManager::WritePage(ps::PageId id, const char* data) {
  const int64_t start = NowNs();
  pictdb::Status s = base_->WritePage(id, data);
  const int64_t end = NowNs();
  writes_.fetch_add(1, std::memory_order_relaxed);
  AddSince(&write_ns_, start, end);
  trace::Record("storage.disk_write", start, end);
  return s;
}

pictdb::Status TimingDiskManager::Sync() {
  const int64_t start = NowNs();
  pictdb::Status s = base_->Sync();
  const int64_t end = NowNs();
  syncs_.fetch_add(1, std::memory_order_relaxed);
  AddSince(&sync_ns_, start, end);
  trace::Record("storage.sync", start, end);
  return s;
}

TimingDiskManager::Counts TimingDiskManager::counts() const {
  return Counts{reads_.load(),   writes_.load(),   syncs_.load(),
                read_ns_.load(), write_ns_.load(), sync_ns_.load()};
}

void TraceToggler::Run(int64_t start_ns, double seconds) {
  const size_t slices = SliceCount(seconds);
  const double slice_ns = seconds * 1e9 / static_cast<double>(slices);
  ps::BufferPoolStatsSnapshot pool_before;
  TimingDiskManager::Counts disk_before;
  for (size_t i = 0; i <= slices; ++i) {
    const auto at = start_ns + static_cast<int64_t>(i * slice_ns);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(at)));
    const ps::BufferPoolStatsSnapshot pool = pool_->StatsSnapshot();
    const TimingDiskManager::Counts disk = disk_->counts();
    if (i > 0 && (i - 1) % 2 == 0) {
      quiet_.fetches += pool.fetches - pool_before.fetches;
      quiet_.misses += pool.misses - pool_before.misses;
      quiet_.evictions += pool.evictions - pool_before.evictions;
      quiet_.disk_reads += disk.reads - disk_before.reads;
      quiet_.disk_read_ns += disk.read_ns - disk_before.read_ns;
    }
    pool_before = pool;
    disk_before = disk;
    trace::SetEnabled(i < slices && i % 2 == 1);
  }
}

namespace {

template <typename KernelFn>
uint64_t Replay(const pictdb::rtree::RTree& tree, KernelFn kernel) {
  thread_local pictdb::rtree::SoaNode node;
  thread_local std::vector<uint64_t> mask;
  std::vector<ps::PageId> stack{tree.root()};
  uint64_t visited = 0;
  while (!stack.empty()) {
    const ps::PageId id = stack.back();
    stack.pop_back();
    {
      trace::Scoped span("storage.pin");
      auto guard = tree.pool()->FetchPage(id);
      if (!guard.ok()) return visited;
      guard->Release();
    }
    {
      trace::Scoped span("rtree.decode");
      if (!tree.ReadNodePageSoa(id, &node).ok()) return visited;
    }
    ++visited;
    mask.assign(pictdb::simd::MaskWords(node.count()), 0);
    {
      trace::Scoped span("simd.kernel");
      kernel(node.rects(), mask.data());
    }
    if (node.is_leaf()) continue;
    // Push in reverse so children pop in entry order, like the search.
    std::vector<ps::PageId> children;
    pictdb::simd::ForEachSetBit(mask.data(), node.count(), [&](size_t i) {
      children.push_back(node.ChildAt(i));
    });
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
  return visited;
}

}  // namespace

uint64_t ReplayWindow(const pictdb::rtree::RTree& tree,
                      const pictdb::geom::Rect& window) {
  const auto& k = pictdb::simd::ActiveKernels();
  return Replay(tree, [&](const pictdb::simd::RectSoa& soa, uint64_t* out) {
    k.intersects(soa, window, out);
  });
}

uint64_t ReplayPoint(const pictdb::rtree::RTree& tree,
                     const pictdb::geom::Point& point) {
  const auto& k = pictdb::simd::ActiveKernels();
  return Replay(tree, [&](const pictdb::simd::RectSoa& soa, uint64_t* out) {
    k.contains_point(soa, point, out);
  });
}

}  // namespace perfbench
