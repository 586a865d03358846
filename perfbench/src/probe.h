// Layer probes that sit outside pictdb and reach it only through its
// public interfaces: a timing DiskManager decorator, and a bench-side
// replay of one query's descent that times the pin, node decode and
// kernel call at every node the query visits.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace perfbench {

/// Counts and times every ReadPage, WritePage and Sync of the wrapped
/// manager; inside a traced span each call is also recorded as a child
/// span (storage.disk_read, storage.disk_write, storage.sync).
class TimingDiskManager final : public pictdb::storage::DiskManager {
 public:
  explicit TimingDiskManager(pictdb::storage::DiskManager* base)
      : base_(base) {}

  uint32_t page_size() const override { return base_->page_size(); }
  pictdb::storage::PageId page_count() const override {
    return base_->page_count();
  }
  pictdb::Status ReadPage(pictdb::storage::PageId id, char* out) override;
  pictdb::Status WritePage(pictdb::storage::PageId id,
                           const char* data) override;
  pictdb::storage::PageId AllocatePage() override {
    return base_->AllocatePage();
  }
  void DeallocatePage(pictdb::storage::PageId id) override {
    base_->DeallocatePage(id);
  }
  pictdb::Status Sync() override;

  struct Counts {
    uint64_t reads = 0, writes = 0, syncs = 0;
    uint64_t read_ns = 0, write_ns = 0, sync_ns = 0;
    Counts operator-(const Counts& o) const {
      return Counts{reads - o.reads,     writes - o.writes,
                    syncs - o.syncs,     read_ns - o.read_ns,
                    write_ns - o.write_ns, sync_ns - o.sync_ns};
    }
  };
  Counts counts() const;

 private:
  pictdb::storage::DiskManager* base_;
  std::atomic<uint64_t> reads_{0}, writes_{0}, syncs_{0};
  std::atomic<uint64_t> read_ns_{0}, write_ns_{0}, sync_ns_{0};
};

/// Drives a traced run: tracing is on during the odd slices of the phase
/// and off during the even ones, so traced and untraced throughput are
/// measured side by side under the same conditions. Pool and disk read
/// counters are summed over the untraced slices only, where no probe
/// touches the pool.
class TraceToggler {
 public:
  TraceToggler(const pictdb::storage::BufferPool* pool,
               const TimingDiskManager* disk)
      : pool_(pool), disk_(disk) {}

  /// Thread body; returns at the end of the phase with tracing off.
  void Run(int64_t start_ns, double seconds);

  struct Quiet {
    uint64_t fetches = 0, misses = 0, evictions = 0;
    uint64_t disk_reads = 0, disk_read_ns = 0;
  };
  const Quiet& quiet() const { return quiet_; }

 private:
  const pictdb::storage::BufferPool* pool_;
  const TimingDiskManager* disk_;
  Quiet quiet_;
};

/// Replays the descent of a window search (point queries pass a
/// degenerate window and use the point kernel) over `tree`: for every
/// node the query visits it records storage.pin (FetchPage plus release
/// of the now-resident page), rtree.decode (ReadNodePageSoa) and
/// simd.kernel (the active kernel over the decoded node) spans. Returns
/// the number of nodes visited. The caller holds whatever reader guard
/// the tree needs.
uint64_t ReplayWindow(const pictdb::rtree::RTree& tree,
                      const pictdb::geom::Rect& window);
uint64_t ReplayPoint(const pictdb::rtree::RTree& tree,
                     const pictdb::geom::Point& point);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
