#ifndef PICTDB_STORAGE_BUFFER_POOL_H_
#define PICTDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/status_or.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pictdb::storage {

/// Plain-value image of the pool counters, safe to copy and compare.
/// `fetches` counts every FetchPage call: a hit or a miss.
struct BufferPoolStatsSnapshot {
  uint64_t fetches = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  /// Transient I/O errors and checksum failures absorbed by re-reading.
  uint64_t read_retries = 0;
  /// Transient I/O errors absorbed by re-writing (flush / eviction).
  uint64_t write_retries = 0;
  /// Miss reads whose page trailer failed verification (pre-retry).
  uint64_t checksum_failures = 0;
  /// Pins still held when the pool was destroyed (gauge, set once).
  uint64_t pin_leaks = 0;
};

/// Fault-tolerance knobs. The defaults give every pool page checksums
/// and a short bounded retry envelope; tests tune them down (or off) to
/// exercise specific failure modes.
struct BufferPoolOptions {
  /// Reserve the last kPageTrailerSize bytes of each page for a
  /// magic+CRC32 trailer, stamped on flush and verified on miss reads.
  /// page_size() excludes the trailer, so consumers shrink accordingly.
  bool checksum_pages = true;

  /// Retries after the first failed attempt of a miss read (transient
  /// IOError or checksum failure) / of a flush write (IOError). 0
  /// disables retrying.
  int max_read_retries = 4;
  int max_write_retries = 4;

  /// Exponential backoff between attempts: sleep Uniform(0, min(base <<
  /// attempt, cap)) — full jitter, deterministic per pool (seeded).
  std::chrono::microseconds retry_backoff_base{50};
  std::chrono::microseconds retry_backoff_cap{2000};
  uint64_t retry_jitter_seed = 0x9e3779b9u;

  /// Destruction with live pins trips a debug assertion unless set.
  /// (The pin-leak test sets it and observes the gauge instead.)
  bool tolerate_pin_leaks = false;

  /// Optional external gauge also incremented by leaked-pin detection at
  /// destruction (the pool's own stats die with it).
  std::atomic<uint64_t>* pin_leak_gauge = nullptr;
};

class BufferPool;

/// RAII pin on a buffered page. While alive the frame cannot be evicted;
/// mutation must go through mutable_data(), which marks the page dirty.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, char* data,
            std::atomic<bool>* dirty_flag, size_t frame_idx);
  ~PageGuard();

  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const char* data() const { return data_; }
  char* mutable_data() {
    dirty_flag_->store(true, std::memory_order_relaxed);
    return data_;
  }

  /// Unpin early (before destruction).
  void Release();

  /// Index of the pinned frame; key for BufferPool::LatchFor.
  size_t frame_index() const { return frame_idx_; }

  /// Abandon the pin WITHOUT unpinning — the frame stays pinned forever.
  /// Only for tests of the pool's leak detection and for crash paths
  /// that must not touch a possibly-dead pool.
  void Leak() { pool_ = nullptr; }

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  std::atomic<bool>* dirty_flag_ = nullptr;
  size_t frame_idx_ = 0;
};

/// Fixed-capacity page cache over a DiskManager with CLOCK (second
/// chance) replacement.
///
/// Thread-safe: the frame table is split into `shards` independent
/// mini-pools (page id -> shard by modulo), each with its own mutex,
/// page table, CLOCK hand and free list. A hit on a resident page and
/// every unpin touch only the pinned frame, never the shard mutex: a
/// direct-mapped hint array names the frame likely to hold a page, and
/// one compare-and-swap on the frame's packed (page id, pin count) word
/// pins it only if it still holds that page. Anything the hint cannot
/// settle falls back to the shard lock and its page table, which stay
/// the authority. A miss performs its disk read outside the shard lock
/// (the frame is pinned and flagged as loading, so concurrent fetchers
/// of the same page wait on the shard's condition variable while other
/// pages proceed). With shards == 1 (the default) eviction order is
/// deterministic: exactly the CLOCK order that buffer_pool_model_test
/// replays.
///
/// Fault tolerance: pages carry a CRC32 trailer stamped on flush and
/// verified on miss reads (torn writes and bit rot surface as
/// Status::DataLoss); transient read/write errors are absorbed by a
/// bounded exponential-backoff retry loop; permanent errors propagate
/// to the caller as the failing Status.
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory; `shards`
  /// the number of independently locked partitions (clamped to
  /// capacity).
  BufferPool(DiskManager* disk, size_t capacity, size_t shards = 1,
             const BufferPoolOptions& options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin page `id`, reading it from disk on a miss.
  StatusOr<PageGuard> FetchPage(PageId id);

  /// FetchPage variant for recovery paths that are about to rewrite the
  /// page wholesale: a miss read that fails with a data error (torn
  /// write, bit rot, transient I/O) yields a zero-filled dirty frame
  /// instead of failing the fetch. Never use it to *read* a page — the
  /// zeroed content is only meaningful to a caller that overwrites it.
  StatusOr<PageGuard> FetchPageForOverwrite(PageId id);

  /// Allocate a fresh zeroed page and pin it.
  StatusOr<PageGuard> NewPage();

  /// Drop the page from the pool (without writing it back) and return it
  /// to the disk manager's free list. The page must not be pinned.
  Status FreePage(PageId id);

  /// Write all dirty frames back to disk.
  Status FlushAll();

  /// Issue software prefetches for the frames of any of `ids` that are
  /// already resident. Purely advisory: misses are skipped (never
  /// faulted in), a racing eviction only wastes the hint, and the
  /// frames are not pinned or touched logically (no reference bit, no
  /// stats), and no lock is taken. The R-tree descents call this on the
  /// next few stack entries so a child's page bytes are in cache by the
  /// time its SIMD scan starts.
  void PrefetchResident(std::span<const PageId> ids);

  DiskManager* disk() const { return disk_; }

  /// Bytes of each page usable by consumers — the disk page size minus
  /// the checksum trailer (when enabled).
  uint32_t page_size() const {
    return disk_->page_size() -
           (options_.checksum_pages ? kPageTrailerSize : 0);
  }

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  const BufferPoolOptions& options() const { return options_; }
  /// Counters summed over the frames (hits), the shards (misses,
  /// evictions) and the pool (I/O). Lock-free; concurrent fetches may
  /// land between the sums.
  BufferPoolStatsSnapshot stats() const;
  BufferPoolStatsSnapshot StatsSnapshot() const { return stats(); }
  void ResetStats();

  /// Number of currently pinned frames (for tests / leak detection).
  size_t pinned_frames() const;

  /// Reader/writer latch of the frame pinned by `guard`. Writers that
  /// mutate page bytes while concurrent readers may be copying them
  /// (the R-tree's online mutation path) take it exclusive around the
  /// byte write; readers take it shared around the copy. The latch
  /// belongs to the frame — hold it only while the pin is alive, and
  /// never across a fetch of another page (latches are leaf locks in
  /// the DESIGN.md §10 hierarchy).
  SharedMutex* LatchFor(const PageGuard& guard) {
    return &frames_[guard.frame_index()].latch;
  }

 private:
  friend class PageGuard;

  /// Low half of Frame::state for a frame no one may pin: free, or
  /// claimed by an evictor or FreePage under the shard lock.
  static constexpr uint32_t kUnpinnable = 0xFFFFFFFFu;
  /// Empty hint slot.
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

  static constexpr uint64_t PackState(PageId id, uint32_t pins) {
    return (uint64_t{id} << 32) | pins;
  }
  static constexpr PageId PageOf(uint64_t state) {
    return static_cast<PageId>(state >> 32);
  }
  static constexpr uint32_t PinsOf(uint64_t state) {
    return static_cast<uint32_t>(state);
  }

  /// The bookkeeping fields are atomic because the lock-free hit path
  /// reads them without the shard lock. What page a frame holds changes
  /// only under the owning shard's mutex, with the frame unpinnable.
  /// Aligned so two frames' pin words never share a cache line.
  struct alignas(64) Frame {
    /// Page id (high 32 bits) and pin count (low 32 bits), or
    /// kUnpinnable pins. One word, so a lock-free pin can only land on
    /// the page it asked for.
    std::atomic<uint64_t> state{~uint64_t{0}};  // (invalid, unpinnable)
    /// CLOCK reference bit: set on a hit, cleared by the sweep.
    std::atomic<bool> ref{false};
    /// True while a miss is reading this frame's page from disk outside
    /// the shard lock. Written under the shard lock.
    std::atomic<bool> loading{false};
    std::atomic<bool> dirty{false};
    /// Hits served from this frame, whatever page it held.
    std::atomic<uint64_t> hits{0};
    std::unique_ptr<char[]> data;
    /// Guards the page *bytes* against concurrent read/write while the
    /// frame is pinned (see LatchFor). Orthogonal to the shard mutex,
    /// which guards the mapping, not the content.
    SharedMutex latch;
  };

  struct Shard {
    mutable Mutex mu;
    CondVar load_cv;  // signalled when a frame's `loading` clears
    std::unordered_map<PageId, size_t> page_table GUARDED_BY(mu);
    std::vector<size_t> free_frames GUARDED_BY(mu);
    /// Next position (0-based, among this shard's frames) the CLOCK
    /// sweep inspects.
    size_t hand GUARDED_BY(mu) = 0;
    /// Written under `mu`, read lock-free by stats().
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard& ShardForPage(PageId id) { return shards_[id % shards_.size()]; }
  std::atomic<uint32_t>& HintFor(PageId id) const {
    return hints_[id & hint_mask_];
  }

  /// Lock-free pin of `id` through its hint; an invalid guard when the
  /// hint cannot settle it (the locked path then decides).
  PageGuard TryPinResident(PageId id);
  void Unpin(size_t frame_idx);
  /// Take a frame for a new page: a free one, else a CLOCK victim
  /// (written back first if dirty). The frame comes back clean,
  /// unpinnable and out of the page table. A failed write-back leaves
  /// the victim resident and evictable.
  StatusOr<size_t> GetVictimFrame(Shard& shard) REQUIRES(shard.mu);
  /// Publish a claimed frame as holding `id`, pinned once and
  /// unreferenced.
  void Install(Shard& shard, size_t frame_idx, PageId id) REQUIRES(shard.mu);

  StatusOr<PageGuard> FetchPageImpl(PageId id, bool overwrite_on_error);

  /// Miss-path read with checksum verification and bounded
  /// exponential-backoff retry of transient failures.
  Status ReadPageWithRetry(PageId id, char* out);
  /// Flush-path write: stamps the trailer, retries transient IOErrors.
  Status WritePageWithRetry(PageId id, char* data);
  /// Sleep the backoff interval for `attempt` (0-based), with jitter.
  void Backoff(int attempt) EXCLUDES(jitter_mu_);

  DiskManager* disk_;
  size_t capacity_;
  BufferPoolOptions options_;
  std::unique_ptr<Frame[]> frames_;
  std::vector<Shard> shards_;
  /// page_id & hint_mask_ -> frame index that last held a page with
  /// that slot; 2 x capacity slots rounded up to a power of two. A
  /// stale entry only costs a trip to the locked path.
  std::unique_ptr<std::atomic<uint32_t>[]> hints_;
  size_t hint_mask_;
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> write_retries_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> pin_leaks_{0};
  Mutex jitter_mu_;
  Random jitter_rng_ GUARDED_BY(jitter_mu_);
};

}  // namespace pictdb::storage

#endif  // PICTDB_STORAGE_BUFFER_POOL_H_
