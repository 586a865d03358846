#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace pictdb::storage {

PageGuard::PageGuard(BufferPool* pool, PageId id, char* data,
                     std::atomic<bool>* dirty_flag, size_t frame_idx)
    : pool_(pool),
      id_(id),
      data_(data),
      dirty_flag_(dirty_flag),
      frame_idx_(frame_idx) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      id_(other.id_),
      data_(other.data_),
      dirty_flag_(other.dirty_flag_),
      frame_idx_(other.frame_idx_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_flag_ = other.dirty_flag_;
    frame_idx_ = other.frame_idx_;
    other.pool_ = nullptr;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_idx_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity, size_t shards,
                       const BufferPoolOptions& options)
    : disk_(disk),
      capacity_(capacity),
      options_(options),
      shards_(std::max<size_t>(1, std::min(shards, capacity))),
      hint_mask_(std::bit_ceil(2 * capacity) - 1),
      jitter_rng_(options.retry_jitter_seed) {
  static_assert(PackState(kInvalidPageId, kUnpinnable) == ~uint64_t{0},
                "Frame::state starts free");
  PICTDB_CHECK(capacity_ >= 1 && capacity_ < kNoFrame);
  PICTDB_CHECK(!options_.checksum_pages ||
               disk_->page_size() > 2 * kPageTrailerSize)
      << "page size too small for a checksum trailer";
  frames_ = std::make_unique<Frame[]>(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<char[]>(disk_->page_size());
  }
  hints_ = std::make_unique<std::atomic<uint32_t>[]>(hint_mask_ + 1);
  for (size_t i = 0; i <= hint_mask_; ++i) {
    hints_[i].store(kNoFrame, std::memory_order_relaxed);
  }
  // Each shard's free list hands out its frames in increasing index
  // order, so with one shard the allocation order is deterministic. The
  // locks are not yet contended, but Shard's guarded members are owned
  // by Shard, not by the pool, so the constructor still acquires them.
  for (size_t i = 0; i < capacity_; ++i) {
    const size_t idx = capacity_ - 1 - i;
    Shard& shard = shards_[idx % shards_.size()];
    MutexLock lock(&shard.mu);
    shard.free_frames.push_back(idx);
  }
}

BufferPool::~BufferPool() {
  // Pin-leak check: every guard must have been released (or explicitly
  // leaked) by now; a live pin here means some caller lost track of a
  // page reference.
  const size_t leaked = pinned_frames();
  if (leaked > 0) {
    pin_leaks_.store(leaked, std::memory_order_relaxed);
    if (options_.pin_leak_gauge != nullptr) {
      options_.pin_leak_gauge->fetch_add(leaked, std::memory_order_relaxed);
    }
    PICTDB_LOG_WARN() << leaked
                      << " page pin(s) still held at buffer pool "
                         "destruction";
    PICTDB_DCHECK(options_.tolerate_pin_leaks)
        << "buffer pool destroyed with " << leaked << " live pins";
  }
  // Best-effort flush; errors at teardown have nowhere to propagate,
  // but a failed final flush is dirty data that never reached disk —
  // silently swallowing it would hide real data loss, so log it.
  const Status flushed = FlushAll();
  if (!flushed.ok()) {
    PICTDB_LOG_WARN() << "final flush failed at buffer pool destruction: "
                      << flushed.ToString();
  }
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    const uint32_t pins =
        PinsOf(frames_[i].state.load(std::memory_order_relaxed));
    if (pins != kUnpinnable && pins > 0) ++n;
  }
  return n;
}

BufferPoolStatsSnapshot BufferPool::stats() const {
  BufferPoolStatsSnapshot s;
  for (size_t i = 0; i < capacity_; ++i) {
    s.fetches += frames_[i].hits.load(std::memory_order_relaxed);
  }
  for (const Shard& shard : shards_) {
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  s.fetches += s.misses;
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.read_retries = read_retries_.load(std::memory_order_relaxed);
  s.write_retries = write_retries_.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.pin_leaks = pin_leaks_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].hits.store(0, std::memory_order_relaxed);
  }
  for (Shard& shard : shards_) {
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
  }
  for (auto* counter : {&flushes_, &read_retries_, &write_retries_,
                        &checksum_failures_, &pin_leaks_}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

void BufferPool::Unpin(size_t frame_idx) {
  const uint64_t prev =
      frames_[frame_idx].state.fetch_sub(1, std::memory_order_release);
  PICTDB_CHECK(PinsOf(prev) > 0 && PinsOf(prev) != kUnpinnable)
      << "unpin of unpinned page " << PageOf(prev);
}

void BufferPool::Backoff(int attempt) {
  const auto base = options_.retry_backoff_base.count();
  if (base <= 0) return;
  auto window = base << std::min(attempt, 20);
  window = std::min<decltype(window)>(window,
                                      options_.retry_backoff_cap.count());
  uint64_t jitter;
  {
    MutexLock lock(&jitter_mu_);
    jitter = jitter_rng_.Uniform(static_cast<uint64_t>(window) + 1);
  }
  if (jitter > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(jitter));
  }
}

Status BufferPool::ReadPageWithRetry(PageId id, char* out) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_read_retries; ++attempt) {
    if (attempt > 0) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    last = disk_->ReadPage(id, out);
    if (last.ok()) {
      if (!options_.checksum_pages) return Status::OK();
      last = VerifyPageTrailer(out, disk_->page_size(), id);
      if (last.ok()) return Status::OK();
      // A checksum failure may be a transient in-flight bit flip:
      // re-reading can clear it. Persistent corruption exhausts the
      // retry budget and propagates as DataLoss.
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    } else if (!last.IsIOError() && !last.IsDataLoss()) {
      return last;  // not transient by contract (e.g. OutOfRange)
    }
  }
  return last;
}

Status BufferPool::WritePageWithRetry(PageId id, char* data) {
  if (options_.checksum_pages) {
    StampPageTrailer(data, disk_->page_size());
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_write_retries; ++attempt) {
    if (attempt > 0) {
      write_retries_.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    last = disk_->WritePage(id, data);
    if (last.ok() || !last.IsIOError()) return last;
  }
  return last;
}

StatusOr<size_t> BufferPool::GetVictimFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    const size_t idx = shard.free_frames.back();
    shard.free_frames.pop_back();
    return idx;
  }
  // The shard owns frames first, first + stride, ...; the hand walks
  // their positions. Two rounds honour reference bits (the first clears
  // them), so an unpinned frame is always found by the end of the
  // second unless hits keep re-referencing every one; the third round
  // then takes any unpinned frame.
  const size_t stride = shards_.size();
  const size_t first = static_cast<size_t>(&shard - shards_.data());
  const size_t owned = (capacity_ - first + stride - 1) / stride;
  for (size_t step = 0; step < 3 * owned; ++step) {
    const size_t idx = first + shard.hand * stride;
    shard.hand = (shard.hand + 1) % owned;
    Frame& frame = frames_[idx];
    uint64_t state = frame.state.load(std::memory_order_relaxed);
    if (PinsOf(state) != 0) continue;  // pinned (or unpinnable)
    if (step < 2 * owned && frame.ref.load(std::memory_order_relaxed)) {
      frame.ref.store(false, std::memory_order_relaxed);  // second chance
      continue;
    }
    // A lock-free hit may pin the frame between the load and here.
    if (!frame.state.compare_exchange_strong(
            state, PackState(PageOf(state), kUnpinnable),
            std::memory_order_acquire, std::memory_order_relaxed)) {
      continue;
    }
    const PageId victim = PageOf(state);
    if (frame.dirty.load(std::memory_order_relaxed)) {
      // Written back under the shard lock: the victim must not be
      // readable from disk in its stale form once it leaves the page
      // table.
      const Status written = WritePageWithRetry(victim, frame.data.get());
      if (!written.ok()) {
        frame.state.store(state, std::memory_order_release);
        return written;
      }
      flushes_.fetch_add(1, std::memory_order_relaxed);
      frame.dirty.store(false, std::memory_order_relaxed);
    }
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    shard.page_table.erase(victim);
    frame.state.store(PackState(kInvalidPageId, kUnpinnable),
                      std::memory_order_relaxed);
    return idx;
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all frames of the shard pinned");
}

void BufferPool::Install(Shard& shard, size_t frame_idx, PageId id) {
  Frame& frame = frames_[frame_idx];
  frame.ref.store(false, std::memory_order_relaxed);
  shard.page_table[id] = frame_idx;
  // Release: a lock-free pinner that sees the new id also sees
  // `loading` and (for NewPage) the zeroed bytes.
  frame.state.store(PackState(id, 1), std::memory_order_release);
  HintFor(id).store(static_cast<uint32_t>(frame_idx),
                    std::memory_order_relaxed);
}

PageGuard BufferPool::TryPinResident(PageId id) {
  const uint32_t idx = HintFor(id).load(std::memory_order_relaxed);
  if (idx >= capacity_) return PageGuard();
  Frame& frame = frames_[idx];
  uint64_t state = frame.state.load(std::memory_order_relaxed);
  do {
    if (PageOf(state) != id || PinsOf(state) == kUnpinnable) {
      return PageGuard();
    }
  } while (!frame.state.compare_exchange_weak(state, state + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
  if (frame.loading.load(std::memory_order_acquire)) {
    Unpin(idx);  // bytes not read yet: wait on the locked path
    return PageGuard();
  }
  if (!frame.ref.load(std::memory_order_relaxed)) {
    frame.ref.store(true, std::memory_order_relaxed);
  }
  frame.hits.fetch_add(1, std::memory_order_relaxed);
  return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
}

StatusOr<PageGuard> BufferPool::FetchPageImpl(PageId id,
                                              bool overwrite_on_error) {
  PageGuard hit = TryPinResident(id);
  if (hit.valid()) return hit;

  Shard& shard = ShardForPage(id);
  // Explicit Lock/Unlock (not an RAII guard): the miss path hands the
  // lock back around its disk read, and the analysis checks that every
  // return below balances the acquire.
  shard.mu.Lock();
  for (;;) {
    auto it = shard.page_table.find(id);
    if (it == shard.page_table.end()) break;
    const size_t idx = it->second;
    Frame& frame = frames_[idx];
    if (frame.loading.load(std::memory_order_relaxed)) {
      // Another thread is reading this page in; wait and re-probe (the
      // load may fail, in which case the entry disappears).
      shard.load_cv.Wait(&shard.mu);
      continue;
    }
    // Resident and loaded; only this lock's holders claim frames, so
    // the count is a real pin count.
    frame.state.fetch_add(1, std::memory_order_acquire);
    frame.ref.store(true, std::memory_order_relaxed);
    frame.hits.fetch_add(1, std::memory_order_relaxed);
    HintFor(id).store(static_cast<uint32_t>(idx), std::memory_order_relaxed);
    shard.mu.Unlock();
    return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
  }

  shard.misses.fetch_add(1, std::memory_order_relaxed);
  StatusOr<size_t> claimed = GetVictimFrame(shard);
  if (!claimed.ok()) {
    shard.mu.Unlock();
    return std::move(claimed).status();
  }
  const size_t idx = claimed.value();
  Frame& frame = frames_[idx];
  frame.loading.store(true, std::memory_order_relaxed);
  Install(shard, idx, id);
  shard.mu.Unlock();
  // The frame is pinned and flagged, so it cannot be evicted or handed
  // out while the read runs without the lock.
  const Status read = ReadPageWithRetry(id, frame.data.get());
  shard.mu.Lock();
  if (!read.ok()) {
    if (overwrite_on_error &&
        (read.IsDataLoss() || read.IsCorruption() || read.IsIOError())) {
      // Recovery caller will rewrite the whole page; hand out a zeroed
      // dirty frame instead of surfacing the torn/rotten on-disk image.
      std::memset(frame.data.get(), 0, disk_->page_size());
      frame.dirty.store(true, std::memory_order_relaxed);
      frame.loading.store(false, std::memory_order_release);
      shard.load_cv.NotifyAll();
      shard.mu.Unlock();
      return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
    }
    // Back to the free list. A lock-free pinner may hold a transient
    // pin; it drops it as soon as it sees `loading`.
    uint64_t ours = PackState(id, 1);
    while (!frame.state.compare_exchange_weak(
        ours, PackState(kInvalidPageId, kUnpinnable),
        std::memory_order_relaxed)) {
      ours = PackState(id, 1);
      std::this_thread::yield();
    }
    frame.loading.store(false, std::memory_order_relaxed);
    shard.page_table.erase(id);
    shard.free_frames.push_back(idx);
    shard.load_cv.NotifyAll();
    shard.mu.Unlock();
    return read;
  }
  frame.loading.store(false, std::memory_order_release);
  shard.load_cv.NotifyAll();
  shard.mu.Unlock();
  return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
}

StatusOr<PageGuard> BufferPool::FetchPage(PageId id) {
  return FetchPageImpl(id, /*overwrite_on_error=*/false);
}

StatusOr<PageGuard> BufferPool::FetchPageForOverwrite(PageId id) {
  return FetchPageImpl(id, /*overwrite_on_error=*/true);
}

StatusOr<PageGuard> BufferPool::NewPage() {
  const PageId id = disk_->AllocatePage();
  Shard& shard = ShardForPage(id);
  Status claim;
  {
    MutexLock lock(&shard.mu);
    StatusOr<size_t> idx = GetVictimFrame(shard);
    if (idx.ok()) {
      Frame& frame = frames_[*idx];
      std::memset(frame.data.get(), 0, disk_->page_size());
      // Must reach disk even if never written again.
      frame.dirty.store(true, std::memory_order_relaxed);
      Install(shard, *idx, id);
      return PageGuard(this, id, frame.data.get(), &frame.dirty, *idx);
    }
    claim = idx.status();
  }
  // No frame for the page: give it back so the failed call does not
  // leak it on disk. Outside the shard lock, as in FreePage.
  disk_->DeallocatePage(id);
  return claim;
}

Status BufferPool::FreePage(PageId id) {
  Shard& shard = ShardForPage(id);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      const size_t idx = it->second;
      Frame& frame = frames_[idx];
      uint64_t unpinned = PackState(id, 0);
      if (!frame.state.compare_exchange_strong(
              unpinned, PackState(kInvalidPageId, kUnpinnable),
              std::memory_order_acquire, std::memory_order_relaxed)) {
        return Status::InvalidArgument("freeing pinned page " +
                                       std::to_string(id));
      }
      frame.dirty.store(false, std::memory_order_relaxed);
      shard.page_table.erase(it);
      shard.free_frames.push_back(idx);
    }
  }
  disk_->DeallocatePage(id);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(&shards_[s].mu);
    for (size_t i = s; i < capacity_; i += shards_.size()) {
      Frame& frame = frames_[i];
      const PageId page =
          PageOf(frame.state.load(std::memory_order_relaxed));
      if (page != kInvalidPageId &&
          frame.dirty.load(std::memory_order_relaxed)) {
        PICTDB_RETURN_IF_ERROR(WritePageWithRetry(page, frame.data.get()));
        frame.dirty.store(false, std::memory_order_relaxed);
        flushes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

void BufferPool::PrefetchResident(std::span<const PageId> ids) {
  for (const PageId id : ids) {
    const uint32_t idx = HintFor(id).load(std::memory_order_relaxed);
    if (idx >= capacity_) continue;
    const Frame& frame = frames_[idx];
    if (PageOf(frame.state.load(std::memory_order_relaxed)) != id ||
        frame.loading.load(std::memory_order_relaxed)) {
      continue;  // not resident where the hint says, or bytes not valid
    }
    // Unpinned: the frame may be evicted concurrently, but its
    // allocation is stable for the pool's lifetime, so at worst the
    // hint warms the wrong page's bytes. Cover the SoA node header and
    // the front of the rect columns; the sequential SIMD scan's
    // hardware prefetcher takes over from there.
    const char* data = frame.data.get();
    for (size_t off = 0; off < 256; off += 64) {
      __builtin_prefetch(data + off, /*rw=*/0, /*locality=*/2);
    }
  }
}

}  // namespace pictdb::storage
