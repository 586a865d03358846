#include "wal/wal.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "storage/page.h"

namespace pictdb::wal {
namespace {

// Chain pages: [u32 magic][u32 next_page][payload ...].
constexpr uint32_t kChainMagic = 0x57414C50u;  // "WALP"
constexpr uint32_t kChainHeaderBytes = 8;

// Anchor page: two generation-stamped slots, back to back. Each slot is
//   [u32 magic][u32 crc][u64 generation][u32 head_page][u32 pad]
// with the CRC covering the 16 bytes after it (generation..pad).
constexpr uint32_t kAnchorMagic = 0x57414C41u;  // "WALA"
constexpr size_t kAnchorSlotBytes = 24;
constexpr size_t kAnchorSlotOffset[2] = {0, kAnchorSlotBytes};

// The smallest page holding both anchor slots, and a chain header plus
// one payload byte.
constexpr uint32_t kMinPageSize = 2 * kAnchorSlotBytes;
static_assert(kMinPageSize > kChainHeaderBytes);

// Transient-IOError retry budget for raw page I/O. The WAL bypasses the
// buffer pool, so it owes itself the same bounded-retry envelope the
// pool gives everyone else.
constexpr int kIoRetries = 8;

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Status CheckPageSize(const storage::DiskManager* disk) {
  if (disk->page_size() >= kMinPageSize) return Status::OK();
  return Status::InvalidArgument(
      "WAL needs pages of at least " + std::to_string(kMinPageSize) +
      " bytes, got " + std::to_string(disk->page_size()));
}

bool AllZero(const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void EncodeAnchorSlot(char* slot, uint64_t generation,
                      storage::PageId head) {
  StoreU64(slot + 8, generation);
  StoreU32(slot + 16, head);
  StoreU32(slot + 20, 0);
  StoreU32(slot, kAnchorMagic);
  StoreU32(slot + 4, storage::Crc32(slot + 8, kAnchorSlotBytes - 8));
}

bool DecodeAnchorSlot(const char* slot, uint64_t* generation,
                      storage::PageId* head) {
  if (LoadU32(slot) != kAnchorMagic) return false;
  if (LoadU32(slot + 4) != storage::Crc32(slot + 8, kAnchorSlotBytes - 8)) {
    return false;
  }
  *generation = LoadU64(slot + 8);
  *head = LoadU32(slot + 16);
  return true;
}

/// Frame `payload` as [u32 len][u32 crc][payload] appended to `out`.
void AppendFrame(std::string* out, const std::string& payload) {
  char hdr[8];
  StoreU32(hdr, static_cast<uint32_t>(payload.size()));
  StoreU32(hdr + 4, storage::Crc32(payload.data(), payload.size()));
  out->append(hdr, sizeof(hdr));
  out->append(payload);
}

/// Parse the framed record stream. Fills records/committed_bytes and
/// flags a torn tail; never fails (a torn tail is an answer, not an
/// error).
void ParseStream(const std::string& stream, ScanResult* out) {
  size_t pos = 0;
  while (pos + 8 <= stream.size()) {
    const uint32_t len = LoadU32(stream.data() + pos);
    if (len == 0) break;  // zero-fill past the tail: clean end
    if (len < 9 || len > kMaxRecordPayload ||
        pos + 8 + len > stream.size()) {
      out->tail_torn = true;
      break;
    }
    const char* payload = stream.data() + pos + 8;
    if (LoadU32(stream.data() + pos + 4) != storage::Crc32(payload, len)) {
      out->tail_torn = true;
      break;
    }
    StatusOr<Record> rec =
        DecodeRecordPayload(std::string_view(payload, len));
    if (!rec.ok()) {
      out->tail_torn = true;
      break;
    }
    out->records.push_back(std::move(rec).value());
    pos += 8 + len;
  }
  out->committed_bytes = pos;
  if (out->tail_torn) {
    // Report only the bytes that were actually written (trim the
    // zero-fill) so "discarded" measures the torn suffix, not slack.
    size_t last = stream.size();
    while (last > pos && stream[last - 1] == 0) --last;
    out->discarded_bytes = last - pos;
  }
}

Status RetryRead(storage::DiskManager* disk, storage::PageId id, char* out) {
  Status st;
  for (int attempt = 0; attempt <= kIoRetries; ++attempt) {
    st = disk->ReadPage(id, out);
    if (st.ok() || !st.IsIOError()) return st;
  }
  return st;
}

Status RetryWrite(storage::DiskManager* disk, storage::PageId id,
                  const char* data) {
  Status st;
  for (int attempt = 0; attempt <= kIoRetries; ++attempt) {
    st = disk->WritePage(id, data);
    if (st.ok() || !st.IsIOError()) return st;
  }
  return st;
}

}  // namespace

uint32_t Wal::PagePayload() const {
  return disk_->page_size() - kChainHeaderBytes;
}

Status Wal::ReadPageRetry(storage::PageId id, char* out) const {
  return RetryRead(disk_, id, out);
}

Status Wal::WritePageRetry(storage::PageId id, const char* data) const {
  return RetryWrite(disk_, id, data);
}

StatusOr<Wal> Wal::Create(storage::DiskManager* disk) {
  if (Status st = CheckPageSize(disk); !st.ok()) return st;
  const storage::PageId anchor = disk->AllocatePage();
  const storage::PageId head = disk->AllocatePage();

  Wal wal(disk, anchor);
  wal.chain_.push_back(head);
  wal.tail_image_.assign(disk->page_size(), '\0');
  StoreU32(wal.tail_image_.data(), kChainMagic);
  StoreU32(wal.tail_image_.data() + 4, storage::kInvalidPageId);
  if (Status st = wal.FlushTail(); !st.ok()) return st;

  std::string anchor_image(disk->page_size(), '\0');
  EncodeAnchorSlot(anchor_image.data() + kAnchorSlotOffset[0],
                   /*generation=*/0, head);
  if (Status st = RetryWrite(disk, anchor, anchor_image.data()); !st.ok()) {
    return st;
  }
  if (Status st = disk->Sync(); !st.ok()) return st;
  return wal;
}

Status Wal::ScanChain(storage::DiskManager* disk, storage::PageId head,
                      ScanResult* out, std::vector<storage::PageId>* pages,
                      std::string* stream) {
  const uint32_t page_size = disk->page_size();
  std::string page(page_size, '\0');
  std::unordered_set<storage::PageId> visited;
  storage::PageId cur = head;
  while (cur != storage::kInvalidPageId) {
    if (cur >= disk->page_count() || !visited.insert(cur).second) {
      // A link outside the file or a cycle means the chain metadata
      // itself is damaged past this point — treat it as a torn tail.
      out->tail_torn = true;
      break;
    }
    if (Status st = RetryRead(disk, cur, page.data()); !st.ok()) {
      out->tail_torn = true;
      break;
    }
    if (LoadU32(page.data()) != kChainMagic) {
      if (AllZero(page.data(), page_size)) {
        // A freshly allocated page the crash beat us to writing: the
        // stream simply ends here (its frame, if any, is torn and the
        // parser will say so).
        break;
      }
      out->tail_torn = true;
      break;
    }
    pages->push_back(cur);
    stream->append(page.data() + kChainHeaderBytes,
                   page_size - kChainHeaderBytes);
    cur = LoadU32(page.data() + 4);
  }
  ParseStream(*stream, out);
  return Status::OK();
}

StatusOr<Wal> Wal::Open(storage::DiskManager* disk,
                        storage::PageId anchor_page, ScanResult* scan) {
  if (Status st = CheckPageSize(disk); !st.ok()) return st;
  std::string anchor(disk->page_size(), '\0');
  if (Status st = RetryRead(disk, anchor_page, anchor.data()); !st.ok()) {
    return st;
  }

  // Pick the valid slot with the highest generation; a rotation crash
  // leaves the older slot intact, so at least one must decode.
  bool found = false;
  uint64_t generation = 0;
  storage::PageId head = storage::kInvalidPageId;
  for (size_t slot_offset : kAnchorSlotOffset) {
    uint64_t gen;
    storage::PageId h;
    if (DecodeAnchorSlot(anchor.data() + slot_offset, &gen, &h) &&
        (!found || gen > generation)) {
      found = true;
      generation = gen;
      head = h;
    }
  }
  if (!found) {
    return Status::Corruption("WAL anchor page " +
                              std::to_string(anchor_page) +
                              " has no valid slot");
  }

  Wal wal(disk, anchor_page);
  wal.generation_ = generation;

  std::string stream;
  std::vector<storage::PageId> pages;
  if (Status st = ScanChain(disk, head, scan, &pages, &stream); !st.ok()) {
    return st;
  }
  if (pages.empty()) {
    // Even the head page was unreadable. The committed prefix is empty;
    // rebuild the head in place so the log can accept appends again.
    pages.push_back(head);
    stream.assign(disk->page_size() - kChainHeaderBytes, '\0');
  }

  // Truncate the torn tail physically: keep only the pages holding the
  // committed prefix, rewrite the new tail page without the torn bytes,
  // and free the rest of the chain.
  const uint32_t payload = wal.PagePayload();
  const uint64_t committed = scan->committed_bytes;
  size_t tail_index = static_cast<size_t>(committed / payload);
  wal.tail_used_ = static_cast<uint32_t>(committed % payload);
  if (tail_index >= pages.size()) {
    // The committed prefix exactly fills every scanned page and no empty
    // successor was linked yet (crash mid-append): reuse the last page
    // as a full tail; the next append will chain a fresh one.
    tail_index = pages.size() - 1;
    wal.tail_used_ = payload;
  }
  for (size_t i = tail_index + 1; i < pages.size(); ++i) {
    disk->DeallocatePage(pages[i]);
  }
  pages.resize(tail_index + 1);
  wal.chain_ = pages;
  wal.chain_bytes_ = committed;

  wal.tail_image_.assign(disk->page_size(), '\0');
  StoreU32(wal.tail_image_.data(), kChainMagic);
  StoreU32(wal.tail_image_.data() + 4, storage::kInvalidPageId);
  if (wal.tail_used_ > 0) {
    std::memcpy(wal.tail_image_.data() + kChainHeaderBytes,
                stream.data() + tail_index * payload, wal.tail_used_);
  }
  if (Status st = wal.FlushTail(); !st.ok()) return st;
  if (Status st = disk->Sync(); !st.ok()) return st;
  return wal;
}

Status Wal::FlushTail() {
  return WritePageRetry(chain_.back(), tail_image_.data());
}

Status Wal::Append(const Record& record) {
  std::string frame;
  AppendFrame(&frame, EncodeRecordPayload(record));

  const uint32_t payload = PagePayload();
  size_t pos = 0;
  while (pos < frame.size()) {
    if (tail_used_ == payload) {
      // Tail full: chain a fresh page. The old tail is flushed WITH the
      // link first — if we crash before the new page gets content, it
      // reads back all-zero and the scan treats the stream as ending
      // there (mid-frame = torn tail, before the frame = clean end).
      const storage::PageId next = disk_->AllocatePage();
      StoreU32(tail_image_.data() + 4, next);
      if (Status st = FlushTail(); !st.ok()) return st;
      chain_.push_back(next);
      tail_image_.assign(disk_->page_size(), '\0');
      StoreU32(tail_image_.data(), kChainMagic);
      StoreU32(tail_image_.data() + 4, storage::kInvalidPageId);
      tail_used_ = 0;
    }
    const size_t take =
        std::min<size_t>(payload - tail_used_, frame.size() - pos);
    std::memcpy(tail_image_.data() + kChainHeaderBytes + tail_used_,
                frame.data() + pos, take);
    tail_used_ += static_cast<uint32_t>(take);
    pos += take;
  }
  if (Status st = FlushTail(); !st.ok()) return st;

  chain_bytes_ += frame.size();
  stats_.appended_records++;
  stats_.appended_bytes += frame.size();
  return Status::OK();
}

Status Wal::Sync() {
  Status st = disk_->Sync();
  if (st.ok()) stats_.syncs++;
  return st;
}

Status Wal::WriteChain(const std::string& stream,
                       std::vector<storage::PageId>* pages) const {
  // One page past the stream is always written empty and pre-linked:
  // appends continue there, so they never rewrite (and thus can never
  // tear) a page holding rotation-time bytes. Rotate pads its stream to
  // a page boundary for the same reason.
  const uint32_t payload = PagePayload();
  const size_t n_pages = (stream.size() + payload - 1) / payload + 1;
  pages->reserve(n_pages);
  for (size_t i = 0; i < n_pages; ++i) pages->push_back(disk_->AllocatePage());

  std::string image(disk_->page_size(), '\0');
  for (size_t i = 0; i < n_pages; ++i) {
    std::fill(image.begin(), image.end(), '\0');
    StoreU32(image.data(), kChainMagic);
    StoreU32(image.data() + 4, i + 1 < n_pages
                                   ? (*pages)[i + 1]
                                   : storage::kInvalidPageId);
    const size_t off = i * payload;
    const size_t take =
        off < stream.size() ? std::min<size_t>(payload, stream.size() - off)
                            : 0;
    if (take > 0) {
      std::memcpy(image.data() + kChainHeaderBytes, stream.data() + off, take);
    }
    if (Status st = WritePageRetry((*pages)[i], image.data()); !st.ok()) {
      return st;
    }
  }
  return Status::OK();
}

Status Wal::WriteAnchor(storage::PageId head) {
  // Rebuild the whole anchor image from memory: the surviving slot
  // keeps the CURRENT generation/head, the other slot advances. Never
  // read-modify-write the on-disk anchor — its other slot might hold a
  // torn image we would then faithfully preserve.
  std::string image(disk_->page_size(), '\0');
  EncodeAnchorSlot(image.data() + kAnchorSlotOffset[generation_ % 2],
                   generation_, chain_.front());
  EncodeAnchorSlot(image.data() + kAnchorSlotOffset[(generation_ + 1) % 2],
                   generation_ + 1, head);
  if (Status st = WritePageRetry(anchor_page_, image.data()); !st.ok()) {
    return st;
  }
  if (Status st = disk_->Sync(); !st.ok()) return st;

  // Read back and confirm the new slot decodes — a silently torn anchor
  // write is the one failure the dual-slot scheme cannot absorb later.
  std::string check(disk_->page_size(), '\0');
  if (Status st = ReadPageRetry(anchor_page_, check.data()); !st.ok()) {
    return st;
  }
  uint64_t gen;
  storage::PageId got_head;
  if (!DecodeAnchorSlot(check.data() + kAnchorSlotOffset[(generation_ + 1) % 2],
                        &gen, &got_head) ||
      gen != generation_ + 1 || got_head != head) {
    return Status::IOError("WAL anchor write verification failed");
  }
  return Status::OK();
}

Status Wal::Rotate(const std::vector<Record>& snapshot) {
  const uint32_t payload = PagePayload();
  std::string stream;
  size_t expected_records = snapshot.size();
  for (const Record& rec : snapshot) {
    AppendFrame(&stream, EncodeRecordPayload(rec));
  }
  // Pad to a page boundary so the snapshot owns its pages outright —
  // appends (which rewrite the tail page in place) then start on the
  // pre-linked empty page past it and can never tear snapshot bytes.
  // A padding frame needs 8 (frame) + 9 (record header) bytes; when the
  // gap is smaller, pad through the next page instead.
  if (const size_t rem = stream.size() % payload; rem != 0) {
    size_t pad_total = payload - rem;
    if (pad_total < 17) pad_total += payload;
    Record pad;
    pad.type = RecordType::kPadding;
    pad.count = pad_total - 17;
    AppendFrame(&stream, EncodeRecordPayload(pad));
    expected_records++;
  }

  // Write + sync + read-back-verify the new chain, bounded retries. A
  // verification failure means the disk tore our freshly synced write;
  // start over on fresh pages rather than trusting a rewrite in place.
  std::vector<storage::PageId> new_pages;
  constexpr int kRotateAttempts = 3;
  Status st;
  for (int attempt = 0; attempt < kRotateAttempts; ++attempt) {
    if (attempt > 0) stats_.rotation_retries++;
    for (storage::PageId id : new_pages) disk_->DeallocatePage(id);
    new_pages.clear();

    st = WriteChain(stream, &new_pages);
    if (!st.ok()) continue;
    st = disk_->Sync();
    if (!st.ok()) continue;

    ScanResult verify;
    std::vector<storage::PageId> verify_pages;
    std::string verify_stream;
    st = ScanChain(disk_, new_pages.front(), &verify, &verify_pages,
                   &verify_stream);
    if (!st.ok()) continue;
    if (verify.tail_torn || verify.records.size() != expected_records ||
        verify.committed_bytes != stream.size()) {
      st = Status::IOError("WAL rotation read-back verification failed");
      continue;
    }
    break;
  }
  if (!st.ok()) {
    for (storage::PageId id : new_pages) disk_->DeallocatePage(id);
    return st;  // old chain still anchored and intact
  }

  if (Status ast = WriteAnchor(new_pages.front()); !ast.ok()) {
    for (storage::PageId id : new_pages) disk_->DeallocatePage(id);
    return ast;
  }
  generation_++;

  for (storage::PageId id : chain_) disk_->DeallocatePage(id);
  chain_ = std::move(new_pages);
  chain_bytes_ = stream.size();

  // Appends continue on the pre-linked empty page WriteChain added past
  // the (page-aligned) snapshot.
  tail_used_ = 0;
  tail_image_.assign(disk_->page_size(), '\0');
  StoreU32(tail_image_.data(), kChainMagic);
  StoreU32(tail_image_.data() + 4, storage::kInvalidPageId);

  stats_.rotations++;
  return Status::OK();
}

}  // namespace pictdb::wal
