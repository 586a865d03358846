#include "rtree/node.h"

#include <atomic>
#include <cstring>

#include "common/logging.h"

namespace pictdb::rtree {

namespace {

// Page layout: { uint16 level; uint16 count; 4B pad }, then five lanes
// of `cap = NodePageCapacity(page_size)` slots each:
//   double xmin[cap], ymin[cap], xmax[cap], ymax[cap]; uint64 payload[cap]
// Slot i of every lane is entry i; slots at and past `count` are zero.
constexpr size_t kNodeHeaderSize = 8;
constexpr size_t kLanes = 5;
constexpr size_t kSlotSize = 8;

/// Byte offset of lane `lane` on a page holding `cap` slots per lane.
constexpr size_t LaneOffset(size_t lane, size_t cap) {
  return kNodeHeaderSize + lane * cap * kSlotSize;
}

uint16_t ReadCheckedHeader(const char* page, uint32_t page_size,
                           uint16_t* level) {
  uint16_t count;
  std::memcpy(level, page, 2);
  std::memcpy(&count, page + 2, 2);
  PICTDB_CHECK(count <= NodePageCapacity(page_size))
      << "corrupt R-tree node: count " << count;
  return count;
}

std::atomic<uint64_t> g_mbr_computes{0};

}  // namespace

geom::Rect Node::Mbr() const {
  g_mbr_computes.fetch_add(1, std::memory_order_relaxed);
  geom::Rect r;
  for (const Entry& e : entries) r.ExpandToInclude(e.mbr);
  return r;
}

geom::Rect SoaNode::Mbr() const {
  g_mbr_computes.fetch_add(1, std::memory_order_relaxed);
  geom::Rect r;
  for (size_t i = 0; i < count(); ++i) r.ExpandToInclude(RectAt(i));
  return r;
}

uint64_t MbrComputeCountForTesting() {
  return g_mbr_computes.load(std::memory_order_relaxed);
}

size_t NodePageCapacity(uint32_t page_size) {
  return (page_size - kNodeHeaderSize) / (kLanes * kSlotSize);
}

Node ReadNode(const char* page, uint32_t page_size) {
  Node node;
  const uint16_t count = ReadCheckedHeader(page, page_size, &node.level);
  const size_t cap = NodePageCapacity(page_size);
  node.entries.resize(count);
  for (uint16_t i = 0; i < count; ++i) {
    Entry& e = node.entries[i];
    const size_t at = i * kSlotSize;
    std::memcpy(&e.mbr.lo.x, page + LaneOffset(0, cap) + at, 8);
    std::memcpy(&e.mbr.lo.y, page + LaneOffset(1, cap) + at, 8);
    std::memcpy(&e.mbr.hi.x, page + LaneOffset(2, cap) + at, 8);
    std::memcpy(&e.mbr.hi.y, page + LaneOffset(3, cap) + at, 8);
    std::memcpy(&e.payload, page + LaneOffset(4, cap) + at, 8);
  }
  return node;
}

void ReadNodeSoa(const char* page, uint32_t page_size, SoaNode* out) {
  const uint16_t count = ReadCheckedHeader(page, page_size, &out->level);
  const size_t cap = NodePageCapacity(page_size);
  const size_t bytes = count * kSlotSize;
  out->xmin.resize(count);
  out->ymin.resize(count);
  out->xmax.resize(count);
  out->ymax.resize(count);
  out->payloads.resize(count);
  std::memcpy(out->xmin.data(), page + LaneOffset(0, cap), bytes);
  std::memcpy(out->ymin.data(), page + LaneOffset(1, cap), bytes);
  std::memcpy(out->xmax.data(), page + LaneOffset(2, cap), bytes);
  std::memcpy(out->ymax.data(), page + LaneOffset(3, cap), bytes);
  std::memcpy(out->payloads.data(), page + LaneOffset(4, cap), bytes);
}

void WriteNode(const Node& node, char* page, uint32_t page_size) {
  const size_t cap = NodePageCapacity(page_size);
  PICTDB_CHECK(node.entries.size() <= cap)
      << "R-tree node overflow: " << node.entries.size() << " entries";
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(page, &node.level, 2);
  std::memcpy(page + 2, &count, 2);
  std::memset(page + 4, 0, 4);
  for (uint16_t i = 0; i < count; ++i) {
    const Entry& e = node.entries[i];
    const size_t at = i * kSlotSize;
    std::memcpy(page + LaneOffset(0, cap) + at, &e.mbr.lo.x, 8);
    std::memcpy(page + LaneOffset(1, cap) + at, &e.mbr.lo.y, 8);
    std::memcpy(page + LaneOffset(2, cap) + at, &e.mbr.hi.x, 8);
    std::memcpy(page + LaneOffset(3, cap) + at, &e.mbr.hi.y, 8);
    std::memcpy(page + LaneOffset(4, cap) + at, &e.payload, 8);
  }
  // Zero every lane's unused tail so a page's bytes depend only on the
  // node it holds, not on what the page held before.
  const size_t tail = (cap - count) * kSlotSize;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    std::memset(page + LaneOffset(lane, cap) + count * kSlotSize, 0, tail);
  }
}

}  // namespace pictdb::rtree
