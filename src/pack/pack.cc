#include "pack/pack.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "pack/external.h"
#include "pack/hilbert.h"
#include "pack/nn_grid.h"
#include "pack/str.h"

namespace pictdb::pack {

using rtree::Entry;
using rtree::RTree;

Status ValidatePackEntry(const Entry& entry) {
  const geom::Rect& r = entry.mbr;
  if (!std::isfinite(r.lo.x) || !std::isfinite(r.lo.y) ||
      !std::isfinite(r.hi.x) || !std::isfinite(r.hi.y)) {
    return Status::InvalidArgument("pack entry MBR has non-finite coordinate");
  }
  if (r.IsEmpty()) {
    return Status::InvalidArgument("pack entry MBR is empty (lo > hi)");
  }
  return Status::OK();
}

Status ValidatePackEntries(const std::vector<Entry>& entries) {
  for (size_t i = 0; i < entries.size(); ++i) {
    Status s = ValidatePackEntry(entries[i]);
    if (!s.ok()) {
      return Status::InvalidArgument(s.message() + " (entry " +
                                     std::to_string(i) + ")");
    }
  }
  return Status::OK();
}

uint64_t MonotoneBits(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  // Positive doubles already sort by their bit pattern; flipping the sign
  // bit lifts them above every negative, and complementing negatives
  // reverses their (descending-magnitude) bit order.
  return (bits & (uint64_t{1} << 63)) != 0 ? ~bits
                                           : bits | (uint64_t{1} << 63);
}

uint64_t SortKey(const Entry& entry, SortCriterion criterion,
                 const geom::Rect& hilbert_frame) {
  const geom::Point c = entry.mbr.Center();
  switch (criterion) {
    case SortCriterion::kAscendingX:
      return MonotoneBits(c.x);
    case SortCriterion::kAscendingY:
      return MonotoneBits(c.y);
    case SortCriterion::kHilbert:
      return HilbertValue(c, hilbert_frame);
  }
  PICTDB_CHECK(false) << "unknown SortCriterion";
  return 0;
}

namespace {

/// Indices of `items` ordered by the chosen spatial criterion applied to
/// the MBR centers. Keys are materialized once per entry — the sort
/// itself only compares uint64s — and ties keep input order, so the
/// result is exactly "stable sort by key", the same order the
/// sort-and-chunk pipeline gives the leaves.
std::vector<size_t> OrderBy(const std::vector<Entry>& items,
                            SortCriterion criterion) {
  geom::Rect frame;  // the Hilbert criterion quantizes against the union
  for (const Entry& e : items) frame.ExpandToInclude(e.mbr);
  std::vector<uint64_t> keys;
  keys.reserve(items.size());
  for (const Entry& e : items) keys.push_back(SortKey(e, criterion, frame));
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

}  // namespace

std::vector<std::vector<Entry>> GroupNearestNeighbor(
    const std::vector<Entry>& items, size_t max_per_node,
    SortCriterion criterion) {
  PICTDB_CHECK(max_per_node >= 1);
  const std::vector<size_t> order = OrderBy(items, criterion);

  std::vector<geom::Point> centers;
  centers.reserve(items.size());
  for (const Entry& e : items) centers.push_back(e.mbr.Center());
  NearestNeighborGrid grid(centers);

  std::vector<std::vector<Entry>> groups;
  size_t cursor = 0;  // next candidate in criterion order
  while (grid.remaining() > 0) {
    // I1 := first object of DLIST (in criterion order, still unassigned).
    while (cursor < order.size() && !grid.Contains(order[cursor])) ++cursor;
    PICTDB_CHECK(cursor < order.size());
    const size_t seed = order[cursor];
    grid.Remove(seed);

    std::vector<Entry> group;
    group.push_back(items[seed]);
    // I2..IB := NN(DLIST, I1) — each call returns the remaining item
    // closest to I1 and deletes it from DLIST.
    while (group.size() < max_per_node && grid.remaining() > 0) {
      const auto nn = grid.Nearest(centers[seed]);
      PICTDB_CHECK(nn.has_value());
      grid.Remove(*nn);
      group.push_back(items[*nn]);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<std::vector<Entry>> GroupSortChunk(
    const std::vector<Entry>& items, size_t max_per_node,
    SortCriterion criterion) {
  PICTDB_CHECK(max_per_node >= 1);
  const std::vector<size_t> order = OrderBy(items, criterion);
  std::vector<std::vector<Entry>> groups;
  for (size_t i = 0; i < order.size(); i += max_per_node) {
    std::vector<Entry> group;
    const size_t end = std::min(order.size(), i + max_per_node);
    for (size_t j = i; j < end; ++j) group.push_back(items[order[j]]);
    groups.push_back(std::move(group));
  }
  return groups;
}

Status Pack(RTree* tree, std::vector<Entry> leaf_items,
            const PackOptions& options) {
  switch (options.strategy) {
    case PackStrategy::kNearestNeighbor:
      return PackNearestNeighbor(tree, std::move(leaf_items), options);
    case PackStrategy::kStr:
      return PackStr(tree, std::move(leaf_items), options);
    case PackStrategy::kSortChunk:
    case PackStrategy::kHilbert: {
      VectorEntrySource source(&leaf_items);
      return PackExternal(tree, &source, options);
    }
  }
  return Status::InvalidArgument("unknown PackStrategy");
}

Status PackNearestNeighbor(RTree* tree, std::vector<Entry> leaf_items,
                           const PackOptions& options) {
  if (options.memory_budget_bytes != 0) {
    return Status::NotSupported("nearest-neighbor packing takes no budget");
  }
  return BulkLoad(tree, std::move(leaf_items),
                  [&options](const std::vector<Entry>& items, size_t max) {
                    return GroupNearestNeighbor(items, max,
                                                options.criterion);
                  });
}

Status PackSortChunk(RTree* tree, std::vector<Entry> leaf_items,
                     const PackOptions& options) {
  PackOptions sort_chunk = options;
  sort_chunk.strategy = PackStrategy::kSortChunk;
  return Pack(tree, std::move(leaf_items), sort_chunk);
}

std::vector<Entry> MakeLeafEntries(const std::vector<geom::Point>& points,
                                   const std::vector<storage::Rid>& rids) {
  PICTDB_CHECK(points.size() == rids.size());
  std::vector<Entry> out;
  out.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    Entry e;
    e.mbr = geom::Rect::FromPoint(points[i]);
    e.payload = Entry::PayloadFromRid(rids[i]);
    out.push_back(e);
  }
  return out;
}

std::vector<Entry> MakeLeafEntries(const std::vector<geom::Rect>& rects,
                                   const std::vector<storage::Rid>& rids) {
  PICTDB_CHECK(rects.size() == rids.size());
  std::vector<Entry> out;
  out.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    Entry e;
    e.mbr = rects[i];
    e.payload = Entry::PayloadFromRid(rids[i]);
    out.push_back(e);
  }
  return out;
}

}  // namespace pictdb::pack
