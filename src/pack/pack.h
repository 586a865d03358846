#ifndef PICTDB_PACK_PACK_H_
#define PICTDB_PACK_PACK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/heap_file.h"

namespace pictdb::pack {

/// The paper's "Order objects of DLIST by some spatial criterion" — the
/// criterion is pluggable; ascending x is the paper's example and the
/// default.
enum class SortCriterion {
  kAscendingX,
  kAscendingY,
  kHilbert,
};

/// Which packing algorithm arranges the ordered entries into nodes.
enum class PackStrategy {
  kNearestNeighbor,  // the paper's PACK (§3.3): seed + B-1 nearest
  kSortChunk,        // sort by criterion, cut runs of B ("lowx")
  kStr,              // Sort-Tile-Recursive (x-slabs, y-sorted tiles)
  kHilbert,          // kSortChunk with the Hilbert criterion forced
};

struct PackOptions {
  SortCriterion criterion = SortCriterion::kAscendingX;
  PackStrategy strategy = PackStrategy::kNearestNeighbor;
  /// Bounds the sort buffer of the sort-and-chunk pipeline
  /// (src/pack/external.h); 0 means no bound, and input that fits one
  /// buffer never touches disk. The budget never changes the packed
  /// tree. Nearest-neighbor and STR reject a non-zero budget
  /// (NotSupported): they need random access to a whole level.
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files; untouched unless a run spills.
  std::string spill_dir = ".";
};

/// Groups one level's entries into nodes of at most `max_per_node`.
/// Every group must be non-empty, and more than one group must be
/// produced when entries.size() > max_per_node.
using GroupingFn = std::function<std::vector<std::vector<rtree::Entry>>(
    const std::vector<rtree::Entry>&, size_t max_per_node)>;

/// Rejects entries no packer can order: every MBR coordinate must be
/// finite and the rect non-empty (lo <= hi). NaN coordinates violate
/// strict weak ordering inside std::stable_sort (UB), and an all-empty
/// input leaves the Hilbert frame inverted (inf - inf = NaN feeding an
/// undefined NaN→uint32 cast) — so every Pack* entry point calls this
/// before touching the tree and surfaces InvalidArgument instead.
[[nodiscard]] Status ValidatePackEntry(const rtree::Entry& entry);
[[nodiscard]] Status ValidatePackEntries(
    const std::vector<rtree::Entry>& entries);

/// Order-preserving bijection from double to uint64: a < b (as doubles,
/// no NaNs) iff MonotoneBits(a) < MonotoneBits(b). -0.0 maps below +0.0.
uint64_t MonotoneBits(double value);

/// The 64-bit sort key all packers order by: MonotoneBits of the MBR
/// center's leading coordinate for the ascending criteria, the Hilbert
/// value of the center within `hilbert_frame` for kHilbert. Materialized
/// once per entry (never recomputed inside a comparator); the
/// sort-and-chunk pipeline also writes it into spill records.
uint64_t SortKey(const rtree::Entry& entry, SortCriterion criterion,
                 const geom::Rect& hilbert_frame);

/// Shared bottom-up construction: applies `grouping` per level until the
/// remaining entries fit into a single root node. The target tree must be
/// freshly created (empty). Validates entries (see ValidatePackEntries).
Status BulkLoad(rtree::RTree* tree, std::vector<rtree::Entry> leaf_items,
                const GroupingFn& grouping);

/// Single entry point dispatching on options.strategy: kSortChunk and
/// kHilbert run the sort-and-chunk pipeline (PackExternal over the
/// vector), kNearestNeighbor and kStr their level-by-level groupings.
Status Pack(rtree::RTree* tree, std::vector<rtree::Entry> leaf_items,
            const PackOptions& options);

/// Algorithm PACK from §3.3 of the paper: order the items by the spatial
/// criterion, then repeatedly take the first remaining item and its B-1
/// nearest neighbours (by MBR center distance) to form a full node;
/// recurse on the node MBRs.
Status PackNearestNeighbor(rtree::RTree* tree,
                           std::vector<rtree::Entry> leaf_items,
                           const PackOptions& options = {});

/// Sort-and-chunk packing (what the literature later called the "lowx
/// packed R-tree"): order by the criterion and cut into consecutive runs
/// of B. This is also the exact construction used in the proof of
/// Theorem 3.2. Pack() with the kSortChunk strategy forced.
Status PackSortChunk(rtree::RTree* tree, std::vector<rtree::Entry> leaf_items,
                     const PackOptions& options = {});

/// Convenience: wrap points+rids into leaf entries.
std::vector<rtree::Entry> MakeLeafEntries(
    const std::vector<geom::Point>& points,
    const std::vector<storage::Rid>& rids);
std::vector<rtree::Entry> MakeLeafEntries(
    const std::vector<geom::Rect>& rects,
    const std::vector<storage::Rid>& rids);

/// The grouping functions behind the loaders, exposed for tests and for
/// composing custom loaders.
std::vector<std::vector<rtree::Entry>> GroupNearestNeighbor(
    const std::vector<rtree::Entry>& items, size_t max_per_node,
    SortCriterion criterion);
std::vector<std::vector<rtree::Entry>> GroupSortChunk(
    const std::vector<rtree::Entry>& items, size_t max_per_node,
    SortCriterion criterion);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_PACK_H_
