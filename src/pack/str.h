#ifndef PICTDB_PACK_STR_H_
#define PICTDB_PACK_STR_H_

#include <vector>

#include "common/status.h"
#include "pack/pack.h"
#include "rtree/rtree.h"

namespace pictdb::pack {

/// Sort-Tile-Recursive packing (Leutenegger et al., the best-known
/// descendant of this paper's PACK): sort by x-center, cut into ~sqrt(P)
/// vertical slabs, sort each slab by y-center, chunk into full nodes.
/// Applied level by level. STR's slab construction fixes its own
/// ordering, so `options.criterion` is ignored; a non-zero
/// `options.memory_budget_bytes` is NotSupported.
Status PackStr(rtree::RTree* tree, std::vector<rtree::Entry> leaf_items,
               const PackOptions& options = {});

/// The per-level STR grouping, exposed for tests.
std::vector<std::vector<rtree::Entry>> GroupStr(
    const std::vector<rtree::Entry>& items, size_t max_per_node);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_STR_H_
