#include "rtree/knn.h"

#include <algorithm>
#include <queue>

#include "geom/distance.h"
#include "rtree/descent.h"

namespace pictdb::rtree {

namespace {

/// Priority-queue element: an unexpanded node, an MBR-level candidate
/// entry, or a refined (exact-distance) entry; keyed by distance.
struct QueueItem {
  double distance;
  enum class Kind { kNode, kEntry, kRefined } kind = Kind::kNode;
  storage::PageId node;    // kNode
  LeafHit hit;             // kEntry / kRefined

  friend bool operator>(const QueueItem& a, const QueueItem& b) {
    return a.distance > b.distance;
  }
};

}  // namespace

StatusOr<std::vector<Neighbor>> SearchNearest(const RTree& tree,
                                              const geom::Point& query,
                                              size_t k, SearchStats* stats,
                                              const SearchOptions& options) {
  std::vector<Neighbor> result;
  if (k == 0 || tree.Size() == 0) return result;

  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push(QueueItem{0.0, QueueItem::Kind::kNode, tree.root(), {}});

  // Best-first expansion never holds two nodes at once, so one SoA
  // image is reused for every decode (no per-node allocation).
  SoaNode node;
  while (!frontier.empty()) {
    PICTDB_RETURN_IF_ERROR(options.CheckRunnable());
    const QueueItem item = frontier.top();
    frontier.pop();

    if (item.kind == QueueItem::Kind::kEntry) {
      // Entries pop in exact distance order relative to everything still
      // queued, so this is the next nearest neighbour.
      result.push_back(Neighbor{item.hit, item.distance});
      if (result.size() == k) break;
      continue;
    }

    const Status loaded = tree.ReadNodePageSoa(item.node, &node);
    if (!loaded.ok()) {
      if (SkipUnreadable(loaded, item.node, options, stats)) continue;
      return loaded;
    }
    if (stats != nullptr) ++stats->nodes_visited;
    for (size_t i = 0; i < node.count(); ++i) {
      if (stats != nullptr) ++stats->entries_tested;
      const geom::Rect mbr = node.RectAt(i);
      const double d = geom::MinDistance(mbr, query);
      if (node.is_leaf()) {
        frontier.push(QueueItem{d, QueueItem::Kind::kEntry,
                                storage::kInvalidPageId,
                                LeafHit{mbr, node.RidAt(i)}});
      } else {
        frontier.push(
            QueueItem{d, QueueItem::Kind::kNode, node.ChildAt(i), {}});
      }
    }
  }
  if (stats != nullptr) stats->results = result.size();
  return result;
}

StatusOr<std::vector<Neighbor>> SearchNearestExact(
    const RTree& tree, const geom::Point& query, size_t k,
    const GeometryResolver& resolver, SearchStats* stats,
    const SearchOptions& options) {
  std::vector<Neighbor> result;
  if (k == 0 || tree.Size() == 0) return result;

  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push(QueueItem{0.0, QueueItem::Kind::kNode, tree.root(), {}});

  SoaNode node;
  while (!frontier.empty()) {
    PICTDB_RETURN_IF_ERROR(options.CheckRunnable());
    const QueueItem item = frontier.top();
    frontier.pop();

    switch (item.kind) {
      case QueueItem::Kind::kRefined:
        // Exact distance known and no queued item can beat it.
        result.push_back(Neighbor{item.hit, item.distance});
        if (result.size() == k) return result;
        break;
      case QueueItem::Kind::kEntry: {
        // MBR-level candidate: refine to the exact object distance and
        // re-queue (exact >= MBR MINDIST, so ordering stays correct).
        PICTDB_ASSIGN_OR_RETURN(const geom::Geometry g,
                                resolver(item.hit.rid));
        frontier.push(QueueItem{geom::DistanceTo(g, query),
                                QueueItem::Kind::kRefined,
                                storage::kInvalidPageId, item.hit});
        break;
      }
      case QueueItem::Kind::kNode: {
        const Status loaded = tree.ReadNodePageSoa(item.node, &node);
        if (!loaded.ok()) {
          if (SkipUnreadable(loaded, item.node, options, stats)) break;
          return loaded;
        }
        if (stats != nullptr) ++stats->nodes_visited;
        for (size_t i = 0; i < node.count(); ++i) {
          if (stats != nullptr) ++stats->entries_tested;
          const geom::Rect mbr = node.RectAt(i);
          const double d = geom::MinDistance(mbr, query);
          frontier.push(QueueItem{
              d,
              node.is_leaf() ? QueueItem::Kind::kEntry
                             : QueueItem::Kind::kNode,
              node.is_leaf() ? storage::kInvalidPageId : node.ChildAt(i),
              node.is_leaf() ? LeafHit{mbr, node.RidAt(i)} : LeafHit{}});
        }
        break;
      }
    }
  }
  if (stats != nullptr) stats->results = result.size();
  return result;
}

}  // namespace pictdb::rtree
