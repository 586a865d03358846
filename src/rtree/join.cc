#include "rtree/join.h"

#include "common/logging.h"
#include "rtree/descent.h"
#include "simd/dispatch.h"

namespace pictdb::rtree {

namespace {

/// Reusable SoA transpose of one node's entry rects plus a verdict
/// mask, shared down the recursion (only leaf-level frames use it, and
/// leaves never recurse, so one instance is safe).
struct JoinScratch {
  std::vector<double> xmin;
  std::vector<double> ymin;
  std::vector<double> xmax;
  std::vector<double> ymax;
  std::vector<uint64_t> mask;

  simd::RectSoa Transpose(const Node& node) {
    const size_t n = node.entries.size();
    xmin.resize(n);
    ymin.resize(n);
    xmax.resize(n);
    ymax.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const geom::Rect& r = node.entries[i].mbr;
      xmin[i] = r.lo.x;
      ymin[i] = r.lo.y;
      xmax[i] = r.hi.x;
      ymax[i] = r.hi.y;
    }
    mask.resize(simd::MaskWords(n));
    return simd::RectSoa{xmin.data(), ymin.data(), xmax.data(),
                         ymax.data(), n};
  }
};

/// Load one side of a join pair; on an unreadable page in degraded mode
/// the pair is skipped (quarantining the page) instead of failing the
/// whole join. Sets `*skip` when the caller should drop the pair.
StatusOr<Node> LoadJoinNode(const RTree& tree, storage::PageId id,
                            JoinStats* stats, const SearchOptions& options,
                            bool* skip) {
  auto loaded = tree.ReadNodePage(id);
  if (loaded.ok()) return loaded;
  if (!SkipUnreadable(loaded.status(), id, options, stats)) return loaded;
  *skip = true;
  return Node{};
}

Status JoinRec(const RTree& left, const RTree& right, storage::PageId lid,
               storage::PageId rid, const JoinCallback& callback,
               JoinStats* stats, const SearchOptions& options,
               JoinScratch* scratch) {
  PICTDB_RETURN_IF_ERROR(options.CheckRunnable());
  bool skip = false;
  PICTDB_ASSIGN_OR_RETURN(const Node lnode,
                          LoadJoinNode(left, lid, stats, options, &skip));
  if (skip) return Status::OK();
  PICTDB_ASSIGN_OR_RETURN(const Node rnode,
                          LoadJoinNode(right, rid, stats, options, &skip));
  if (skip) return Status::OK();
  if (stats != nullptr) stats->nodes_visited += 2;

  // Unequal levels: descend the taller side against the whole other
  // node (its MBR hoisted — one computation per visit, not per entry).
  if (lnode.level > rnode.level) {
    const geom::Rect rmbr = rnode.Mbr();
    for (const Entry& le : lnode.entries) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (le.mbr.Intersects(rmbr)) {
        PICTDB_RETURN_IF_ERROR(JoinRec(left, right, le.AsChild(), rid,
                                       callback, stats, options, scratch));
      }
    }
    return Status::OK();
  }
  if (rnode.level > lnode.level) {
    const geom::Rect lmbr = lnode.Mbr();
    for (const Entry& re : rnode.entries) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (re.mbr.Intersects(lmbr)) {
        PICTDB_RETURN_IF_ERROR(JoinRec(left, right, lid, re.AsChild(),
                                       callback, stats, options, scratch));
      }
    }
    return Status::OK();
  }

  // Equal leaf levels: the all-pairs test is the join's hot loop —
  // transpose the right node once and let the rect kernels test every
  // right entry against each left entry in one call. Ascending bit
  // order keeps the (le, re) callback order identical to the scalar
  // nested loop.
  if (lnode.is_leaf()) {
    const simd::RectSoa rsoa = scratch->Transpose(rnode);
    const simd::RectKernels& kernels = simd::ActiveKernels();
    for (const Entry& le : lnode.entries) {
      if (stats != nullptr) stats->pairs_tested += rsoa.count;
      kernels.intersects(rsoa, le.mbr, scratch->mask.data());
      simd::ForEachSetBit(scratch->mask.data(), rsoa.count, [&](size_t i) {
        if (stats != nullptr) ++stats->results;
        const Entry& re = rnode.entries[i];
        callback(LeafHit{le.mbr, le.AsRid()}, LeafHit{re.mbr, re.AsRid()});
      });
    }
    return Status::OK();
  }

  // Equal interior levels: pairwise test, descending on intersection.
  for (const Entry& le : lnode.entries) {
    for (const Entry& re : rnode.entries) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (!le.mbr.Intersects(re.mbr)) continue;
      PICTDB_RETURN_IF_ERROR(JoinRec(left, right, le.AsChild(), re.AsChild(),
                                     callback, stats, options, scratch));
    }
  }
  return Status::OK();
}

}  // namespace

Status SpatialJoin(const RTree& left, const RTree& right,
                   const JoinCallback& callback, JoinStats* stats,
                   const SearchOptions& options) {
  if (left.Size() == 0 || right.Size() == 0) return Status::OK();
  JoinScratch scratch;
  return JoinRec(left, right, left.root(), right.root(), callback, stats,
                 options, &scratch);
}

Status NestedLoopJoin(const RTree& left, const RTree& right,
                      const JoinCallback& callback, JoinStats* stats) {
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> lhits,
                          left.CollectAllEntries());
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> rhits,
                          right.CollectAllEntries());
  for (const LeafHit& lh : lhits) {
    for (const LeafHit& rh : rhits) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (lh.mbr.Intersects(rh.mbr)) {
        if (stats != nullptr) ++stats->results;
        callback(lh, rh);
      }
    }
  }
  return Status::OK();
}

}  // namespace pictdb::rtree
