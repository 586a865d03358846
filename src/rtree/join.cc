#include "rtree/join.h"

#include <deque>

#include "common/logging.h"
#include "rtree/descent.h"
#include "simd/dispatch.h"

namespace pictdb::rtree {

namespace {

/// The two nodes of one join pair and the leaf x leaf verdict mask.
/// Each recursion depth owns one frame, reused by every pair visited at
/// that depth, so a join allocates lane storage per depth, not per pair.
/// A deque, because growing it must not move the outer depths' frames.
struct JoinFrame {
  SoaNode left;
  SoaNode right;
  std::vector<uint64_t> mask;
};
using JoinFrames = std::deque<JoinFrame>;

/// Load one side of a join pair; on an unreadable page in degraded mode
/// the pair is skipped (quarantining the page) instead of failing the
/// whole join. Sets `*skip` when the caller should drop the pair.
Status LoadJoinNode(const RTree& tree, storage::PageId id, JoinStats* stats,
                    const SearchOptions& options, SoaNode* out, bool* skip) {
  const Status loaded = tree.ReadNodePageSoa(id, out);
  if (loaded.ok()) return loaded;
  if (!SkipUnreadable(loaded, id, options, stats)) return loaded;
  *skip = true;
  return Status::OK();
}

Status JoinRec(const RTree& left, const RTree& right, storage::PageId lid,
               storage::PageId rid, const JoinCallback& callback,
               JoinStats* stats, const SearchOptions& options,
               JoinFrames* frames, size_t depth) {
  PICTDB_RETURN_IF_ERROR(options.CheckRunnable());
  if (frames->size() == depth) frames->emplace_back();
  JoinFrame& frame = (*frames)[depth];
  const SoaNode& lnode = frame.left;
  const SoaNode& rnode = frame.right;
  bool skip = false;
  PICTDB_RETURN_IF_ERROR(
      LoadJoinNode(left, lid, stats, options, &frame.left, &skip));
  if (skip) return Status::OK();
  PICTDB_RETURN_IF_ERROR(
      LoadJoinNode(right, rid, stats, options, &frame.right, &skip));
  if (skip) return Status::OK();
  if (stats != nullptr) stats->nodes_visited += 2;

  // Unequal levels: descend the taller side against the whole other
  // node (its MBR hoisted — one computation per visit, not per entry).
  if (lnode.level > rnode.level) {
    const geom::Rect rmbr = rnode.Mbr();
    for (size_t i = 0; i < lnode.count(); ++i) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (lnode.RectAt(i).Intersects(rmbr)) {
        PICTDB_RETURN_IF_ERROR(JoinRec(left, right, lnode.ChildAt(i), rid,
                                       callback, stats, options, frames,
                                       depth + 1));
      }
    }
    return Status::OK();
  }
  if (rnode.level > lnode.level) {
    const geom::Rect lmbr = lnode.Mbr();
    for (size_t i = 0; i < rnode.count(); ++i) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (rnode.RectAt(i).Intersects(lmbr)) {
        PICTDB_RETURN_IF_ERROR(JoinRec(left, right, lid, rnode.ChildAt(i),
                                       callback, stats, options, frames,
                                       depth + 1));
      }
    }
    return Status::OK();
  }

  // Equal leaf levels: the all-pairs test is the join's hot loop — the
  // rect kernels test every right entry against each left entry in one
  // call. Ascending bit order keeps the (left, right) callback order
  // identical to the scalar nested loop.
  if (lnode.is_leaf()) {
    const simd::RectSoa rsoa = rnode.rects();
    const simd::RectKernels& kernels = simd::ActiveKernels();
    frame.mask.resize(simd::MaskWords(rsoa.count));
    for (size_t i = 0; i < lnode.count(); ++i) {
      const LeafHit lhit{lnode.RectAt(i), lnode.RidAt(i)};
      if (stats != nullptr) stats->pairs_tested += rsoa.count;
      kernels.intersects(rsoa, lhit.mbr, frame.mask.data());
      simd::ForEachSetBit(frame.mask.data(), rsoa.count, [&](size_t j) {
        if (stats != nullptr) ++stats->results;
        callback(lhit, LeafHit{rnode.RectAt(j), rnode.RidAt(j)});
      });
    }
    return Status::OK();
  }

  // Equal interior levels: pairwise test, descending on intersection.
  for (size_t i = 0; i < lnode.count(); ++i) {
    const geom::Rect lrect = lnode.RectAt(i);
    for (size_t j = 0; j < rnode.count(); ++j) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (!lrect.Intersects(rnode.RectAt(j))) continue;
      PICTDB_RETURN_IF_ERROR(JoinRec(left, right, lnode.ChildAt(i),
                                     rnode.ChildAt(j), callback, stats,
                                     options, frames, depth + 1));
    }
  }
  return Status::OK();
}

}  // namespace

Status SpatialJoin(const RTree& left, const RTree& right,
                   const JoinCallback& callback, JoinStats* stats,
                   const SearchOptions& options) {
  if (left.Size() == 0 || right.Size() == 0) return Status::OK();
  JoinFrames frames;
  return JoinRec(left, right, left.root(), right.root(), callback, stats,
                 options, &frames, 0);
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
