#ifndef PICTDB_RTREE_DESCENT_H_
#define PICTDB_RTREE_DESCENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "simd/rect_kernels.h"

namespace pictdb::rtree {

/// Fills one verdict bit per rect of `soa` into `out`, with the simd
/// kernels' contract: bit i of out[i/64] set iff rect i qualifies,
/// trailing bits zero, MaskWords(soa.count) words written.
using MaskFn = std::function<void(const simd::RectSoa& soa, uint64_t* out)>;

/// What a single-query search looks for (the paper's §3.1 SEARCH):
/// `prune` marks the interior entries whose subtrees may hold hits,
/// `accept` marks the qualifying leaf entries.
struct SearchPredicate {
  MaskFn prune;
  MaskFn accept;
};

/// Window predicate on the active kernel family: prune by intersection,
/// accept by intersection or, when `contained`, by lying within
/// `window`. A point query is the window Rect::FromPoint(p).
SearchPredicate WindowPredicate(const geom::Rect& window, bool contained);

/// Per-entry callbacks run in one scalar loop over each node.
SearchPredicate CustomPredicate(std::function<bool(const geom::Rect&)> prune,
                                std::function<bool(const geom::Rect&)> accept);

/// Degraded-mode handling for a failed load of page `id`, shared by every
/// traversal: when `options` let `st` degrade the query, quarantine the
/// page, count the skipped subtree in `stats` (SearchStats or JoinStats;
/// may be null) and return true. False means the caller propagates `st`.
template <typename Stats>
bool SkipUnreadable(const Status& st, storage::PageId id,
                    const SearchOptions& options, Stats* stats) {
  if (!options.ShouldDegrade(st)) return false;
  if (options.quarantine != nullptr) options.quarantine->Add(id);
  if (stats != nullptr) {
    ++stats->skipped_subtrees;
    stats->degraded = true;
  }
  return true;
}

/// The node-visit step of every depth-first search: poll deadline and
/// cancel, decode `id` into `node`, count the visit. Returns false when
/// the page was unreadable and skipped in degraded mode.
StatusOr<bool> VisitNode(const RTree& tree, storage::PageId id,
                         const SearchOptions& options, SearchStats* stats,
                         SoaNode* node);

/// Hint the buffer pool about the nodes a DFS pops next — the top few
/// entries of `stack`, whose page ids `page_of` extracts — so a resident
/// child's bytes are warming in cache while the current node is scanned.
template <typename Stack, typename PageOf>
void PrefetchUpcoming(storage::BufferPool* pool, const Stack& stack,
                      PageOf page_of) {
  constexpr size_t kPrefetchDepth = 4;
  storage::PageId next[kPrefetchDepth];
  size_t n = 0;
  for (size_t i = stack.size(); i-- > 0 && n < kPrefetchDepth;) {
    next[n++] = page_of(stack[i]);
  }
  pool->PrefetchResident(std::span<const storage::PageId>(next, n));
}

/// The one traversal behind every single-query R-tree search: an
/// iterative depth-first descent that visits children in entry order and
/// stops at each leaf that survives pruning. The eager searches drain it
/// to the end; SearchCursor drains it one hit at a time. The tree must
/// not be restructured while a descent is open.
class Descent {
 public:
  /// Starts at the tree's root. Counting continues from `stats`.
  Descent(const RTree* tree, SearchPredicate predicate,
          const SearchOptions& options, const SearchStats& stats = {});

  /// Advance to the next leaf that survives pruning: true with leaf()
  /// and accept_mask() set, false once the tree is exhausted.
  StatusOr<bool> NextLeaf();

  const SoaNode& leaf() const { return node_; }
  const uint64_t* accept_mask() const { return mask_.data(); }

  SearchStats& stats() { return stats_; }
  const SearchStats& stats() const { return stats_; }

 private:
  const RTree* tree_;
  SearchPredicate predicate_;
  SearchOptions options_;
  std::vector<storage::PageId> stack_;
  /// Reused for every decode: a leaf is handed out before the next node
  /// is loaded.
  SoaNode node_;
  std::vector<uint64_t> mask_;
  SearchStats stats_;
};

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_DESCENT_H_
