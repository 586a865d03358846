#ifndef PICTDB_RTREE_CURSOR_H_
#define PICTDB_RTREE_CURSOR_H_

#include <functional>
#include <optional>

#include "common/status_or.h"
#include "rtree/descent.h"
#include "rtree/rtree.h"

namespace pictdb::rtree {

/// Streaming search over an R-tree: yields qualifying leaf entries one at
/// a time without materializing the full result set, so callers can stop
/// early (LIMIT-style consumption) or process results larger than memory.
/// The tree must not be modified while a cursor is open.
class SearchCursor {
 public:
  /// General form, mirroring RTree::SearchCustom. `options` carries the
  /// per-query deadline/cancel flag (polled once per expanded node) and
  /// the degraded-mode setting (unreadable subtrees are skipped and
  /// recorded in stats()).
  SearchCursor(const RTree* tree,
               std::function<bool(const geom::Rect&)> prune,
               std::function<bool(const geom::Rect&)> accept,
               const SearchOptions& options = {});

  /// Window-intersection cursor.
  static SearchCursor Intersects(const RTree* tree, const geom::Rect& window,
                                 const SearchOptions& options = {});

  /// Window-containment cursor (the paper's SEARCH semantics).
  static SearchCursor ContainedIn(const RTree* tree, const geom::Rect& window,
                                  const SearchOptions& options = {});

  /// Next qualifying entry, or nullopt at the end of the result stream.
  /// Entries stream in the order SearchIntersects / SearchContainedIn /
  /// SearchCustom return them.
  StatusOr<std::optional<LeafHit>> Next();

  /// Nodes visited / entries tested so far. As in the eager searches,
  /// entries_tested counts every entry of each decoded node, so it runs
  /// ahead of the stream within the current leaf.
  const SearchStats& stats() const { return descent_.stats(); }

 private:
  SearchCursor(const RTree* tree, SearchPredicate predicate,
               const SearchOptions& options);

  Descent descent_;
  /// Whether descent_.leaf() is a leaf still being drained, and the next
  /// slot of it to test against the accept mask.
  bool leaf_active_ = false;
  size_t leaf_pos_ = 0;
};

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_CURSOR_H_
