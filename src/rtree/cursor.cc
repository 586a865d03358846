#include "rtree/cursor.h"

#include <utility>

namespace pictdb::rtree {

SearchCursor::SearchCursor(const RTree* tree,
                           std::function<bool(const geom::Rect&)> prune,
                           std::function<bool(const geom::Rect&)> accept,
                           const SearchOptions& options)
    : SearchCursor(tree, CustomPredicate(std::move(prune), std::move(accept)),
                   options) {}

SearchCursor::SearchCursor(const RTree* tree, SearchPredicate predicate,
                           const SearchOptions& options)
    : descent_(tree, std::move(predicate), options) {}

SearchCursor SearchCursor::Intersects(const RTree* tree,
                                      const geom::Rect& window,
                                      const SearchOptions& options) {
  return SearchCursor(tree, WindowPredicate(window, /*contained=*/false),
                      options);
}

SearchCursor SearchCursor::ContainedIn(const RTree* tree,
                                       const geom::Rect& window,
                                       const SearchOptions& options) {
  return SearchCursor(tree, WindowPredicate(window, /*contained=*/true),
                      options);
}

StatusOr<std::optional<LeafHit>> SearchCursor::Next() {
  for (;;) {
    if (leaf_active_) {
      const SoaNode& leaf = descent_.leaf();
      const uint64_t* mask = descent_.accept_mask();
      while (leaf_pos_ < leaf.count()) {
        const size_t i = leaf_pos_++;
        if ((mask[i / 64] >> (i % 64)) & 1u) {
          ++descent_.stats().results;
          return std::optional<LeafHit>(
              LeafHit{leaf.RectAt(i), leaf.RidAt(i)});
        }
      }
    }
    PICTDB_ASSIGN_OR_RETURN(leaf_active_, descent_.NextLeaf());
    if (!leaf_active_) return std::optional<LeafHit>();
    leaf_pos_ = 0;
  }
}

}  // namespace pictdb::rtree
