#include "rtree/descent.h"

#include <algorithm>
#include <utility>

#include "simd/dispatch.h"

namespace pictdb::rtree {

namespace {

using KernelFn = void (*)(const simd::RectSoa&, const geom::Rect&, uint64_t*);

MaskFn KernelMask(KernelFn kernel, const geom::Rect& window) {
  return [kernel, window](const simd::RectSoa& soa, uint64_t* out) {
    kernel(soa, window, out);
  };
}

MaskFn ScalarMask(std::function<bool(const geom::Rect&)> fn) {
  return [fn = std::move(fn)](const simd::RectSoa& soa, uint64_t* out) {
    std::fill_n(out, simd::MaskWords(soa.count), uint64_t{0});
    for (size_t i = 0; i < soa.count; ++i) {
      if (fn(simd::LaneRect(soa, i))) out[i / 64] |= uint64_t{1} << (i % 64);
    }
  };
}

}  // namespace

SearchPredicate WindowPredicate(const geom::Rect& window, bool contained) {
  const simd::RectKernels& kernels = simd::ActiveKernels();
  return SearchPredicate{
      KernelMask(kernels.intersects, window),
      KernelMask(contained ? kernels.contained_in : kernels.intersects,
                 window)};
}

SearchPredicate CustomPredicate(
    std::function<bool(const geom::Rect&)> prune,
    std::function<bool(const geom::Rect&)> accept) {
  return SearchPredicate{ScalarMask(std::move(prune)),
                         ScalarMask(std::move(accept))};
}

StatusOr<bool> VisitNode(const RTree& tree, storage::PageId id,
                         const SearchOptions& options, SearchStats* stats,
                         SoaNode* node) {
  PICTDB_RETURN_IF_ERROR(options.CheckRunnable());
  const Status loaded = tree.ReadNodePageSoa(id, node);
  if (!loaded.ok()) {
    // A partial answer flagged degraded beats no answer.
    if (SkipUnreadable(loaded, id, options, stats)) return false;
    return loaded;
  }
  if (stats != nullptr) ++stats->nodes_visited;
  return true;
}

Descent::Descent(const RTree* tree, SearchPredicate predicate,
                 const SearchOptions& options, const SearchStats& stats)
    : tree_(tree),
      predicate_(std::move(predicate)),
      options_(options),
      stack_{tree->root()},
      stats_(stats) {}

StatusOr<bool> Descent::NextLeaf() {
  while (!stack_.empty()) {
    const storage::PageId id = stack_.back();
    stack_.pop_back();
    PICTDB_ASSIGN_OR_RETURN(const bool readable,
                            VisitNode(*tree_, id, options_, &stats_, &node_));
    if (!readable) continue;
    stats_.entries_tested += node_.count();
    mask_.resize(simd::MaskWords(node_.count()));
    if (node_.is_leaf()) {
      predicate_.accept(node_.rects(), mask_.data());
      return true;
    }
    predicate_.prune(node_.rects(), mask_.data());
    // Children go on the stack in REVERSE entry order so they pop — and
    // their hits stream — in entry order.
    const size_t first_child = stack_.size();
    simd::ForEachSetBit(mask_.data(), node_.count(), [&](size_t i) {
      stack_.push_back(node_.ChildAt(i));
    });
    std::reverse(stack_.begin() + static_cast<ptrdiff_t>(first_child),
                 stack_.end());
    PrefetchUpcoming(tree_->pool(), stack_, std::identity{});
  }
  return false;
}

}  // namespace pictdb::rtree
