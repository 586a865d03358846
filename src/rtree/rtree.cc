#include "rtree/rtree.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "rtree/descent.h"
#include "simd/dispatch.h"

namespace pictdb::rtree {

using geom::Enlargement;
using geom::Rect;
using simd::ForEachSetBit;
using storage::BufferPool;
using storage::kInvalidPageId;
using storage::PageGuard;
using storage::PageId;
using storage::Rid;

namespace {

// Meta page layout.
struct MetaImage {
  PageId root;
  uint32_t height;
  uint64_t size;
  uint16_t max_entries;
  uint16_t min_entries;
  uint8_t split;
  uint8_t forced_reinsert;
  uint16_t format_version;
};

MetaImage MakeMeta(PageId root, uint32_t height, uint64_t size,
                   const RTreeOptions& opts) {
  MetaImage m;
  m.root = root;
  m.height = height;
  m.size = size;
  m.max_entries = static_cast<uint16_t>(opts.max_entries);
  m.min_entries = static_cast<uint16_t>(opts.min_entries);
  m.split = static_cast<uint8_t>(opts.split);
  m.forced_reinsert = opts.forced_reinsert ? 1 : 0;
  m.format_version = kNodeFormatVersion;
  return m;
}

MetaImage ReadMeta(const char* page) {
  MetaImage m;
  std::memcpy(&m.root, page, 4);
  std::memcpy(&m.height, page + 4, 4);
  std::memcpy(&m.size, page + 8, 8);
  std::memcpy(&m.max_entries, page + 16, 2);
  std::memcpy(&m.min_entries, page + 18, 2);
  std::memcpy(&m.split, page + 20, 1);
  std::memcpy(&m.forced_reinsert, page + 21, 1);
  std::memcpy(&m.format_version, page + 22, 2);
  return m;
}

void WriteMeta(const MetaImage& m, char* page) {
  std::memcpy(page, &m.root, 4);
  std::memcpy(page + 4, &m.height, 4);
  std::memcpy(page + 8, &m.size, 8);
  std::memcpy(page + 16, &m.max_entries, 2);
  std::memcpy(page + 18, &m.min_entries, 2);
  std::memcpy(page + 20, &m.split, 1);
  std::memcpy(page + 21, &m.forced_reinsert, 1);
  std::memcpy(page + 22, &m.format_version, 2);
}

/// Guttman's ChooseSubtree criterion: least enlargement, ties by smaller
/// area, then fewer entries is unknowable here so first wins.
size_t ChooseSubtree(const Node& node, const Rect& mbr) {
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enlargement = Enlargement(node.entries[i].mbr, mbr);
    const double area = node.entries[i].mbr.Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best_enlargement = enlargement;
      best_area = area;
      best = i;
    }
  }
  return best;
}

/// Shared option validation/derivation for Create and CreateAt.
StatusOr<RTreeOptions> NormalizeOptions(const RTreeOptions& options,
                                        uint32_t page_size) {
  RTreeOptions opts = options;
  const size_t cap = NodePageCapacity(page_size);
  if (opts.max_entries == 0) opts.max_entries = cap;
  if (opts.max_entries < 2 || opts.max_entries > cap) {
    return Status::InvalidArgument("max_entries out of range for page size");
  }
  if (opts.min_entries == 0) opts.min_entries = opts.max_entries / 2;
  if (opts.min_entries < 1 || 2 * opts.min_entries > opts.max_entries) {
    return Status::InvalidArgument("min_entries must satisfy 1 <= m <= M/2");
  }
  return opts;
}

}  // namespace

size_t RTree::MaxEntries() const {
  return options_.max_entries != 0 ? options_.max_entries
                                   : NodePageCapacity(pool_->page_size());
}

size_t RTree::MinEntries() const {
  return options_.min_entries != 0 ? options_.min_entries : MaxEntries() / 2;
}

StatusOr<RTree> RTree::Create(BufferPool* pool, const RTreeOptions& options) {
  PICTDB_ASSIGN_OR_RETURN(const RTreeOptions opts,
                          NormalizeOptions(options, pool->page_size()));

  PICTDB_ASSIGN_OR_RETURN(PageGuard meta, pool->NewPage());
  PICTDB_ASSIGN_OR_RETURN(PageGuard root, pool->NewPage());
  Node empty_root;
  empty_root.level = 0;
  WriteNode(empty_root, root.mutable_data(), pool->page_size());

  WriteMeta(MakeMeta(root.id(), 1, 0, opts), meta.mutable_data());
  return RTree(pool, meta.id(), root.id(), 1, 0, opts);
}

StatusOr<RTree> RTree::CreateAt(BufferPool* pool, PageId meta_page,
                                const RTreeOptions& options) {
  PICTDB_ASSIGN_OR_RETURN(const RTreeOptions opts,
                          NormalizeOptions(options, pool->page_size()));

  // The old meta image may be torn after a crash — fetch for overwrite
  // so an unreadable page comes back zeroed instead of failing recovery.
  PICTDB_ASSIGN_OR_RETURN(PageGuard meta,
                          pool->FetchPageForOverwrite(meta_page));
  PICTDB_ASSIGN_OR_RETURN(PageGuard root, pool->NewPage());
  Node empty_root;
  empty_root.level = 0;
  WriteNode(empty_root, root.mutable_data(), pool->page_size());

  WriteMeta(MakeMeta(root.id(), 1, 0, opts), meta.mutable_data());
  return RTree(pool, meta_page, root.id(), 1, 0, opts);
}

StatusOr<RTree> RTree::Open(BufferPool* pool, PageId meta_page) {
  PICTDB_ASSIGN_OR_RETURN(PageGuard meta, pool->FetchPage(meta_page));
  const MetaImage m = ReadMeta(meta.data());
  if (m.format_version != kNodeFormatVersion) {
    return Status::FailedPrecondition(
        "R-tree at meta page " + std::to_string(meta_page) +
        " has node format version " + std::to_string(m.format_version) +
        "; this build reads version " + std::to_string(kNodeFormatVersion));
  }
  RTreeOptions opts;
  opts.max_entries = m.max_entries;
  opts.min_entries = m.min_entries;
  opts.split = static_cast<SplitAlgorithm>(m.split);
  opts.forced_reinsert = m.forced_reinsert != 0;
  return RTree(pool, meta_page, m.root, m.height, m.size, opts);
}

StatusOr<Node> RTree::LoadNode(PageId id) const {
  PICTDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
  // Copy-then-release under a shared frame latch: readers never hold a
  // latch across a child fetch, so they cannot deadlock with the
  // bottom-up writer (which latches one frame at a time, exclusive).
  if (concurrent_reads_.load(std::memory_order_relaxed)) {
    ReaderMutexLock latch(pool_->LatchFor(guard));
    return ReadNode(guard.data(), pool_->page_size());
  }
  return ReadNode(guard.data(), pool_->page_size());
}

Status RTree::LoadNodeSoa(PageId id, SoaNode* out) const {
  PICTDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
  // Same copy-then-release latch discipline as LoadNode.
  if (concurrent_reads_.load(std::memory_order_relaxed)) {
    ReaderMutexLock latch(pool_->LatchFor(guard));
    ReadNodeSoa(guard.data(), pool_->page_size(), out);
    return Status::OK();
  }
  ReadNodeSoa(guard.data(), pool_->page_size(), out);
  return Status::OK();
}

Status RTree::StoreNode(PageId id, const Node& node) {
  PICTDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
  if (concurrent_reads_.load(std::memory_order_relaxed)) {
    WriterMutexLock latch(pool_->LatchFor(guard));
    WriteNode(node, guard.mutable_data(), pool_->page_size());
    return Status::OK();
  }
  WriteNode(node, guard.mutable_data(), pool_->page_size());
  return Status::OK();
}

Status RTree::RetirePage(PageId id) {
  if (retire_hook_) return retire_hook_(id);
  return pool_->FreePage(id);
}

Status RTree::PersistMeta() {
  PICTDB_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(meta_page_));
  WriteMeta(MakeMeta(root(), Height(), Size(), options_),
            meta.mutable_data());
  return Status::OK();
}

StatusOr<RTree::InsertResult> RTree::InsertRec(PageId node_id,
                                               const Entry& entry,
                                               uint16_t target_level,
                                               uint16_t node_level,
                                               InsertContext* ctx) {
  PICTDB_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));
  PICTDB_CHECK(node.level == node_level);

  if (node_level != target_level) {
    // Descend into the subtree needing the least enlargement.
    const size_t child_idx = ChooseSubtree(node, entry.mbr);
    PICTDB_ASSIGN_OR_RETURN(
        const InsertResult child_result,
        InsertRec(node.entries[child_idx].AsChild(), entry, target_level,
                  static_cast<uint16_t>(node_level - 1), ctx));
    node.entries[child_idx].mbr = child_result.mbr;
    if (child_result.split) {
      Entry sibling;
      sibling.mbr = child_result.split_mbr;
      sibling.payload = Entry::PayloadFromChild(child_result.split_page);
      node.entries.push_back(sibling);
    }
  } else {
    node.entries.push_back(entry);
  }

  InsertResult result;
  if (node.entries.size() <= MaxEntries()) {
    PICTDB_RETURN_IF_ERROR(StoreNode(node_id, node));
    result.mbr = node.Mbr();
    return result;
  }

  // Overflow. R*-style forced reinsertion first, if enabled and this is
  // the level's first overflow of the insertion (and not the root).
  if (options_.forced_reinsert && ctx != nullptr && node_id != root() &&
      node_level < ctx->reinserted_at_level.size() &&
      !ctx->reinserted_at_level[node_level]) {
    ctx->reinserted_at_level[node_level] = true;
    // Closest-to-center entries stay; the farthest ~30% are evicted for
    // re-insertion (they are the ones stretching the node).
    const geom::Point center = node.Mbr().Center();
    std::stable_sort(node.entries.begin(), node.entries.end(),
                     [&center](const Entry& a, const Entry& b) {
                       return geom::DistanceSquared(a.mbr.Center(), center) <
                              geom::DistanceSquared(b.mbr.Center(), center);
                     });
    const size_t evict =
        std::max<size_t>(1, (node.entries.size() * 3) / 10);
    // Keep at least MinEntries so the node stays legal.
    const size_t keep = std::max(MinEntries(),
                                 node.entries.size() - evict);
    for (size_t i = keep; i < node.entries.size(); ++i) {
      ctx->pending.emplace_back(node_level, node.entries[i]);
    }
    node.entries.resize(keep);
    PICTDB_RETURN_IF_ERROR(StoreNode(node_id, node));
    result.mbr = node.Mbr();
    return result;
  }

  // Split this node (Guttman's SplitNode + AdjustTree step).
  auto [group1, group2] =
      SplitEntries(std::move(node.entries), MinEntries(), options_.split);
  Node left;
  left.level = node.level;
  left.entries = std::move(group1);
  Node right;
  right.level = node.level;
  right.entries = std::move(group2);

  PICTDB_ASSIGN_OR_RETURN(PageGuard right_page, pool_->NewPage());
  WriteNode(right, right_page.mutable_data(), pool_->page_size());
  PICTDB_RETURN_IF_ERROR(StoreNode(node_id, left));

  result.mbr = left.Mbr();
  result.split = true;
  result.split_mbr = right.Mbr();
  result.split_page = right_page.id();
  return result;
}

Status RTree::InsertAtLevel(const Entry& entry, uint16_t target_level) {
  PICTDB_CHECK(target_level < Height());
  InsertContext ctx;
  ctx.reinserted_at_level.assign(Height(), false);

  // The initial entry plus any forced-reinsertion evictions. Each pass
  // may grow the tree or queue further evictions (at levels that then
  // split instead, so the loop terminates).
  std::vector<std::pair<uint16_t, Entry>> work = {{target_level, entry}};
  while (!work.empty()) {
    const auto [level, item] = work.back();
    work.pop_back();
    PICTDB_ASSIGN_OR_RETURN(
        const InsertResult result,
        InsertRec(root(), item, level, static_cast<uint16_t>(Height() - 1),
                  &ctx));
    if (result.split) {
      // Grow the tree: new root over the two halves.
      Node new_root;
      new_root.level = static_cast<uint16_t>(Height());
      Entry left;
      left.mbr = result.mbr;
      left.payload = Entry::PayloadFromChild(root());
      Entry right;
      right.mbr = result.split_mbr;
      right.payload = Entry::PayloadFromChild(result.split_page);
      new_root.entries = {left, right};
      PICTDB_ASSIGN_OR_RETURN(PageGuard root_page, pool_->NewPage());
      WriteNode(new_root, root_page.mutable_data(), pool_->page_size());
      // Publish only after the new root's bytes exist.
      SetRootHeight(root_page.id(), Height() + 1);
      ctx.reinserted_at_level.resize(Height(), false);
    }
    for (auto& evicted : ctx.pending) {
      work.push_back(std::move(evicted));
    }
    ctx.pending.clear();
  }
  return Status::OK();
}

Status RTree::Insert(const Rect& mbr, const Rid& rid) {
  if (mbr.IsEmpty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  Entry entry;
  entry.mbr = mbr;
  entry.payload = Entry::PayloadFromRid(rid);
  PICTDB_RETURN_IF_ERROR(InsertAtLevel(entry, 0));
  size_.fetch_add(1);
  return PersistMeta();
}

StatusOr<RTree::DeleteResult> RTree::DeleteRec(
    PageId node_id, uint16_t node_level, const Rect& mbr, const Rid& rid,
    std::vector<std::pair<uint16_t, Entry>>* orphans) {
  PICTDB_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));
  PICTDB_CHECK(node.level == node_level);
  DeleteResult result;

  if (node.is_leaf()) {
    const uint64_t payload = Entry::PayloadFromRid(rid);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].payload == payload &&
          node.entries[i].mbr == mbr) {
        node.entries.erase(node.entries.begin() + i);
        PICTDB_RETURN_IF_ERROR(StoreNode(node_id, node));
        result.found = true;
        result.drop_child = node.entries.size() < MinEntries();
        result.mbr = node.Mbr();
        return result;
      }
    }
    return result;  // not found in this leaf
  }

  // FindLeaf: descend every subtree whose rectangle contains the target.
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].mbr.Contains(mbr)) continue;
    const PageId child_id = node.entries[i].AsChild();
    PICTDB_ASSIGN_OR_RETURN(
        const DeleteResult child_result,
        DeleteRec(child_id, static_cast<uint16_t>(node_level - 1), mbr, rid,
                  orphans));
    if (!child_result.found) continue;

    if (child_result.drop_child) {
      // CondenseTree: dissolve the underfull child; queue its remaining
      // entries for re-insertion at their original level.
      PICTDB_ASSIGN_OR_RETURN(const Node child, LoadNode(child_id));
      for (const Entry& e : child.entries) {
        orphans->emplace_back(child.level, e);
      }
      node.entries.erase(node.entries.begin() + i);
    } else {
      node.entries[i].mbr = child_result.mbr;
    }
    PICTDB_RETURN_IF_ERROR(StoreNode(node_id, node));
    if (child_result.drop_child) {
      // Unlink first (StoreNode above), then retire: a concurrent reader
      // that saw the old parent is protected by the epoch gate.
      PICTDB_RETURN_IF_ERROR(RetirePage(child_id));
    }
    result.found = true;
    result.drop_child = node.entries.size() < MinEntries();
    result.mbr = node.Mbr();
    return result;
  }
  return result;
}

Status RTree::Delete(const Rect& mbr, const Rid& rid) {
  std::vector<std::pair<uint16_t, Entry>> orphans;
  PICTDB_ASSIGN_OR_RETURN(
      const DeleteResult result,
      DeleteRec(root(), static_cast<uint16_t>(Height() - 1), mbr, rid,
                &orphans));
  if (!result.found) {
    return Status::NotFound("entry not in R-tree");
  }
  size_.fetch_sub(1);

  // Re-insert orphaned entries at their recorded levels. Later root
  // collapses cannot strand them: orphan levels are below the root level.
  for (const auto& [level, entry] : orphans) {
    PICTDB_RETURN_IF_ERROR(InsertAtLevel(entry, level));
  }

  // Collapse the root while it is an internal node with a single child.
  for (;;) {
    PICTDB_ASSIGN_OR_RETURN(const Node root_node, LoadNode(root()));
    if (root_node.is_leaf() || root_node.entries.size() != 1) break;
    const PageId old_root = root();
    const PageId only_child = root_node.entries[0].AsChild();
    // Publish the shrunken shape before retiring the old root.
    SetRootHeight(only_child, Height() - 1);
    PICTDB_RETURN_IF_ERROR(RetirePage(old_root));
  }
  return PersistMeta();
}

Status RTree::Update(const Rect& old_mbr, const Rid& old_rid,
                     const Rect& new_mbr, const Rid& new_rid) {
  if (new_mbr.IsEmpty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  PICTDB_RETURN_IF_ERROR(Delete(old_mbr, old_rid));
  const Status inserted = Insert(new_mbr, new_rid);
  if (!inserted.ok()) {
    // Best-effort rollback: losing the old entry on a failed insert
    // would turn one error into silent data loss.
    const Status restored = Insert(old_mbr, old_rid);
    if (!restored.ok()) {
      PICTDB_LOG_WARN() << "Update rollback failed, entry lost: "
                        << restored.ToString();
    }
  }
  return inserted;
}

StatusOr<bool> RTree::Contains(const Rect& mbr, const Rid& rid) const {
  PICTDB_ASSIGN_OR_RETURN(
      const std::vector<LeafHit> hits,
      SearchCustom([&mbr](const Rect& r) { return r.Contains(mbr); },
                   [&mbr](const Rect& r) { return r == mbr; }));
  for (const LeafHit& hit : hits) {
    if (hit.rid == rid) return true;
  }
  return false;
}

namespace {

/// Drain a descent to the end: every hit, in entry order.
StatusOr<std::vector<LeafHit>> CollectHits(const RTree* tree,
                                           SearchPredicate predicate,
                                           SearchStats* stats,
                                           const SearchOptions& options) {
  Descent descent(tree, std::move(predicate), options,
                  stats != nullptr ? *stats : SearchStats{});
  std::vector<LeafHit> out;
  StatusOr<bool> leaf = descent.NextLeaf();
  for (; leaf.ok() && *leaf; leaf = descent.NextLeaf()) {
    const SoaNode& node = descent.leaf();
    ForEachSetBit(descent.accept_mask(), node.count(), [&](size_t i) {
      out.push_back(LeafHit{node.RectAt(i), node.RidAt(i)});
    });
  }
  descent.stats().results += out.size();
  if (stats != nullptr) *stats = descent.stats();
  if (!leaf.ok()) return leaf.status();
  return out;
}

}  // namespace

StatusOr<std::vector<LeafHit>> RTree::SearchCustom(
    const std::function<bool(const Rect&)>& prune,
    const std::function<bool(const Rect&)>& accept, SearchStats* stats,
    const SearchOptions& options) const {
  return CollectHits(this, CustomPredicate(prune, accept), stats, options);
}

StatusOr<std::vector<LeafHit>> RTree::SearchIntersects(
    const Rect& window, SearchStats* stats,
    const SearchOptions& options) const {
  return CollectHits(this, WindowPredicate(window, /*contained=*/false),
                     stats, options);
}

StatusOr<std::vector<LeafHit>> RTree::SearchContainedIn(
    const Rect& window, SearchStats* stats,
    const SearchOptions& options) const {
  return CollectHits(this, WindowPredicate(window, /*contained=*/true),
                     stats, options);
}

StatusOr<std::vector<LeafHit>> RTree::SearchPoint(
    const geom::Point& p, SearchStats* stats,
    const SearchOptions& options) const {
  // rect.Intersects(FromPoint(p)) == rect.Contains(p), empty rects and
  // NaN coordinates included (tests/simd_kernel_test.cc checks it).
  return CollectHits(this,
                     WindowPredicate(Rect::FromPoint(p), /*contained=*/false),
                     stats, options);
}

StatusOr<std::vector<BatchHits>> RTree::SearchBatch(
    std::span<const geom::Rect> windows, bool contained_only,
    SearchStats* stats, const SearchOptions& options) const {
  std::vector<BatchHits> results(windows.size());
  if (windows.empty()) return results;

  const simd::RectKernels& kernels = simd::ActiveKernels();
  // One DFS frame per node the batch still has to visit, with the
  // subset of windows that reached it. Active lists stay sorted
  // ascending by construction (built by in-order scans), so per-window
  // work happens in a deterministic order.
  struct Frame {
    PageId id;
    std::vector<uint32_t> active;
  };
  std::vector<Frame> stack;
  Frame root_frame;
  root_frame.id = root();
  root_frame.active.resize(windows.size());
  std::iota(root_frame.active.begin(), root_frame.active.end(), 0u);
  stack.push_back(std::move(root_frame));

  SoaNode node;
  std::vector<uint64_t> mask;
  while (!stack.empty()) {
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    PICTDB_ASSIGN_OR_RETURN(const bool readable,
                            VisitNode(*this, frame.id, options, stats, &node));
    if (!readable) {
      // Only the windows that were still active on this subtree are
      // missing answers.
      for (const uint32_t q : frame.active) results[q].degraded = true;
      continue;
    }
    if (stats != nullptr) {
      stats->entries_tested += node.count() * frame.active.size();
    }
    mask.resize(simd::MaskWords(node.count()));
    if (node.is_leaf()) {
      for (const uint32_t q : frame.active) {
        if (contained_only) {
          kernels.contained_in(node.rects(), windows[q], mask.data());
        } else {
          kernels.intersects(node.rects(), windows[q], mask.data());
        }
        ForEachSetBit(mask.data(), node.count(), [&](size_t i) {
          results[q].hits.push_back(LeafHit{node.RectAt(i), node.RidAt(i)});
          if (stats != nullptr) ++stats->results;
        });
      }
      continue;
    }
    // Interior node: each window prunes by intersection exactly as its
    // single-window search would, so the subsequence of nodes where a
    // window stays active is precisely that window's own DFS.
    std::vector<std::vector<uint32_t>> child_active(node.count());
    for (const uint32_t q : frame.active) {
      kernels.intersects(node.rects(), windows[q], mask.data());
      ForEachSetBit(mask.data(), node.count(),
                    [&](size_t i) { child_active[i].push_back(q); });
    }
    // Reverse entry order on the stack = entry-order traversal.
    for (size_t e = node.count(); e-- > 0;) {
      if (!child_active[e].empty()) {
        stack.push_back(
            Frame{node.ChildAt(e), std::move(child_active[e])});
      }
    }
    PrefetchUpcoming(pool_, stack, [](const Frame& f) { return f.id; });
  }
  return results;
}

StatusOr<uint64_t> RTree::CountNodes() const {
  uint64_t count = 0;
  std::vector<PageId> stack = {root()};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    ++count;
    PICTDB_ASSIGN_OR_RETURN(const Node node, LoadNode(id));
    if (!node.is_leaf()) {
      for (const Entry& e : node.entries) stack.push_back(e.AsChild());
    }
  }
  return count;
}

StatusOr<std::vector<Rect>> RTree::CollectLeafNodeMbrs() const {
  return CollectNodeMbrsAtLevel(0);
}

StatusOr<std::vector<Rect>> RTree::CollectNodeMbrsAtLevel(
    uint16_t level) const {
  std::vector<Rect> out;
  std::vector<PageId> stack = {root()};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    PICTDB_ASSIGN_OR_RETURN(const Node node, LoadNode(id));
    if (node.level == level) {
      if (!node.entries.empty()) out.push_back(node.Mbr());
    } else if (node.level > level && !node.is_leaf()) {
      for (const Entry& e : node.entries) stack.push_back(e.AsChild());
    }
  }
  return out;
}

StatusOr<std::vector<LeafHit>> RTree::CollectAllEntries() const {
  return SearchCustom([](const Rect&) { return true; },
                      [](const Rect&) { return true; });
}

Status RTree::ValidateRec(PageId node_id, uint16_t expected_level,
                          const Rect* parent_mbr, uint64_t* leaf_entries,
                          bool is_root) const {
  PICTDB_ASSIGN_OR_RETURN(const Node node, LoadNode(node_id));
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node.entries.size() > MaxEntries()) {
    return Status::Corruption("node overfull");
  }
  if (!is_root && node.entries.size() < 1) {
    return Status::Corruption("empty non-root node");
  }
  if (parent_mbr != nullptr && !(node.Mbr() == *parent_mbr)) {
    return Status::Corruption("parent MBR is not the minimal bound");
  }
  if (node.is_leaf()) {
    *leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const Entry& e : node.entries) {
    PICTDB_RETURN_IF_ERROR(
        ValidateRec(e.AsChild(), static_cast<uint16_t>(expected_level - 1),
                    &e.mbr, leaf_entries, /*is_root=*/false));
  }
  return Status::OK();
}

Status RTree::Validate() const {
  // One load so root and height come from the same tree shape.
  const uint64_t rh = root_height_.load();
  const PageId root_id = static_cast<PageId>(rh & 0xFFFFFFFFu);
  const uint32_t height = static_cast<uint32_t>(rh >> 32);
  uint64_t leaf_entries = 0;
  PICTDB_RETURN_IF_ERROR(ValidateRec(
      root_id, static_cast<uint16_t>(height - 1), nullptr, &leaf_entries,
      /*is_root=*/true));
  if (leaf_entries != Size()) {
    return Status::Corruption("recorded size does not match leaf entries");
  }
  return Status::OK();
}

StatusOr<PageId> RTree::BulkWriteNode(uint16_t level,
                                      const std::vector<Entry>& entries) {
  if (entries.empty() || entries.size() > MaxEntries()) {
    return Status::InvalidArgument("bulk node size out of range");
  }
  Node node;
  node.level = level;
  node.entries = entries;
  PICTDB_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  WriteNode(node, page.mutable_data(), pool_->page_size());
  return page.id();
}

Status RTree::Clear() {
  std::vector<PageId> stack = {root()};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    PICTDB_ASSIGN_OR_RETURN(const Node node, LoadNode(id));
    if (!node.is_leaf()) {
      for (const Entry& e : node.entries) stack.push_back(e.AsChild());
    }
    PICTDB_RETURN_IF_ERROR(pool_->FreePage(id));
  }
  PICTDB_ASSIGN_OR_RETURN(PageGuard root_page, pool_->NewPage());
  Node empty_root;
  empty_root.level = 0;
  WriteNode(empty_root, root_page.mutable_data(), pool_->page_size());
  SetRootHeight(root_page.id(), 1);
  size_.store(0);
  return PersistMeta();
}

Status RTree::ResetForRebuild() {
  PICTDB_ASSIGN_OR_RETURN(PageGuard root_page, pool_->NewPage());
  Node empty_root;
  empty_root.level = 0;
  WriteNode(empty_root, root_page.mutable_data(), pool_->page_size());
  SetRootHeight(root_page.id(), 1);
  size_.store(0);
  return PersistMeta();
}

Status RTree::InsertSubtree(PageId subtree_root, const Rect& mbr,
                            uint16_t subtree_level,
                            uint64_t leaf_entry_count) {
  if (Height() < subtree_level + 2u) {
    return Status::InvalidArgument(
        "tree too shallow to host the subtree; insert entries directly");
  }
  Entry entry;
  entry.mbr = mbr;
  entry.payload = Entry::PayloadFromChild(subtree_root);
  PICTDB_RETURN_IF_ERROR(
      InsertAtLevel(entry, static_cast<uint16_t>(subtree_level + 1)));
  size_.fetch_add(leaf_entry_count);
  return PersistMeta();
}

Status RTree::BulkSetRoot(PageId new_root, uint32_t height, uint64_t size) {
  if (Size() == 0 && Height() == 1 && root() != new_root) {
    // Discard the placeholder root allocated by Create.
    PICTDB_RETURN_IF_ERROR(pool_->FreePage(root()));
  }
  SetRootHeight(new_root, height);
  size_.store(size);
  return PersistMeta();
}

}  // namespace pictdb::rtree
