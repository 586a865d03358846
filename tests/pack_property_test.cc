// Property sweeps over the bulk loaders: every builder × dataset ×
// branching factor must produce a structurally valid tree that answers
// window queries exactly like a brute-force scan, and packed trees must
// never have worse coverage than the dynamically-built tree on uniform
// data (the paper's central claim).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"
#include "pack/pack.h"
#include "pack/str.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace pictdb::pack {
namespace {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::RTree;
using rtree::RTreeOptions;
using storage::Rid;

enum class BuilderKind { kNN, kLowX, kStr, kHilbert, kNNHilbertOrder };
enum class DataKind { kUniform, kClustered, kSkewed, kRects };

Status Build(BuilderKind kind, RTree* tree, std::vector<Entry> items) {
  switch (kind) {
    case BuilderKind::kNN:
      return PackNearestNeighbor(tree, std::move(items));
    case BuilderKind::kLowX:
      return PackSortChunk(tree, std::move(items));
    case BuilderKind::kStr:
      return PackStr(tree, std::move(items));
    case BuilderKind::kHilbert:
      return Pack(tree, std::move(items),
                  {.strategy = PackStrategy::kHilbert});
    case BuilderKind::kNNHilbertOrder: {
      PackOptions options;
      options.criterion = SortCriterion::kHilbert;
      return PackNearestNeighbor(tree, std::move(items), options);
    }
  }
  return Status::Internal("unreachable");
}

std::vector<Rect> MakeData(DataKind kind, Random* rng, size_t n) {
  const Rect frame = workload::PaperFrame();
  std::vector<Rect> out;
  switch (kind) {
    case DataKind::kUniform:
      for (const Point& p : workload::UniformPoints(rng, n, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kClustered:
      for (const Point& p :
           workload::ClusteredPoints(rng, n, 6, 25.0, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kSkewed:
      for (const Point& p : workload::SkewedPoints(rng, n, 2.5, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kRects:
      out = workload::DisjointRegions(rng, n, frame);
      break;
  }
  return out;
}

class PackProperty
    : public ::testing::TestWithParam<
          std::tuple<BuilderKind, DataKind, size_t /*max_entries*/>> {};

TEST_P(PackProperty, ValidCompleteAndExact) {
  const auto [builder, data, max_entries] = GetParam();
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = max_entries;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(9000 + static_cast<uint64_t>(builder) * 100 +
             static_cast<uint64_t>(data) * 10 + max_entries);
  const size_t n = 150 + rng.Uniform(150);
  const auto rects = MakeData(data, &rng, n);
  std::vector<Rid> rids;
  for (size_t i = 0; i < rects.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  ASSERT_TRUE(Build(builder, &*tree, MakeLeafEntries(rects, rids)).ok());

  // Structure.
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->Size(), rects.size());

  // Packed trees should be near-minimal in node count: every level is
  // chunked into full nodes, so nodes <= twice the perfect count.
  auto node_count = tree->CountNodes();
  ASSERT_TRUE(node_count.ok());
  uint64_t perfect = 0;
  for (size_t remaining = rects.size(); remaining > 1;
       remaining = (remaining + max_entries - 1) / max_entries) {
    perfect += (remaining + max_entries - 1) / max_entries;
  }
  EXPECT_LE(*node_count, 2 * perfect + 1);

  // Exactness on window queries.
  const auto windows =
      workload::RandomWindowQueries(&rng, 15, 0.03, workload::PaperFrame());
  for (const Rect& w : windows) {
    auto hits = tree->SearchIntersects(w);
    ASSERT_TRUE(hits.ok());
    std::set<storage::PageId> got;
    for (const auto& h : *hits) got.insert(h.rid.page_id);
    std::set<storage::PageId> expected;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(w)) {
        expected.insert(static_cast<storage::PageId>(i));
      }
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackProperty,
    ::testing::Combine(
        ::testing::Values(BuilderKind::kNN, BuilderKind::kLowX,
                          BuilderKind::kStr, BuilderKind::kHilbert,
                          BuilderKind::kNNHilbertOrder),
        ::testing::Values(DataKind::kUniform, DataKind::kClustered,
                          DataKind::kSkewed, DataKind::kRects),
        ::testing::Values(size_t{4}, size_t{10})));

/// BulkLoad accepts ANY legal grouping function: random groupings with
/// random (valid) group sizes must still yield structurally valid,
/// complete, exactly-searchable trees.
class BulkLoadAnyGrouping : public ::testing::TestWithParam<int> {};

TEST_P(BulkLoadAnyGrouping, RandomGroupingsProduceValidTrees) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = 5;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random data_rng(GetParam());
  const auto pts =
      workload::UniformPoints(&data_rng, 120 + data_rng.Uniform(200),
                              workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }

  // Seeded RNG captured by the grouping lambda: shuffle, then cut into
  // random-size groups in [1, max].
  auto rng = std::make_shared<Random>(GetParam() * 7919);
  auto grouping = [rng](const std::vector<Entry>& items, size_t max) {
    std::vector<Entry> shuffled = items;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng->Uniform(i)]);
    }
    std::vector<std::vector<Entry>> groups;
    size_t i = 0;
    while (i < shuffled.size()) {
      const size_t take =
          std::min(shuffled.size() - i, 1 + rng->Uniform(max));
      groups.emplace_back(shuffled.begin() + i, shuffled.begin() + i + take);
      i += take;
    }
    // Guarantee progress: if everything landed in one group, split it.
    if (groups.size() == 1 && groups[0].size() > max) {
      std::vector<Entry> second(groups[0].begin() + max, groups[0].end());
      groups[0].resize(max);
      groups.push_back(std::move(second));
    }
    return groups;
  };

  ASSERT_TRUE(
      pack::BulkLoad(&*tree, MakeLeafEntries(pts, rids), grouping).ok());
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->Size(), pts.size());

  // Exactness spot check.
  Random query_rng(GetParam() + 1);
  const auto windows = workload::RandomWindowQueries(
      &query_rng, 10, 0.05, workload::PaperFrame());
  for (const Rect& w : windows) {
    auto hits = tree->SearchIntersects(w);
    ASSERT_TRUE(hits.ok());
    size_t expected = 0;
    for (const Point& p : pts) {
      if (w.Contains(p)) ++expected;
    }
    EXPECT_EQ(hits->size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkLoadAnyGrouping, ::testing::Range(1, 9));

/// Size/shape claim sweep: across seeds, the packed tree is strictly
/// smaller (node count) and no deeper than the dynamically built tree,
/// and PACK's spatial grouping beats arbitrary (input-order) grouping on
/// coverage — the actual content of the paper's Figure 3.4 dead-space
/// argument. (The paper's absolute C columns are not geometrically
/// attainable for full nodes of uniform points; see EXPERIMENTS.md.)
class CoverageClaim : public ::testing::TestWithParam<int> {};

TEST_P(CoverageClaim, PackSmallerShallowterAndTighterThanNaive) {
  storage::InMemoryDiskManager disk(256);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;

  Random rng(GetParam());
  const auto pts =
      workload::UniformPoints(&rng, 300, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }

  auto packed = RTree::Create(&pool, opts);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(
      PackNearestNeighbor(&*packed, MakeLeafEntries(pts, rids)).ok());

  auto dynamic = RTree::Create(&pool, opts);
  ASSERT_TRUE(dynamic.ok());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(dynamic->Insert(Rect::FromPoint(pts[i]), rids[i]).ok());
  }

  auto pq = rtree::MeasureTree(*packed);
  auto dq = rtree::MeasureTree(*dynamic);
  ASSERT_TRUE(pq.ok() && dq.ok());
  EXPECT_LT(pq->nodes, dq->nodes) << "seed " << GetParam();
  EXPECT_LE(pq->depth, dq->depth) << "seed " << GetParam();

  // Spatial grouping must beat arbitrary grouping: bulk-load the same
  // points chunked in (shuffled) input order and compare coverage.
  auto naive = RTree::Create(&pool, opts);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(pack::BulkLoad(
                  &*naive, MakeLeafEntries(pts, rids),
                  [](const std::vector<Entry>& items, size_t max) {
                    std::vector<std::vector<Entry>> groups;
                    for (size_t i = 0; i < items.size(); i += max) {
                      const size_t end = std::min(items.size(), i + max);
                      groups.emplace_back(items.begin() + i,
                                          items.begin() + end);
                    }
                    return groups;
                  })
                  .ok());
  auto nq = rtree::MeasureTree(*naive);
  ASSERT_TRUE(nq.ok());
  EXPECT_LT(pq->coverage, nq->coverage / 3) << "seed " << GetParam();
  EXPECT_LT(pq->overlap, nq->overlap / 3) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageClaim, ::testing::Range(1, 11));

}  // namespace
}  // namespace pictdb::pack
