#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"
#include "pack/pack.h"
#include "pack/repack.h"
#include "pack/str.h"
#include "rtree/cursor.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "simd/dispatch.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::pack {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::PageId;
using storage::Rid;

/// One fully built database image: every page the build touched,
/// flushed and read back raw (checksum trailer included).
struct DiskImage {
  uint32_t page_size = 0;
  std::vector<std::vector<char>> pages;

  bool operator==(const DiskImage& other) const {
    if (page_size != other.page_size || pages.size() != other.pages.size()) {
      return false;
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (pages[i] != other.pages[i]) return false;
    }
    return true;
  }
};

std::vector<Entry> SeededEntries(uint64_t seed, size_t n) {
  Random rng(seed);
  const auto pts = workload::UniformPoints(&rng, n, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < n; ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }
  return MakeLeafEntries(pts, rids);
}

template <typename BuildFn>
DiskImage BuildImage(uint64_t seed, size_t n, const BuildFn& build) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  build(&tree, SeededEntries(seed, n));
  PICTDB_CHECK_OK(pool.FlushAll());

  DiskImage image;
  image.page_size = disk.page_size();
  image.pages.resize(disk.page_count());
  for (PageId id = 0; id < disk.page_count(); ++id) {
    image.pages[id].resize(disk.page_size());
    PICTDB_CHECK_OK(disk.ReadPage(id, image.pages[id].data()));
  }
  return image;
}

// Determinism is a load-bearing property here: the stress harness's
// replayable reproducers and the fault injector's seeded schedules both
// assume that the same build sequence yields the same bytes on disk.

TEST(GoldenDeterminismTest, PackNearestNeighborIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(PackNearestNeighbor(tree, entries));
  };
  const DiskImage a = BuildImage(71, 1000, build);
  const DiskImage b = BuildImage(71, 1000, build);
  ASSERT_GT(a.pages.size(), 1u);
  EXPECT_TRUE(a == b);

  // Different seed, different bytes — the comparison is not vacuous.
  const DiskImage c = BuildImage(72, 1000, build);
  EXPECT_FALSE(a == c);
}

TEST(GoldenDeterminismTest, PackSortChunkIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(PackSortChunk(tree, entries));
  };
  EXPECT_TRUE(BuildImage(73, 800, build) == BuildImage(73, 800, build));
}

// --- Golden disk images ----------------------------------------------------
//
// Building twice with one binary cannot catch a refactor that changes
// bytes, so every packer's image is pinned to a fixed 64-bit digest
// (FNV-1a over every page in page-id order, trailers included) on
// 512-byte pages. The digests hold on every build type and kernel
// family; a deliberate format change re-baselines them with a version
// bump (kNodeFormatVersion 1, column-major node lanes, is the current
// baseline).

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

void FnvMix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

uint64_t Fnv1a(const DiskImage& image) {
  uint64_t h = kFnvOffset;
  for (const std::vector<char>& page : image.pages) {
    FnvMix(&h, page.data(), page.size());
  }
  return h;
}

struct GoldenCase {
  const char* name;
  PackOptions options;
  uint64_t digest_b;     // n = B (one full root leaf)
  uint64_t digest_b1;    // n = B + 1 (two leaves under a root)
  uint64_t digest_3000;  // n = 3000 (four levels at B = 12)
};

TEST(GoldenDeterminismTest, PackedImagesMatchGoldenDigests) {
  const GoldenCase kCases[] = {
      {"nn",
       {.strategy = PackStrategy::kNearestNeighbor},
       0xb618c27e094065f5ull, 0x7f8c3f8c5c46b534ull,
       0x8e4efcf453c3bc9full},
      {"lowx",
       {.strategy = PackStrategy::kSortChunk},
       0xe52759dc2fb841a5ull, 0x854fd2f41912a1efull,
       0xa6c01f325983d7b2ull},
      {"lowy",
       {.criterion = SortCriterion::kAscendingY,
        .strategy = PackStrategy::kSortChunk},
       0xb58b20c94d35e8bfull, 0x5d1fad5439a7f671ull,
       0x4ede33db10fffa7bull},
      {"sortchunk_hilbert",
       {.criterion = SortCriterion::kHilbert,
        .strategy = PackStrategy::kSortChunk},
       0xc17f8aa88a3305f1ull, 0xcf0f59566a886f2eull,
       0x68e2842c83e37319ull},
      {"hilbert",
       {.strategy = PackStrategy::kHilbert},
       0xc17f8aa88a3305f1ull, 0xcf0f59566a886f2eull,
       0x68e2842c83e37319ull},
      {"str",
       {.strategy = PackStrategy::kStr},
       0xb58b20c94d35e8bfull, 0x5d1fad5439a7f671ull,
       0xad40d7fd27ddab28ull},
  };
  storage::InMemoryDiskManager probe(512);
  storage::BufferPool probe_pool(&probe, 64);
  auto probe_tree = RTree::Create(&probe_pool);
  ASSERT_TRUE(probe_tree.ok());
  const size_t b = probe_tree->options().max_entries;

  for (const GoldenCase& c : kCases) {
    const struct {
      size_t n;
      uint64_t digest;
    } kSizes[] = {
        {b, c.digest_b}, {b + 1, c.digest_b1}, {3000, c.digest_3000}};
    for (const auto& size : kSizes) {
      const DiskImage image = BuildImage(
          95, size.n, [&c](RTree* tree, const std::vector<Entry>& e) {
            PICTDB_CHECK_OK(Pack(tree, e, c.options));
          });
      EXPECT_EQ(Fnv1a(image), size.digest)
          << c.name << " n=" << size.n << ": 0x" << std::hex << Fnv1a(image);
    }
  }
}

// The byte digests above pin how nodes are laid out on a page; these
// pin what the nodes say. Every node reachable from the root is decoded
// with ReadNode and hashed in page-id order as (page id, level, count,
// then each entry's four coordinate bit patterns and its payload), so a
// change of page layout must leave them untouched while the byte
// digests move.
uint64_t LogicalDigest(uint64_t seed, size_t n, const PackOptions& options) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(Pack(&tree, SeededEntries(seed, n), options));
  PICTDB_CHECK_OK(pool.FlushAll());

  std::map<PageId, rtree::Node> nodes;
  std::vector<PageId> stack = {tree.root()};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    std::vector<char> page(disk.page_size());
    PICTDB_CHECK_OK(disk.ReadPage(id, page.data()));
    rtree::Node node = rtree::ReadNode(page.data(), pool.page_size());
    if (!node.is_leaf()) {
      for (const Entry& e : node.entries) stack.push_back(e.AsChild());
    }
    nodes.emplace(id, std::move(node));
  }

  uint64_t h = kFnvOffset;
  for (const auto& [id, node] : nodes) {
    const uint16_t count = static_cast<uint16_t>(node.entries.size());
    FnvMix(&h, &id, sizeof(id));
    FnvMix(&h, &node.level, sizeof(node.level));
    FnvMix(&h, &count, sizeof(count));
    for (const Entry& e : node.entries) {
      const double coords[4] = {e.mbr.lo.x, e.mbr.lo.y, e.mbr.hi.x,
                                e.mbr.hi.y};
      FnvMix(&h, coords, sizeof(coords));
      FnvMix(&h, &e.payload, sizeof(e.payload));
    }
  }
  return h;
}

TEST(GoldenDeterminismTest, PackedTreesMatchGoldenLogicalDigests) {
  const GoldenCase kCases[] = {
      {"nn",
       {.strategy = PackStrategy::kNearestNeighbor},
       0x496063f800d7facbull, 0xd55959ab36596b69ull,
       0x674f70726fe6bdc6ull},
      {"lowx",
       {.strategy = PackStrategy::kSortChunk},
       0x76bb3cd63bb65a33ull, 0x4c42898f4ab54ba1ull,
       0x16fd12a9e1a258f4ull},
      {"lowy",
       {.criterion = SortCriterion::kAscendingY,
        .strategy = PackStrategy::kSortChunk},
       0x1b85901756135013ull, 0x76cf037a00163ceeull,
       0x57687ad68bef467aull},
      {"sortchunk_hilbert",
       {.criterion = SortCriterion::kHilbert,
        .strategy = PackStrategy::kSortChunk},
       0x4c7a986ba627018bull, 0x033ccc712030174cull,
       0xe14f479ca31fb1dfull},
      {"hilbert",
       {.strategy = PackStrategy::kHilbert},
       0x4c7a986ba627018bull, 0x033ccc712030174cull,
       0xe14f479ca31fb1dfull},
      {"str",
       {.strategy = PackStrategy::kStr},
       0x1b85901756135013ull, 0x76cf037a00163ceeull,
       0x81c550681113594bull},
  };
  storage::InMemoryDiskManager probe(512);
  storage::BufferPool probe_pool(&probe, 64);
  auto probe_tree = RTree::Create(&probe_pool);
  ASSERT_TRUE(probe_tree.ok());
  const size_t b = probe_tree->options().max_entries;

  for (const GoldenCase& c : kCases) {
    const struct {
      size_t n;
      uint64_t digest;
    } kSizes[] = {
        {b, c.digest_b}, {b + 1, c.digest_b1}, {3000, c.digest_3000}};
    for (const auto& size : kSizes) {
      const uint64_t digest = LogicalDigest(95, size.n, c.options);
      EXPECT_EQ(digest, size.digest)
          << c.name << " n=" << size.n << ": 0x" << std::hex << digest;
    }
  }
}

TEST(GoldenDeterminismTest, InsertThenRepackIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      PICTDB_CHECK_OK(tree->Insert(e.mbr, e.AsRid()));
    }
    PICTDB_CHECK_OK(Repack(tree));
  };
  EXPECT_TRUE(BuildImage(74, 500, build) == BuildImage(74, 500, build));
}

// --- Query-path determinism across kernel families -------------------------
//
// The SoA decode and SIMD kernels must not change a single answer:
// every query below is replayed through the scalar reference and the
// runtime-selected vector family and compared hit for hit, in order.
// The disk image is also rebuilt to prove the SoA refactor left the
// on-disk layout untouched.

std::vector<geom::Rect> SeededWindows(uint64_t seed, size_t n) {
  Random rng(seed);
  const geom::Rect frame = workload::PaperFrame();
  std::vector<geom::Rect> windows;
  for (size_t i = 0; i < n; ++i) {
    const double cx = rng.UniformDouble(frame.lo.x, frame.hi.x);
    const double cy = rng.UniformDouble(frame.lo.y, frame.hi.y);
    windows.push_back(geom::Rect::FromCenterHalfExtent(
        cx, rng.UniformDouble(1.0, 60.0), cy,
        rng.UniformDouble(1.0, 60.0)));
  }
  return windows;
}

bool SameHits(const std::vector<rtree::LeafHit>& a,
              const std::vector<rtree::LeafHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].mbr == b[i].mbr) || !(a[i].rid == b[i].rid)) return false;
  }
  return true;
}

TEST(GoldenDeterminismTest, SimdAndScalarSearchesAreIdentical) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(PackNearestNeighbor(&tree, SeededEntries(81, 2000)));

  const std::vector<geom::Rect> windows = SeededWindows(82, 64);
  for (const geom::Rect& window : windows) {
    std::vector<rtree::LeafHit> scalar_hits, simd_hits;
    {
      simd::ScopedKernelOverride force(&simd::ScalarKernels());
      auto r = tree.SearchIntersects(window);
      PICTDB_CHECK(r.ok());
      scalar_hits = std::move(r).value();
    }
    auto r = tree.SearchIntersects(window);
    PICTDB_CHECK(r.ok());
    simd_hits = std::move(r).value();
    EXPECT_TRUE(SameHits(scalar_hits, simd_hits))
        << "scalar and runtime kernels disagree";

    {
      simd::ScopedKernelOverride force(&simd::ScalarKernels());
      auto c = tree.SearchContainedIn(window);
      PICTDB_CHECK(c.ok());
      scalar_hits = std::move(c).value();
    }
    auto c = tree.SearchContainedIn(window);
    PICTDB_CHECK(c.ok());
    EXPECT_TRUE(SameHits(scalar_hits, c.value()))
        << "contained-in diverges between kernel families";
  }
}

TEST(GoldenDeterminismTest, BatchSearchMatchesSingleWindowSearches) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(PackNearestNeighbor(&tree, SeededEntries(83, 2000)));

  const std::vector<geom::Rect> windows = SeededWindows(84, 48);
  for (const bool contained : {false, true}) {
    auto batch = tree.SearchBatch(windows, contained);
    PICTDB_CHECK(batch.ok());
    ASSERT_EQ(batch->size(), windows.size());
    size_t nonempty = 0;
    for (size_t i = 0; i < windows.size(); ++i) {
      auto single = contained ? tree.SearchContainedIn(windows[i])
                              : tree.SearchIntersects(windows[i]);
      PICTDB_CHECK(single.ok());
      EXPECT_TRUE(SameHits((*batch)[i].hits, single.value()))
          << "batch window " << i << " (contained=" << contained
          << ") diverges from the single-window search";
      EXPECT_FALSE((*batch)[i].degraded);
      if (!single.value().empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 0u) << "vacuous batch comparison";
  }
}

std::vector<rtree::LeafHit> DrainCursor(rtree::SearchCursor cursor) {
  std::vector<rtree::LeafHit> hits;
  for (;;) {
    auto next = cursor.Next();
    PICTDB_CHECK(next.ok());
    if (!next->has_value()) return hits;
    hits.push_back(**next);
  }
}

// Every single-query search runs one descent, so the streaming cursor,
// the generic-predicate search and the kernel-driven window searches
// must agree hit for hit AND in order, under either kernel family.
TEST(GoldenDeterminismTest, CursorAndCustomSearchMatchWindowSearchOrder) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(PackNearestNeighbor(&tree, SeededEntries(89, 2000)));

  std::vector<geom::Rect> windows = SeededWindows(90, 48);
  windows.push_back(workload::PaperFrame());
  // nullptr = the runtime-selected family.
  for (const simd::RectKernels* family :
       {&simd::ScalarKernels(), static_cast<const simd::RectKernels*>(
                                    nullptr)}) {
    simd::ScopedKernelOverride force(family);
    size_t multi_leaf = 0;
    for (const geom::Rect& window : windows) {
      rtree::SearchStats stats;
      auto intersects = tree.SearchIntersects(window, &stats);
      PICTDB_CHECK(intersects.ok());
      if (stats.nodes_visited > tree.Height()) ++multi_leaf;
      EXPECT_TRUE(SameHits(
          DrainCursor(rtree::SearchCursor::Intersects(&tree, window)),
          *intersects))
          << "intersects cursor streams out of order";

      auto contained = tree.SearchContainedIn(window);
      PICTDB_CHECK(contained.ok());
      EXPECT_TRUE(SameHits(
          DrainCursor(rtree::SearchCursor::ContainedIn(&tree, window)),
          *contained))
          << "contained-in cursor streams out of order";

      auto custom = tree.SearchCustom(
          [&window](const geom::Rect& r) { return r.Intersects(window); },
          [&window](const geom::Rect& r) { return r.Intersects(window); });
      PICTDB_CHECK(custom.ok());
      EXPECT_TRUE(SameHits(*custom, *intersects))
          << "SearchCustom diverges from SearchIntersects";
    }
    EXPECT_GT(multi_leaf, 0u) << "no window reached two leaves";
  }
}

TEST(GoldenDeterminismTest, PointSearchIsIdenticalAcrossKernelFamilies) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  const std::vector<Entry> entries = SeededEntries(91, 2000);
  PICTDB_CHECK_OK(PackNearestNeighbor(&tree, entries));

  // Stored points (hits) and window corners (mostly misses).
  std::vector<geom::Point> probes;
  for (size_t i = 0; i < entries.size(); i += 40) {
    probes.push_back(entries[i].mbr.lo);
  }
  for (const geom::Rect& window : SeededWindows(92, 16)) {
    probes.push_back(window.lo);
  }
  size_t nonempty = 0;
  for (const geom::Point& p : probes) {
    std::vector<rtree::LeafHit> scalar_hits;
    {
      simd::ScopedKernelOverride force(&simd::ScalarKernels());
      auto r = tree.SearchPoint(p);
      PICTDB_CHECK(r.ok());
      scalar_hits = std::move(r).value();
    }
    auto r = tree.SearchPoint(p);
    PICTDB_CHECK(r.ok());
    EXPECT_TRUE(SameHits(scalar_hits, *r))
        << "point search diverges between kernel families";
    if (!scalar_hits.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u) << "vacuous point comparison";
}

TEST(GoldenDeterminismTest, SoaDecodeLeavesDiskImageUnchanged) {
  // Build + query, then rebuild without querying: reads must never
  // write. Also the stronger cross-property: the image equals the one
  // BuildImage produces for the identical build sequence.
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(PackNearestNeighbor(tree, entries));
  };
  auto build_and_query = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(PackNearestNeighbor(tree, entries));
    for (const geom::Rect& window : SeededWindows(86, 32)) {
      PICTDB_CHECK(tree->SearchIntersects(window).ok());
      PICTDB_CHECK(tree->SearchBatch({&window, 1}, false).ok());
    }
  };
  EXPECT_TRUE(BuildImage(85, 1200, build) ==
              BuildImage(85, 1200, build_and_query));
}

// Node::Mbr() is documented as recompute-per-call; traversal hot paths
// must hoist it. The counter catches a regression that reintroduces a
// per-entry or per-use recomputation (see join.cc, invariants.cc).
TEST(GoldenDeterminismTest, SearchPathsDoNotRecomputeNodeMbrs) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(PackNearestNeighbor(&tree, SeededEntries(87, 2000)));

  const uint64_t before = rtree::MbrComputeCountForTesting();
  for (const geom::Rect& window : SeededWindows(88, 32)) {
    PICTDB_CHECK(tree.SearchIntersects(window).ok());
    PICTDB_CHECK(tree.SearchBatch({&window, 1}, false).ok());
  }
  // The kernel-driven window searches never need a node-level MBR at
  // all: the per-entry lanes carry everything.
  EXPECT_EQ(rtree::MbrComputeCountForTesting(), before);
}

}  // namespace
}  // namespace pictdb::pack
