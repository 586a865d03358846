// Differential property test for the SIMD rect kernels: every vector
// family must produce bit-identical verdict masks to the scalar
// reference (which is itself phrased directly on the geom::Rect
// predicates) over an adversarial rect corpus — touching edges,
// zero-area rects, infinities, denormals, NaNs, inverted (empty) rects
// — at every lane count from 0 through several vector widths and a
// full 64-bit mask word.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "rect_corpus.h"
#include "simd/dispatch.h"
#include "simd/rect_kernels.h"

namespace pictdb::simd {
namespace {

using geom::Point;
using geom::Rect;

using testing_support::Corpus;
using testing_support::kDenorm;
using testing_support::kInf;
using testing_support::kNan;
using testing_support::MakeRaw;

std::vector<Point> PointCorpus() {
  return {
      Point{5, 5},         Point{10, 10},     Point{0, 0},
      Point{-1, -1},       Point{kInf, 0},    Point{kNan, 5},
      Point{kDenorm, 0},   Point{1e-300, 2e-300},
      Point{20, 0},        Point{3, 7},
  };
}

/// SoA arena for a lane set drawn cyclically from the corpus.
struct Lanes {
  std::vector<double> xmin, ymin, xmax, ymax;

  explicit Lanes(size_t count) {
    const std::vector<Rect> corpus = Corpus();
    for (size_t i = 0; i < count; ++i) {
      const Rect& r = corpus[i % corpus.size()];
      xmin.push_back(r.lo.x);
      ymin.push_back(r.lo.y);
      xmax.push_back(r.hi.x);
      ymax.push_back(r.hi.y);
    }
  }

  RectSoa View() const {
    return RectSoa{xmin.data(), ymin.data(), xmax.data(), ymax.data(),
                   xmin.size()};
  }
};

std::vector<const RectKernels*> VectorFamilies() {
  std::vector<const RectKernels*> families;
  if (Avx2Kernels() != nullptr) families.push_back(Avx2Kernels());
  if (Sse2Kernels() != nullptr) families.push_back(Sse2Kernels());
  return families;
}

void ExpectMasksEqual(const std::vector<uint64_t>& want,
                      const std::vector<uint64_t>& got, size_t count,
                      const char* family, const char* op, size_t window) {
  for (size_t w = 0; w < MaskWords(count); ++w) {
    EXPECT_EQ(want[w], got[w])
        << family << " " << op << " diverges from scalar at mask word "
        << w << " (count=" << count << ", window #" << window << ")";
  }
}

// Every vector family, every operation, every window from the corpus,
// every lane count 0..67 (crosses the SSE2 2-lane width, the AVX2
// 4-lane width, their tails, and a full 64-bit mask word boundary).
TEST(SimdKernelDifferential, BitIdenticalToScalarOnAdversarialRects) {
  const RectKernels& scalar = ScalarKernels();
  const std::vector<const RectKernels*> families = VectorFamilies();
  if (families.empty()) {
    GTEST_SKIP() << "no vector kernel family available on this build/CPU";
  }
  const std::vector<Rect> windows = Corpus();
  const std::vector<Point> points = PointCorpus();

  for (size_t count = 0; count <= 67; ++count) {
    const Lanes lanes(count);
    const RectSoa soa = lanes.View();
    const size_t words = MaskWords(count);
    std::vector<uint64_t> want(words + 1), got(words + 1);
    for (const RectKernels* family : families) {
      for (size_t wi = 0; wi < windows.size(); ++wi) {
        scalar.intersects(soa, windows[wi], want.data());
        family->intersects(soa, windows[wi], got.data());
        ExpectMasksEqual(want, got, count, family->name, "intersects", wi);

        scalar.contained_in(soa, windows[wi], want.data());
        family->contained_in(soa, windows[wi], got.data());
        ExpectMasksEqual(want, got, count, family->name, "contained_in",
                         wi);
      }
      for (size_t pi = 0; pi < points.size(); ++pi) {
        scalar.contains_point(soa, points[pi], want.data());
        family->contains_point(soa, points[pi], got.data());
        ExpectMasksEqual(want, got, count, family->name, "contains_point",
                         pi);
      }
    }
  }
}

// Point search runs as a degenerate-window intersection; in every
// family contains_point(p) must equal intersects(Rect{p,p}), empty and
// NaN lanes and NaN probes included.
TEST(SimdKernelDifferential, ContainsPointEqualsDegenerateIntersects) {
  std::vector<const RectKernels*> families = VectorFamilies();
  families.push_back(&ScalarKernels());
  for (size_t count = 0; count <= 67; ++count) {
    const Lanes lanes(count);
    const RectSoa soa = lanes.View();
    const size_t words = MaskWords(count);
    std::vector<uint64_t> want(words + 1), got(words + 1);
    for (const RectKernels* family : families) {
      const std::vector<Point> points = PointCorpus();
      for (size_t pi = 0; pi < points.size(); ++pi) {
        const Point& p = points[pi];
        family->contains_point(soa, p, want.data());
        family->intersects(soa, MakeRaw(p.x, p.y, p.x, p.y), got.data());
        ExpectMasksEqual(want, got, count, family->name,
                         "intersects(point rect)", pi);
      }
    }
  }
}

// The scalar kernels ARE the geom::Rect predicates, lane by lane — the
// anchor that makes the differential test above meaningful.
TEST(SimdKernelDifferential, ScalarMatchesRectPredicates) {
  const RectKernels& scalar = ScalarKernels();
  const std::vector<Rect> windows = Corpus();
  const std::vector<Point> points = PointCorpus();
  const size_t count = 2 * Corpus().size();  // two full corpus cycles
  const Lanes lanes(count);
  const RectSoa soa = lanes.View();
  std::vector<uint64_t> mask(MaskWords(count));

  for (const Rect& window : windows) {
    scalar.intersects(soa, window, mask.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ((mask[i / 64] >> (i % 64)) & 1u,
                LaneRect(soa, i).Intersects(window) ? 1u : 0u)
          << "intersects lane " << i;
    }
    scalar.contained_in(soa, window, mask.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ((mask[i / 64] >> (i % 64)) & 1u,
                window.Contains(LaneRect(soa, i)) ? 1u : 0u)
          << "contained_in lane " << i;
    }
  }
  for (const Point& p : points) {
    scalar.contains_point(soa, p, mask.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ((mask[i / 64] >> (i % 64)) & 1u,
                LaneRect(soa, i).Contains(p) ? 1u : 0u)
          << "contains_point lane " << i;
    }
  }
}

// Trailing bits of the last mask word must be zero (traversals iterate
// set bits; garbage past `count` would fabricate hits).
TEST(SimdKernelDifferential, TailBitsAreZero) {
  std::vector<const RectKernels*> families = VectorFamilies();
  families.push_back(&ScalarKernels());
  const Rect everything = MakeRaw(-kInf, -kInf, kInf, kInf);
  for (const RectKernels* family : families) {
    for (size_t count : {1u, 3u, 5u, 63u, 65u}) {
      const Lanes lanes(count);
      std::vector<uint64_t> mask(MaskWords(count), ~uint64_t{0});
      family->intersects(lanes.View(), everything, mask.data());
      const size_t tail = count % 64;
      if (tail != 0) {
        EXPECT_EQ(mask.back() >> tail, 0u)
            << family->name << " left garbage past lane " << count;
      }
    }
  }
}

// Ascending set-bit iteration must visit lanes in index order — the
// property that keeps kernel-driven traversals ordered identically to
// scalar entry loops.
TEST(ForEachSetBitTest, VisitsAscendingAcrossWords) {
  std::vector<uint64_t> mask = {0, 0, 0};
  const std::vector<size_t> set = {0, 1, 63, 64, 70, 127, 128, 150};
  for (size_t i : set) mask[i / 64] |= uint64_t{1} << (i % 64);
  std::vector<size_t> visited;
  ForEachSetBit(mask.data(), 151, [&](size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, set);
}

TEST(MaskWordsTest, RoundsUp) {
  EXPECT_EQ(MaskWords(0), 0u);
  EXPECT_EQ(MaskWords(1), 1u);
  EXPECT_EQ(MaskWords(64), 1u);
  EXPECT_EQ(MaskWords(65), 2u);
  EXPECT_EQ(MaskWords(128), 2u);
}

// The override is how tests pin a family; make sure it takes effect and
// restores the runtime choice on scope exit.
TEST(DispatchTest, ScopedOverrideForcesFamily) {
  const RectKernels& runtime = ActiveKernels();
  {
    ScopedKernelOverride force_scalar(&ScalarKernels());
    EXPECT_EQ(&ActiveKernels(), &ScalarKernels());
    EXPECT_FALSE(SimdActive());
  }
  EXPECT_EQ(&ActiveKernels(), &runtime);
}

// LaneRect must not normalize: an inverted lane comes back inverted.
TEST(LaneRectTest, PreservesInvertedRects) {
  const Lanes lanes(Corpus().size());
  const RectSoa soa = lanes.View();
  const Rect inverted = LaneRect(soa, 5);  // MakeRaw(2, 2, 1, 1) above
  EXPECT_EQ(inverted.lo.x, 2);
  EXPECT_EQ(inverted.hi.x, 1);
  EXPECT_TRUE(inverted.IsEmpty());
}

}  // namespace
}  // namespace pictdb::simd
