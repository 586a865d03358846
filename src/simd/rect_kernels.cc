#include "simd/rect_kernels.h"

#if defined(__x86_64__) && !defined(PICTDB_DISABLE_SIMD)
#include <emmintrin.h>
#define PICTDB_HAVE_SSE2 1
#endif

namespace pictdb::simd {

namespace {

inline void ZeroMask(uint64_t* out, size_t count) {
  const size_t words = MaskWords(count);
  for (size_t w = 0; w < words; ++w) out[w] = 0;
}

inline void SetBit(uint64_t* out, size_t i) {
  out[i >> 6] |= uint64_t{1} << (i & 63);
}

// --- Scalar reference kernels ------------------------------------------
// Deliberately phrased as calls into geom::Rect so the scalar kernel IS
// the Rect semantics — there is no second scalar implementation to
// drift.

void ScalarIntersects(const RectSoa& soa, const geom::Rect& window,
                      uint64_t* out) {
  ZeroMask(out, soa.count);
  for (size_t i = 0; i < soa.count; ++i) {
    if (LaneRect(soa, i).Intersects(window)) SetBit(out, i);
  }
}

void ScalarContainedIn(const RectSoa& soa, const geom::Rect& window,
                       uint64_t* out) {
  ZeroMask(out, soa.count);
  for (size_t i = 0; i < soa.count; ++i) {
    if (window.Contains(LaneRect(soa, i))) SetBit(out, i);
  }
}

void ScalarContainsPoint(const RectSoa& soa, const geom::Point& p,
                         uint64_t* out) {
  ZeroMask(out, soa.count);
  for (size_t i = 0; i < soa.count; ++i) {
    if (LaneRect(soa, i).Contains(p)) SetBit(out, i);
  }
}

#ifdef PICTDB_HAVE_SSE2

// --- SSE2 kernels (2 doubles per vector) -------------------------------
// All comparisons use the cmple/cmpgt forms whose NaN behaviour (any
// NaN operand -> false) matches the scalar <= and > operators, so NaN
// lanes fall out of every predicate exactly as they do in geom::Rect.

void Sse2Intersects(const RectSoa& soa, const geom::Rect& window,
                    uint64_t* out) {
  ZeroMask(out, soa.count);
  if (window.IsEmpty()) return;  // empty windows intersect nothing
  const __m128d wlox = _mm_set1_pd(window.lo.x);
  const __m128d wloy = _mm_set1_pd(window.lo.y);
  const __m128d whix = _mm_set1_pd(window.hi.x);
  const __m128d whiy = _mm_set1_pd(window.hi.y);
  size_t i = 0;
  for (; i + 2 <= soa.count; i += 2) {
    const __m128d xmin = _mm_loadu_pd(soa.xmin + i);
    const __m128d ymin = _mm_loadu_pd(soa.ymin + i);
    const __m128d xmax = _mm_loadu_pd(soa.xmax + i);
    const __m128d ymax = _mm_loadu_pd(soa.ymax + i);
    // Non-empty rect (xmin<=xmax && ymin<=ymax) AND the 4-way closed
    // interval overlap against the window.
    __m128d m = _mm_cmple_pd(xmin, xmax);
    m = _mm_and_pd(m, _mm_cmple_pd(ymin, ymax));
    m = _mm_and_pd(m, _mm_cmple_pd(xmin, whix));
    m = _mm_and_pd(m, _mm_cmple_pd(wlox, xmax));
    m = _mm_and_pd(m, _mm_cmple_pd(ymin, whiy));
    m = _mm_and_pd(m, _mm_cmple_pd(wloy, ymax));
    const uint64_t bits = static_cast<uint64_t>(_mm_movemask_pd(m));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (LaneRect(soa, i).Intersects(window)) SetBit(out, i);
  }
}

void Sse2ContainedIn(const RectSoa& soa, const geom::Rect& window,
                     uint64_t* out) {
  ZeroMask(out, soa.count);
  const bool window_nonempty = !window.IsEmpty();
  const __m128d wlox = _mm_set1_pd(window.lo.x);
  const __m128d wloy = _mm_set1_pd(window.lo.y);
  const __m128d whix = _mm_set1_pd(window.hi.x);
  const __m128d whiy = _mm_set1_pd(window.hi.y);
  size_t i = 0;
  for (; i + 2 <= soa.count; i += 2) {
    const __m128d xmin = _mm_loadu_pd(soa.xmin + i);
    const __m128d ymin = _mm_loadu_pd(soa.ymin + i);
    const __m128d xmax = _mm_loadu_pd(soa.xmax + i);
    const __m128d ymax = _mm_loadu_pd(soa.ymax + i);
    // Rect::Contains: an empty operand is contained in anything (even
    // an empty window); otherwise the window must be non-empty and
    // bound it on all four sides.
    const __m128d empty = _mm_or_pd(_mm_cmpgt_pd(xmin, xmax),
                                    _mm_cmpgt_pd(ymin, ymax));
    __m128d m = empty;
    if (window_nonempty) {
      __m128d inside = _mm_cmple_pd(wlox, xmin);
      inside = _mm_and_pd(inside, _mm_cmple_pd(xmax, whix));
      inside = _mm_and_pd(inside, _mm_cmple_pd(wloy, ymin));
      inside = _mm_and_pd(inside, _mm_cmple_pd(ymax, whiy));
      m = _mm_or_pd(empty, inside);
    }
    const uint64_t bits = static_cast<uint64_t>(_mm_movemask_pd(m));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (window.Contains(LaneRect(soa, i))) SetBit(out, i);
  }
}

void Sse2ContainsPoint(const RectSoa& soa, const geom::Point& p,
                       uint64_t* out) {
  ZeroMask(out, soa.count);
  const __m128d px = _mm_set1_pd(p.x);
  const __m128d py = _mm_set1_pd(p.y);
  size_t i = 0;
  for (; i + 2 <= soa.count; i += 2) {
    const __m128d xmin = _mm_loadu_pd(soa.xmin + i);
    const __m128d ymin = _mm_loadu_pd(soa.ymin + i);
    const __m128d xmax = _mm_loadu_pd(soa.xmax + i);
    const __m128d ymax = _mm_loadu_pd(soa.ymax + i);
    // xmin<=px<=xmax && ymin<=py<=ymax implies the rect is non-empty
    // (IEEE <= is transitive on non-NaN), so the explicit IsEmpty test
    // in Rect::Contains(Point) is subsumed.
    __m128d m = _mm_cmple_pd(xmin, px);
    m = _mm_and_pd(m, _mm_cmple_pd(px, xmax));
    m = _mm_and_pd(m, _mm_cmple_pd(ymin, py));
    m = _mm_and_pd(m, _mm_cmple_pd(py, ymax));
    const uint64_t bits = static_cast<uint64_t>(_mm_movemask_pd(m));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (LaneRect(soa, i).Contains(p)) SetBit(out, i);
  }
}

#endif  // PICTDB_HAVE_SSE2

}  // namespace

const RectKernels& ScalarKernels() {
  static constexpr RectKernels kScalar{"scalar", &ScalarIntersects,
                                       &ScalarContainedIn,
                                       &ScalarContainsPoint};
  return kScalar;
}

const RectKernels* Sse2Kernels() {
#ifdef PICTDB_HAVE_SSE2
  static constexpr RectKernels kSse2{"sse2", &Sse2Intersects,
                                     &Sse2ContainedIn, &Sse2ContainsPoint};
  return &kSse2;
#else
  return nullptr;
#endif
}

}  // namespace pictdb::simd
