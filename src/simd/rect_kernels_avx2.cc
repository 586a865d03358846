// AVX2 variants of the rect kernels, isolated in their own translation
// unit so the rest of the library never emits AVX instructions: these
// functions carry the `target("avx2")` attribute (no global -mavx2
// flag), and dispatch.cc only hands them out after a cpuid check.

#include "simd/rect_kernels.h"

#if defined(__x86_64__) && !defined(PICTDB_DISABLE_SIMD)

#include <immintrin.h>

namespace pictdb::simd {

namespace {

inline void ZeroMask(uint64_t* out, size_t count) {
  const size_t words = MaskWords(count);
  for (size_t w = 0; w < words; ++w) out[w] = 0;
}

inline void SetBit(uint64_t* out, size_t i) {
  out[i >> 6] |= uint64_t{1} << (i & 63);
}

// _CMP_LE_OQ / _CMP_GT_OQ return false when either operand is NaN,
// matching the scalar <= and > operators — see the NaN notes on the
// scalar kernels in rect_kernels.cc.

__attribute__((target("avx2"))) void Avx2Intersects(
    const RectSoa& soa, const geom::Rect& window, uint64_t* out) {
  ZeroMask(out, soa.count);
  if (window.IsEmpty()) return;  // empty windows intersect nothing
  const __m256d wlox = _mm256_set1_pd(window.lo.x);
  const __m256d wloy = _mm256_set1_pd(window.lo.y);
  const __m256d whix = _mm256_set1_pd(window.hi.x);
  const __m256d whiy = _mm256_set1_pd(window.hi.y);
  size_t i = 0;
  for (; i + 4 <= soa.count; i += 4) {
    const __m256d xmin = _mm256_loadu_pd(soa.xmin + i);
    const __m256d ymin = _mm256_loadu_pd(soa.ymin + i);
    const __m256d xmax = _mm256_loadu_pd(soa.xmax + i);
    const __m256d ymax = _mm256_loadu_pd(soa.ymax + i);
    // Non-empty rect AND 4-way closed-interval overlap with the window.
    __m256d m = _mm256_cmp_pd(xmin, xmax, _CMP_LE_OQ);
    m = _mm256_and_pd(m, _mm256_cmp_pd(ymin, ymax, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(xmin, whix, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(wlox, xmax, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(ymin, whiy, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(wloy, ymax, _CMP_LE_OQ));
    const uint64_t bits =
        static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_pd(m)));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (LaneRect(soa, i).Intersects(window)) SetBit(out, i);
  }
}

__attribute__((target("avx2"))) void Avx2ContainedIn(
    const RectSoa& soa, const geom::Rect& window, uint64_t* out) {
  ZeroMask(out, soa.count);
  const bool window_nonempty = !window.IsEmpty();
  const __m256d wlox = _mm256_set1_pd(window.lo.x);
  const __m256d wloy = _mm256_set1_pd(window.lo.y);
  const __m256d whix = _mm256_set1_pd(window.hi.x);
  const __m256d whiy = _mm256_set1_pd(window.hi.y);
  size_t i = 0;
  for (; i + 4 <= soa.count; i += 4) {
    const __m256d xmin = _mm256_loadu_pd(soa.xmin + i);
    const __m256d ymin = _mm256_loadu_pd(soa.ymin + i);
    const __m256d xmax = _mm256_loadu_pd(soa.xmax + i);
    const __m256d ymax = _mm256_loadu_pd(soa.ymax + i);
    // Rect::Contains: an empty operand is contained in anything;
    // otherwise the window must be non-empty and bound it on all sides.
    const __m256d empty =
        _mm256_or_pd(_mm256_cmp_pd(xmin, xmax, _CMP_GT_OQ),
                     _mm256_cmp_pd(ymin, ymax, _CMP_GT_OQ));
    __m256d m = empty;
    if (window_nonempty) {
      __m256d inside = _mm256_cmp_pd(wlox, xmin, _CMP_LE_OQ);
      inside = _mm256_and_pd(inside, _mm256_cmp_pd(xmax, whix, _CMP_LE_OQ));
      inside = _mm256_and_pd(inside, _mm256_cmp_pd(wloy, ymin, _CMP_LE_OQ));
      inside = _mm256_and_pd(inside, _mm256_cmp_pd(ymax, whiy, _CMP_LE_OQ));
      m = _mm256_or_pd(empty, inside);
    }
    const uint64_t bits =
        static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_pd(m)));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (window.Contains(LaneRect(soa, i))) SetBit(out, i);
  }
}

__attribute__((target("avx2"))) void Avx2ContainsPoint(
    const RectSoa& soa, const geom::Point& p, uint64_t* out) {
  ZeroMask(out, soa.count);
  const __m256d px = _mm256_set1_pd(p.x);
  const __m256d py = _mm256_set1_pd(p.y);
  size_t i = 0;
  for (; i + 4 <= soa.count; i += 4) {
    const __m256d xmin = _mm256_loadu_pd(soa.xmin + i);
    const __m256d ymin = _mm256_loadu_pd(soa.ymin + i);
    const __m256d xmax = _mm256_loadu_pd(soa.xmax + i);
    const __m256d ymax = _mm256_loadu_pd(soa.ymax + i);
    // The two-sided interval test subsumes Rect::Contains(Point)'s
    // IsEmpty check (<= is transitive on non-NaN operands).
    __m256d m = _mm256_cmp_pd(xmin, px, _CMP_LE_OQ);
    m = _mm256_and_pd(m, _mm256_cmp_pd(px, xmax, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(ymin, py, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(py, ymax, _CMP_LE_OQ));
    const uint64_t bits =
        static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_pd(m)));
    out[i >> 6] |= bits << (i & 63);
  }
  for (; i < soa.count; ++i) {
    if (LaneRect(soa, i).Contains(p)) SetBit(out, i);
  }
}

}  // namespace

const RectKernels* Avx2Kernels() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  if (!supported) return nullptr;
  static constexpr RectKernels kAvx2{"avx2", &Avx2Intersects,
                                     &Avx2ContainedIn, &Avx2ContainsPoint};
  return &kAvx2;
}

}  // namespace pictdb::simd

#else  // !x86-64 or PICTDB_DISABLE_SIMD

namespace pictdb::simd {

const RectKernels* Avx2Kernels() { return nullptr; }

}  // namespace pictdb::simd

#endif
