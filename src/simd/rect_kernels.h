#ifndef PICTDB_SIMD_RECT_KERNELS_H_
#define PICTDB_SIMD_RECT_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "geom/point.h"
#include "geom/rect.h"

namespace pictdb::simd {

/// Struct-of-arrays view of `count` rectangles: four contiguous
/// coordinate lanes. No alignment requirement — kernels use unaligned
/// loads, so callers may point straight into std::vector storage.
struct RectSoa {
  const double* xmin = nullptr;
  const double* ymin = nullptr;
  const double* xmax = nullptr;
  const double* ymax = nullptr;
  size_t count = 0;
};

/// 64-bit words needed to hold one verdict bit per rectangle.
constexpr size_t MaskWords(size_t count) { return (count + 63) / 64; }

/// Reassemble lane `i` as a geom::Rect WITHOUT the normalizing
/// constructor (which would silently un-invert an empty rect and change
/// predicate semantics).
inline geom::Rect LaneRect(const RectSoa& soa, size_t i) {
  geom::Rect r;
  r.lo.x = soa.xmin[i];
  r.lo.y = soa.ymin[i];
  r.hi.x = soa.xmax[i];
  r.hi.y = soa.ymax[i];
  return r;
}

/// Ascending-index iteration over a verdict bitmask. Visiting set bits
/// from bit 0 upward reproduces the entry order a scalar loop scans in,
/// which is what keeps kernel-driven traversals ordered identically to
/// their per-entry predecessors.
template <typename Fn>
void ForEachSetBit(const uint64_t* mask, size_t count, Fn fn) {
  const size_t words = MaskWords(count);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// A family of rectangle-predicate kernels over SoA lanes. Each call
/// writes one verdict bit per rectangle into `out` (bit i of out[i/64]
/// set iff rect i satisfies the predicate; trailing bits of the last
/// word are zero; `out` must hold MaskWords(soa.count) words).
///
/// Every implementation must be bit-identical to the geom::Rect member
/// functions — including the empty-rect and NaN edge cases:
///   intersects:     rect.Intersects(window)   closed boundaries; empty
///                                             rects intersect nothing
///   contained_in:   window.Contains(rect)     an EMPTY rect is
///                                             contained in anything
///   contains_point: rect.Contains(p)          false for empty rects
/// tests/simd_kernel_test.cc enforces the equivalence adversarially.
struct RectKernels {
  const char* name;
  void (*intersects)(const RectSoa& soa, const geom::Rect& window,
                     uint64_t* out);
  void (*contained_in)(const RectSoa& soa, const geom::Rect& window,
                       uint64_t* out);
  void (*contains_point)(const RectSoa& soa, const geom::Point& p,
                         uint64_t* out);
};

/// Portable reference kernels built directly on the geom::Rect
/// predicates — the semantic source of truth every vector implementation
/// must match bit-for-bit (DESIGN.md §13).
const RectKernels& ScalarKernels();

/// AVX2 kernels (4 doubles per lane op), or nullptr when the binary was
/// built with PICTDB_DISABLE_SIMD, the target is not x86-64, or this CPU
/// lacks AVX2.
const RectKernels* Avx2Kernels();

/// SSE2 kernels (2 doubles per lane op; baseline on x86-64), or nullptr
/// off x86-64 / when compiled out.
const RectKernels* Sse2Kernels();

}  // namespace pictdb::simd

#endif  // PICTDB_SIMD_RECT_KERNELS_H_
