#ifndef PICTDB_TESTS_RECT_CORPUS_H_
#define PICTDB_TESTS_RECT_CORPUS_H_

// Adversarial rectangle corpus shared by the SIMD kernel differential
// tests and the node page round-trip test: touching edges, zero-area
// rects, infinities, denormals, NaNs, negative zero and inverted
// (empty) rects, every one of which must survive a page round trip and
// a kernel verdict bit for bit.

#include <limits>
#include <vector>

#include "geom/rect.h"

namespace pictdb::testing_support {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
constexpr double kMax = std::numeric_limits<double>::max();

/// Build a Rect without the normalizing constructor so inverted
/// (empty) and NaN rects survive verbatim.
inline geom::Rect MakeRaw(double lox, double loy, double hix, double hiy) {
  geom::Rect r;
  r.lo.x = lox;
  r.lo.y = loy;
  r.hi.x = hix;
  r.hi.y = hiy;
  return r;
}

/// Every pairing of these as (entry rect, window) exercises the
/// closed-boundary, empty-rect, and NaN edge cases the kernels must
/// replicate exactly.
inline std::vector<geom::Rect> Corpus() {
  return {
      MakeRaw(0, 0, 10, 10),          // plain box
      MakeRaw(10, 10, 20, 20),        // touches the plain box at a corner
      MakeRaw(10, 0, 20, 10),         // shares an edge with the plain box
      MakeRaw(5, 5, 5, 5),            // zero-area point rect
      MakeRaw(3, 3, 3, 12),           // zero-width line rect
      MakeRaw(2, 2, 1, 1),            // inverted: empty
      MakeRaw(0, 0, -1, 5),           // inverted on x only: empty
      MakeRaw(-kInf, -kInf, kInf, kInf),    // everything
      MakeRaw(kInf, kInf, -kInf, -kInf),    // inverted infinities: empty
      MakeRaw(0, 0, kInf, kInf),            // half-open to +inf
      MakeRaw(kNan, 0, 10, 10),             // NaN lo.x
      MakeRaw(0, 0, kNan, kNan),            // NaN hi
      MakeRaw(kNan, kNan, kNan, kNan),      // all NaN
      MakeRaw(-kDenorm, -kDenorm, kDenorm, kDenorm),  // denormal box
      MakeRaw(0, 0, kDenorm, kDenorm),                // denormal corner
      MakeRaw(-kMax, -kMax, kMax, kMax),              // extreme finite
      MakeRaw(-7.25, -3.5, -1.125, -0.25),            // negative box
      MakeRaw(1e-300, 1e-300, 2e-300, 2e-300),        // tiny magnitudes
      MakeRaw(-0.0, -0.0, 0.0, -0.0),                 // signed zeros
  };
}

}  // namespace pictdb::testing_support

#endif  // PICTDB_TESTS_RECT_CORPUS_H_
