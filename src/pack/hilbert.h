#ifndef PICTDB_PACK_HILBERT_H_
#define PICTDB_PACK_HILBERT_H_

#include <cstdint>

#include "geom/point.h"
#include "geom/rect.h"

namespace pictdb::pack {

/// Index of (x, y) along the Hilbert curve of order `order` (a 2^order ×
/// 2^order grid). Coordinates must be < 2^order.
uint64_t HilbertXyToD(uint32_t order, uint32_t x, uint32_t y);

/// Inverse of HilbertXyToD.
void HilbertDToXy(uint32_t order, uint64_t d, uint32_t* x, uint32_t* y);

/// Hilbert value of a point within `frame`, discretized to a 2^16 grid.
uint64_t HilbertValue(const geom::Point& p, const geom::Rect& frame);

/// Process-wide count of HilbertValue invocations. Regression hook for
/// the packers: keys must be materialized once per entry, never
/// recomputed inside a sort comparator (which costs O(n log n)
/// curve walks).
uint64_t HilbertValueComputeCountForTesting();

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_HILBERT_H_
