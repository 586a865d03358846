#include "pack/hilbert.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace pictdb::pack {
namespace {

std::atomic<uint64_t> hilbert_value_computes{0};

}  // namespace

uint64_t HilbertValueComputeCountForTesting() {
  return hilbert_value_computes.load(std::memory_order_relaxed);
}

uint64_t HilbertXyToD(uint32_t order, uint32_t x, uint32_t y) {
  PICTDB_DCHECK(order <= 31);
  uint64_t d = 0;
  for (uint32_t s = (1u << order) >> 1; s > 0; s >>= 1) {
    const uint32_t rx = (x & s) > 0 ? 1 : 0;
    const uint32_t ry = (y & s) > 0 ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    // Rotate the quadrant.
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

void HilbertDToXy(uint32_t order, uint64_t d, uint32_t* x, uint32_t* y) {
  PICTDB_DCHECK(order <= 31);
  uint32_t rx, ry;
  uint64_t t = d;
  *x = *y = 0;
  for (uint32_t s = 1; s < (1u << order); s <<= 1) {
    rx = 1 & static_cast<uint32_t>(t / 2);
    ry = 1 & static_cast<uint32_t>(t ^ rx);
    if (ry == 0) {
      if (rx == 1) {
        *x = s - 1 - *x;
        *y = s - 1 - *y;
      }
      std::swap(*x, *y);
    }
    *x += s * rx;
    *y += s * ry;
    t /= 4;
  }
}

uint64_t HilbertValue(const geom::Point& p, const geom::Rect& frame) {
  hilbert_value_computes.fetch_add(1, std::memory_order_relaxed);
  constexpr uint32_t kOrder = 16;
  constexpr uint32_t kMax = (1u << kOrder) - 1;
  const double w = std::max(frame.Width(), 1e-12);
  const double h = std::max(frame.Height(), 1e-12);
  const double fx = (p.x - frame.lo.x) / w;
  const double fy = (p.y - frame.lo.y) / h;
  const uint32_t gx = static_cast<uint32_t>(
      std::clamp(fx * kMax, 0.0, static_cast<double>(kMax)));
  const uint32_t gy = static_cast<uint32_t>(
      std::clamp(fy * kMax, 0.0, static_cast<double>(kMax)));
  return HilbertXyToD(kOrder, gx, gy);
}

}  // namespace pictdb::pack
