#include "pack/str.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "pack/pack.h"

namespace pictdb::pack {

using rtree::Entry;

std::vector<std::vector<Entry>> GroupStr(const std::vector<Entry>& items,
                                         size_t max_per_node) {
  PICTDB_CHECK(max_per_node >= 1);
  const size_t n = items.size();
  const size_t node_count =
      (n + max_per_node - 1) / max_per_node;  // P = ceil(n/B)
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(node_count))));  // S
  const size_t slab_size = slabs * max_per_node;  // items per vertical slab

  std::vector<Entry> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.mbr.Center().x < b.mbr.Center().x;
                   });

  std::vector<std::vector<Entry>> groups;
  for (size_t s = 0; s < sorted.size(); s += slab_size) {
    const size_t end = std::min(sorted.size(), s + slab_size);
    std::stable_sort(sorted.begin() + s, sorted.begin() + end,
                     [](const Entry& a, const Entry& b) {
                       return a.mbr.Center().y < b.mbr.Center().y;
                     });
    for (size_t i = s; i < end; i += max_per_node) {
      const size_t gend = std::min(end, i + max_per_node);
      groups.emplace_back(sorted.begin() + i, sorted.begin() + gend);
    }
  }
  return groups;
}

Status PackStr(rtree::RTree* tree, std::vector<Entry> leaf_items,
               const PackOptions& options) {
  if (options.memory_budget_bytes != 0) {
    return Status::NotSupported("STR packing takes no budget");
  }
  return BulkLoad(tree, std::move(leaf_items),
                  [](const std::vector<Entry>& items, size_t max) {
                    return GroupStr(items, max);
                  });
}

}  // namespace pictdb::pack
