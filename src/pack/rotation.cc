#include "pack/rotation.h"

#include "common/logging.h"
#include "pack/pack.h"

namespace pictdb::pack {

StatusOr<RotationPacking> ComputeRotationPacking(
    const std::vector<geom::Point>& points, size_t group_size) {
  if (group_size < 1) {
    return Status::InvalidArgument("group size must be positive");
  }
  RotationPacking out;
  if (points.empty()) return out;

  out.angle = geom::FindDistinctXRotation(points);
  out.rotated = geom::Transform::Rotation(out.angle).Apply(points);

  // Rotated x-coordinates of distinct points are distinct, so the
  // sort-chunk grouping's stable tie-break never matters here.
  const std::vector<rtree::Entry> items = MakeLeafEntries(
      out.rotated, std::vector<storage::Rid>(out.rotated.size()));
  for (const std::vector<rtree::Entry>& group :
       GroupSortChunk(items, group_size, SortCriterion::kAscendingX)) {
    geom::Rect mbr;
    for (const rtree::Entry& e : group) mbr.ExpandToInclude(e.mbr);
    out.leaf_mbrs.push_back(mbr);
  }
  return out;
}

Status PackWithRotation(rtree::RTree* tree,
                        const std::vector<geom::Point>& points,
                        const std::vector<storage::Rid>& rids,
                        geom::Transform* transform_out) {
  PICTDB_CHECK(points.size() == rids.size());
  if (points.empty()) {
    if (transform_out != nullptr) *transform_out = geom::Transform();
    return Status::OK();
  }
  const double angle = geom::FindDistinctXRotation(points);
  const geom::Transform rot = geom::Transform::Rotation(angle);
  if (transform_out != nullptr) *transform_out = rot;
  const std::vector<geom::Point> rotated = rot.Apply(points);
  return PackSortChunk(tree, MakeLeafEntries(rotated, rids));
}

}  // namespace pictdb::pack
