#ifndef PICTDB_QUADTREE_QUADTREE_H_
#define PICTDB_QUADTREE_QUADTREE_H_

#include <memory>
#include <vector>

#include "common/status_or.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/heap_file.h"

namespace pictdb::quadtree {

/// Search accounting, comparable with rtree::SearchStats.
struct QuadStats {
  uint64_t cells_visited = 0;
  uint64_t entries_tested = 0;
  uint64_t results = 0;
};

/// One indexed object.
struct QuadEntry {
  geom::Rect mbr;
  storage::Rid rid;
};

/// The paper's comparison structure (§1): a quad-tree over the picture
/// space. This is an MX-CIF-style variant: the frame is recursively
/// quartered, and each object is stored at the *smallest* cell that
/// wholly contains its MBR — so large or boundary-straddling objects sit
/// high in the tree, the "decomposition into quadrants" behaviour the
/// paper criticizes. Point objects descend to the depth cap.
///
/// Provided as the evaluation baseline; it is an in-memory structure
/// (the baseline does not need the paged substrate).
class QuadTree {
 public:
  /// `frame` must contain every object ever inserted; `max_depth` caps
  /// the decomposition (cells below ~frame/2^max_depth are not split).
  explicit QuadTree(const geom::Rect& frame, int max_depth = 16,
                    size_t split_threshold = 8);

  /// Insert an object; InvalidArgument if its MBR is outside the frame.
  Status Insert(const geom::Rect& mbr, const storage::Rid& rid);

  /// Remove an exact (mbr, rid) entry; NotFound if absent.
  Status Delete(const geom::Rect& mbr, const storage::Rid& rid);

  /// All entries whose MBR intersects the window.
  std::vector<QuadEntry> SearchIntersects(const geom::Rect& window,
                                          QuadStats* stats = nullptr) const;

  /// All entries whose MBR contains the point.
  std::vector<QuadEntry> SearchPoint(const geom::Point& p,
                                     QuadStats* stats = nullptr) const;

  size_t Size() const { return size_; }

  /// Total allocated cells (the quad-tree's "nodes" count).
  size_t CellCount() const;

  /// Maximum depth currently in use.
  int DepthInUse() const;

 private:
  struct Cell {
    geom::Rect bounds;
    int depth = 0;
    std::vector<QuadEntry> entries;          // objects pinned to this cell
    std::unique_ptr<Cell> children[4];       // NW, NE, SW, SE (lazily)
    bool split = false;
  };

  /// Index of the child quadrant wholly containing `mbr`, or -1.
  static int QuadrantOf(const Cell& cell, const geom::Rect& mbr);
  static geom::Rect ChildBounds(const Cell& cell, int quadrant);

  void InsertInto(Cell* cell, const QuadEntry& entry);
  void SplitCell(Cell* cell);
  void SearchCell(const Cell& cell, const geom::Rect& window,
                  std::vector<QuadEntry>* out, QuadStats* stats) const;
  static size_t CountCells(const Cell& cell);
  static int MaxDepth(const Cell& cell);

  Cell root_;
  int max_depth_;
  size_t split_threshold_;
  size_t size_ = 0;
};

}  // namespace pictdb::quadtree

#endif  // PICTDB_QUADTREE_QUADTREE_H_
