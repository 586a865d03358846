#ifndef PICTDB_PACK_EXTERNAL_H_
#define PICTDB_PACK_EXTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/spill_file.h"

namespace pictdb::pack {

/// Streaming supplier of leaf entries for the sort-and-chunk pipeline:
/// a caller packing more than fits in memory never has to hold the full
/// entry list, so input arrives as a pull stream that can be rewound
/// (the Hilbert criterion needs one extra pass to learn the quantization
/// frame before keys can be computed).
class EntrySource {
 public:
  virtual ~EntrySource() = default;

  /// Copy the next entry into `out`; returns false at end of stream.
  virtual StatusOr<bool> Next(rtree::Entry* out) = 0;

  /// Restart the stream from the beginning, yielding the same entries
  /// in the same order.
  virtual Status Rewind() = 0;
};

/// Adapter over an in-memory entry vector (not owned).
class VectorEntrySource final : public EntrySource {
 public:
  explicit VectorEntrySource(const std::vector<rtree::Entry>* entries)
      : entries_(entries) {}

  StatusOr<bool> Next(rtree::Entry* out) override {
    if (index_ == entries_->size()) return false;
    *out = (*entries_)[index_++];
    return true;
  }

  Status Rewind() override {
    index_ = 0;
    return Status::OK();
  }

 private:
  const std::vector<rtree::Entry>* entries_;
  size_t index_ = 0;
};

/// How the pack spent its I/O; reported by bench/build_micro and
/// asserted by tests (e.g. "a 64 MiB budget over 5M entries really did
/// spill multiple runs", "input that fits one buffer spilled nothing").
struct ExternalPackStats {
  uint64_t entries = 0;
  uint64_t spill_runs = 0;     // sorted runs formed (1 when none spilled)
  uint64_t merge_passes = 0;   // cascade merges + the final merge
  uint64_t spill_pages_written = 0;
  uint64_t spill_pages_read = 0;
  uint64_t run_capacity_entries = 0;  // entries per sort buffer; 0 = no bound
};

/// Fan-in of one merge pass. More runs than this triggers cascaded
/// merges (earliest runs first, so the stable tie-break by run position
/// survives the cascade).
inline constexpr size_t kSpillMergeMaxFanIn = 64;

/// Bytes of one spill record: the 64-bit sort key followed by the raw
/// entry (4 MBR doubles + payload). Keys are precomputed at run
/// formation, so merges never re-derive them.
inline constexpr size_t kSpillRecordSize = 8 + sizeof(rtree::Entry);

/// The sort-and-chunk pipeline behind every kSortChunk and kHilbert
/// pack (the paper's PACK ordering with sort-and-chunk grouping): key
/// `source` by the options' criterion (kHilbert forces the Hilbert
/// criterion), stable-sort by key, and stream the sorted order straight
/// into packed leaves (`RTree::BulkWriteNode`); upper levels are built
/// from the B-times-smaller parent stream in memory. The nearest-neighbor
/// and STR groupings need random access to a whole level and return
/// NotSupported.
///
/// `options.memory_budget_bytes` bounds the sort buffer; 0 means no
/// bound. Input that fits one buffer is sorted in memory and never
/// touches disk: no spill file is created. Larger input is cut into
/// consecutive buffer-sized runs, each stable-sorted and spilled as a
/// CRC-framed run, then k-way merged with a loser tree that breaks key
/// ties by run position. Either way the order is exactly the global
/// stable sort by key, so the disk image does not depend on the budget.
///
/// `spill_manager` overrides where spilled runs live (tests inject a
/// fault-wrapped manager); nullptr uses `options.spill_dir`. On any
/// failure the tree is left empty (the root is only set after the last
/// node page is written).
Status PackExternal(rtree::RTree* tree, EntrySource* source,
                    const PackOptions& options,
                    ExternalPackStats* stats = nullptr,
                    storage::SpillFileManager* spill_manager = nullptr);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_EXTERNAL_H_
