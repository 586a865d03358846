// The one node writer and level builder every packer finishes with, and
// the sort-and-chunk pipeline (PackExternal) behind kSortChunk/kHilbert.

#include "pack/external.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "geom/rect.h"

namespace pictdb::pack {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::SpillFile;
using storage::SpillFileManager;
using storage::SpillRunHandle;
using storage::SpillRunReader;
using storage::SpillRunWriter;

static_assert(std::is_trivially_copyable_v<Entry>,
              "spill records memcpy entries");
static_assert(kSpillRecordSize == 8 + 4 * sizeof(double) + 8,
              "spill record = key + 4 MBR coords + payload, no padding");

/// The unit of the sort buffer; memory_budget_bytes is accounted in
/// these.
struct KeyedEntry {
  uint64_t key;
  Entry entry;
};

void EncodeSpillRecord(uint64_t key, const Entry& e, char* out) {
  std::memcpy(out, &key, sizeof(key));
  std::memcpy(out + sizeof(key), &e, sizeof(e));
}

void DecodeSpillRecord(const char* in, uint64_t* key, Entry* e) {
  std::memcpy(key, in, sizeof(*key));
  std::memcpy(e, in + sizeof(*key), sizeof(*e));
}

/// One run under merge: its reader plus the buffered head record.
struct MergeSource {
  MergeSource(SpillFile* file, const SpillRunHandle& run)
      : reader(file, run, kSpillRecordSize) {}

  Status Advance() {
    char rec[kSpillRecordSize];
    PICTDB_ASSIGN_OR_RETURN(const bool more, reader.Next(rec));
    exhausted = !more;
    if (more) DecodeSpillRecord(rec, &key, &entry);
    return Status::OK();
  }

  SpillRunReader reader;
  uint64_t key = 0;
  Entry entry;
  bool exhausted = false;
};

/// Classic array loser tree over the merge sources. Internal nodes
/// store the loser of the subtree match; the overall winner sits in
/// `winner_`. Leaf s lives at array position k + s, so its parent is
/// (k + s) / 2 and Replay() walks one root path per pop — O(log k)
/// key comparisons per merged record.
///
/// Ordering: smaller key wins; ties go to the lower source index. The
/// run list is in input order (runs are consecutive input chunks, and
/// cascaded merges put their output back at the front), so this
/// tie-break reproduces the stable sort's input-order tie handling.
class LoserTree {
 public:
  explicit LoserTree(std::vector<MergeSource>* sources)
      : sources_(sources),
        k_(sources->size()),
        tree_(std::max<size_t>(k_, 1), -1) {
    PICTDB_CHECK(k_ >= 1);
    // Bottom-up init: compute each internal node's match from the
    // winners of its children; leaves are the sources themselves.
    std::vector<int> winner_at(2 * k_, -1);
    for (size_t i = k_; i < 2 * k_; ++i) {
      winner_at[i] = static_cast<int>(i - k_);
    }
    for (size_t n = k_ - 1; n >= 1; --n) {
      const int a = winner_at[2 * n];
      const int b = winner_at[2 * n + 1];
      if (Beats(a, b)) {
        winner_at[n] = a;
        tree_[n] = b;
      } else {
        winner_at[n] = b;
        tree_[n] = a;
      }
    }
    winner_ = k_ == 1 ? 0 : winner_at[1];
  }

  int winner() const { return winner_; }

  /// After the winner consumed a record (or exhausted), replay its
  /// leaf-to-root path against the stored losers.
  void Replay() {
    int cur = winner_;
    for (size_t node = (static_cast<size_t>(cur) + k_) / 2; node >= 1;
         node /= 2) {
      if (Beats(tree_[node], cur)) std::swap(cur, tree_[node]);
    }
    winner_ = cur;
  }

 private:
  /// Strict "source a outranks source b". Exhausted sources always
  /// lose, so the tournament winner is exhausted only when every source
  /// is — that is the merge's termination test.
  bool Beats(int a, int b) const {
    if (a < 0) return false;
    if (b < 0) return true;
    const MergeSource& sa = (*sources_)[static_cast<size_t>(a)];
    const MergeSource& sb = (*sources_)[static_cast<size_t>(b)];
    if (sa.exhausted) return false;
    if (sb.exhausted) return true;
    return sa.key < sb.key || (sa.key == sb.key && a < b);
  }

  std::vector<MergeSource>* sources_;
  size_t k_;
  std::vector<int> tree_;
  int winner_ = -1;
};

/// k-way merge of `runs`, emitting records in (key, run position)
/// order through `emit(key, entry)`.
template <typename Emit>
Status MergeRuns(SpillFile* file, const std::vector<SpillRunHandle>& runs,
                 uint64_t* pages_read, Emit&& emit) {
  std::vector<MergeSource> sources;
  sources.reserve(runs.size());
  for (const SpillRunHandle& r : runs) sources.emplace_back(file, r);
  Status status = Status::OK();
  for (MergeSource& s : sources) {
    status = s.Advance();
    if (!status.ok()) break;
  }
  if (status.ok()) {
    LoserTree lt(&sources);
    while (true) {
      const int w = lt.winner();
      if (w < 0 || sources[static_cast<size_t>(w)].exhausted) break;
      MergeSource& src = sources[static_cast<size_t>(w)];
      status = emit(src.key, src.entry);
      if (status.ok()) status = src.Advance();
      if (!status.ok()) break;
      lt.Replay();
    }
  }
  for (const MergeSource& s : sources) *pages_read += s.reader.pages_read();
  return status;
}

/// The one node writer every packer shares: writes `group` as a node
/// at `level` and returns the parent entry that points at it.
StatusOr<Entry> WritePackedNode(RTree* tree, uint16_t level,
                                const std::vector<Entry>& group) {
  PICTDB_ASSIGN_OR_RETURN(const storage::PageId page,
                          tree->BulkWriteNode(level, group));
  Entry parent;
  for (const Entry& e : group) parent.mbr.ExpandToInclude(e.mbr);
  parent.payload = Entry::PayloadFromChild(page);
  return parent;
}

/// Bottom-up construction from `items`, the entries of level `level`
/// (already written when level > 0): applies `grouping` per level until
/// the remaining entries fit into a single root node. `leaf_count` is
/// the tree's final Size().
Status BulkLoadFromLevel(RTree* tree, std::vector<Entry> items, uint16_t level,
                         uint64_t leaf_count, const GroupingFn& grouping) {
  const size_t max = tree->options().max_entries;
  while (items.size() > max) {
    const std::vector<std::vector<Entry>> groups = grouping(items, max);
    PICTDB_CHECK(groups.size() > 1) << "grouping must make progress";
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (const std::vector<Entry>& g : groups) {
      PICTDB_CHECK(!g.empty() && g.size() <= max);
      PICTDB_ASSIGN_OR_RETURN(const Entry parent,
                              WritePackedNode(tree, level, g));
      parents.push_back(parent);
    }
    items = std::move(parents);
    ++level;
  }
  PICTDB_ASSIGN_OR_RETURN(const Entry root,
                          WritePackedNode(tree, level, items));
  return tree->BulkSetRoot(root.AsChild(), level + 1u, leaf_count);
}

}  // namespace

Status BulkLoad(RTree* tree, std::vector<Entry> leaf_items,
                const GroupingFn& grouping) {
  if (tree->Size() != 0) {
    return Status::InvalidArgument("bulk load target tree is not empty");
  }
  PICTDB_RETURN_IF_ERROR(ValidatePackEntries(leaf_items));
  if (leaf_items.empty()) return Status::OK();
  const uint64_t size = leaf_items.size();
  const size_t max = tree->options().max_entries;
  if (leaf_items.size() <= max) {
    // Everything fits in the root leaf. Still order it through the
    // grouping so a one-node tree reflects the packer's criterion.
    std::vector<std::vector<Entry>> groups = grouping(leaf_items, max);
    PICTDB_CHECK(groups.size() == 1);
    leaf_items = std::move(groups[0]);
  }
  return BulkLoadFromLevel(tree, std::move(leaf_items), 0, size, grouping);
}

Status PackExternal(RTree* tree, EntrySource* source,
                    const PackOptions& options, ExternalPackStats* stats_out,
                    SpillFileManager* spill_manager) {
  if (tree->Size() != 0) {
    return Status::InvalidArgument("bulk load target tree is not empty");
  }
  SortCriterion criterion;
  switch (options.strategy) {
    case PackStrategy::kSortChunk:
      criterion = options.criterion;
      break;
    case PackStrategy::kHilbert:
      criterion = SortCriterion::kHilbert;
      break;
    default:
      return Status::NotSupported(
          "the sort-and-chunk pipeline supports only kSortChunk / kHilbert; "
          "nearest-neighbor and STR groupings need random access to a "
          "full level");
  }

  ExternalPackStats stats;
  const uint64_t budget = options.memory_budget_bytes;
  if (budget != 0) {
    stats.run_capacity_entries =
        std::max<uint64_t>(1, budget / sizeof(KeyedEntry));
  }
  const size_t run_capacity =
      budget != 0 ? static_cast<size_t>(stats.run_capacity_entries)
                  : std::numeric_limits<size_t>::max();

  // The Hilbert key quantizes against the union of every MBR, which a
  // one-pass stream cannot know up front — learn the frame (and reject
  // invalid entries before any I/O) in a dedicated pass, then rewind.
  // That pass also counts the input, so the sort buffer is sized once
  // instead of grown by doubling.
  geom::Rect frame;
  Entry e;
  size_t buffer_size = run_capacity;  // unknown (max) without a budget
  if (criterion == SortCriterion::kHilbert) {
    size_t count = 0;
    while (true) {
      PICTDB_ASSIGN_OR_RETURN(const bool more, source->Next(&e));
      if (!more) break;
      PICTDB_RETURN_IF_ERROR(ValidatePackEntry(e));
      frame.ExpandToInclude(e.mbr);
      ++count;
    }
    PICTDB_RETURN_IF_ERROR(source->Rewind());
    buffer_size = std::min(count, run_capacity);
  }

  SpillFileManager local_manager(options.spill_dir);
  SpillFileManager* manager =
      spill_manager != nullptr ? spill_manager : &local_manager;
  std::unique_ptr<SpillFile> spill;
  std::vector<SpillRunHandle> runs;

  // --- Run formation: budget-sized buffers, stable-sorted by key -----
  // A full buffer spills only when one more entry arrives, so input that
  // fits one buffer stays a single in-memory run and the spill file is
  // never created. Once anything has spilled, the last buffer spills
  // too: holding it through the merge would add up to the budget to
  // peak memory.
  std::vector<KeyedEntry> buffer;
  if (buffer_size != std::numeric_limits<size_t>::max()) {
    buffer.reserve(buffer_size);
  }
  auto seal_run = [&](bool spill_it) -> Status {
    std::stable_sort(buffer.begin(), buffer.end(),
                     [](const KeyedEntry& a, const KeyedEntry& b) {
                       return a.key < b.key;
                     });
    if (!spill_it) return Status::OK();
    if (spill == nullptr) {
      PICTDB_ASSIGN_OR_RETURN(spill, manager->Create());
    }
    SpillRunWriter writer(spill.get(), kSpillRecordSize);
    char rec[kSpillRecordSize];
    for (const KeyedEntry& ke : buffer) {
      EncodeSpillRecord(ke.key, ke.entry, rec);
      PICTDB_RETURN_IF_ERROR(writer.Append(rec));
    }
    PICTDB_ASSIGN_OR_RETURN(const SpillRunHandle run, writer.Finish());
    stats.spill_pages_written += writer.pages_written();
    runs.push_back(run);
    buffer.clear();
    return Status::OK();
  };
  while (true) {
    PICTDB_ASSIGN_OR_RETURN(const bool more, source->Next(&e));
    if (!more) break;
    PICTDB_RETURN_IF_ERROR(ValidatePackEntry(e));
    if (buffer.size() == run_capacity) {
      PICTDB_RETURN_IF_ERROR(seal_run(/*spill_it=*/true));
    }
    buffer.push_back(KeyedEntry{SortKey(e, criterion, frame), e});
    ++stats.entries;
  }
  PICTDB_RETURN_IF_ERROR(seal_run(/*spill_it=*/!runs.empty()));

  const uint64_t total = stats.entries;
  if (total == 0) {
    if (stats_out != nullptr) *stats_out = stats;
    return Status::OK();
  }
  stats.spill_runs = runs.empty() ? 1 : runs.size();
  // The sort buffer is released before a merge allocates its pages.
  if (!runs.empty()) std::vector<KeyedEntry>().swap(buffer);

  // --- Cascaded merges when the run count exceeds the fan-in ---------
  // Always merge the FIRST kSpillMergeMaxFanIn runs and put the result
  // back at the front: run-list position encodes input order, which the
  // loser tree's tie-break depends on for stability.
  while (runs.size() > kSpillMergeMaxFanIn) {
    const std::vector<SpillRunHandle> head(
        runs.begin(), runs.begin() + kSpillMergeMaxFanIn);
    SpillRunWriter writer(spill.get(), kSpillRecordSize);
    char rec[kSpillRecordSize];
    PICTDB_RETURN_IF_ERROR(MergeRuns(
        spill.get(), head, &stats.spill_pages_read,
        [&writer, &rec](uint64_t key, const Entry& entry) -> Status {
          EncodeSpillRecord(key, entry, rec);
          return writer.Append(rec);
        }));
    PICTDB_ASSIGN_OR_RETURN(const SpillRunHandle merged, writer.Finish());
    stats.spill_pages_written += writer.pages_written();
    ++stats.merge_passes;
    std::vector<SpillRunHandle> next;
    next.reserve(runs.size() - kSpillMergeMaxFanIn + 1);
    next.push_back(merged);
    next.insert(next.end(), runs.begin() + kSpillMergeMaxFanIn, runs.end());
    runs = std::move(next);
  }

  // --- Sorted stream → packed leaves ---------------------------------
  // The one in-memory run, or the final merge of the spilled runs, is
  // cut into consecutive chunks of B that become leaves; their
  // (B-times-smaller) parent entries finish in memory through the shared
  // sort-chunk grouping. A stream that fits one node is the root leaf.
  const size_t max = tree->options().max_entries;
  const bool root_leaf = total <= max;
  std::vector<Entry> group;
  group.reserve(std::min<uint64_t>(total, max));
  std::vector<Entry> parents;
  auto write_leaf = [&]() -> Status {
    PICTDB_ASSIGN_OR_RETURN(const Entry parent,
                            WritePackedNode(tree, 0, group));
    parents.push_back(parent);
    group.clear();
    return Status::OK();
  };
  auto emit = [&](const Entry& entry) -> Status {
    group.push_back(entry);
    return !root_leaf && group.size() == max ? write_leaf() : Status::OK();
  };
  if (runs.empty()) {
    for (const KeyedEntry& ke : buffer) PICTDB_RETURN_IF_ERROR(emit(ke.entry));
  } else {
    PICTDB_RETURN_IF_ERROR(
        MergeRuns(spill.get(), runs, &stats.spill_pages_read,
                  [&emit](uint64_t /*key*/, const Entry& entry) {
                    return emit(entry);
                  }));
    ++stats.merge_passes;
    spill.reset();  // unlink the scratch file before the upper levels
  }

  if (!root_leaf && !group.empty()) PICTDB_RETURN_IF_ERROR(write_leaf());
  PICTDB_RETURN_IF_ERROR(BulkLoadFromLevel(
      tree, std::move(root_leaf ? group : parents), root_leaf ? 0 : 1, total,
      [criterion](const std::vector<Entry>& items, size_t m) {
        return GroupSortChunk(items, m, criterion);
      }));
  if (stats_out != nullptr) *stats_out = stats;
  return Status::OK();
}

}  // namespace pictdb::pack
