// The sort-and-chunk pipeline's contract: same criterion, same entry
// stream → the same disk image whatever the budget, across run counts
// 1 / 2 / many (cascaded); a single run never touches disk; spill
// corruption surfaces as a clean error with the tree left empty and
// usable. The unbudgeted image is itself pinned by the golden digests
// in golden_determinism_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "common/random.h"
#include "pack/external.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/spill_file.h"
#include "workload/generators.h"

namespace pictdb::pack {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::PageId;
using storage::Rid;

std::string SpillDir() { return std::string(::testing::TempDir()); }

void ExpectValidTree(const RTree& tree) {
  const check::ValidationReport report = check::TreeValidator().Check(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

std::vector<Entry> SeededEntries(uint64_t seed, size_t n) {
  Random rng(seed);
  const auto pts = workload::UniformPoints(&rng, n, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < n; ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }
  return MakeLeafEntries(pts, rids);
}

/// Entries with heavy key collisions for every criterion: centers snap
/// to a coarse grid, so the stable tie-break is what the merge must
/// reproduce.
std::vector<Entry> GriddedEntries(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<Entry> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    const double x = static_cast<double>(rng.Uniform(8)) * 10.0;
    const double y = static_cast<double>(rng.Uniform(8)) * 10.0;
    e.mbr = geom::Rect(x, y, x + 1.0, y + 1.0);
    e.payload = Entry::PayloadFromRid(Rid{static_cast<PageId>(i), 0});
    out.push_back(e);
  }
  return out;
}

/// One fully built database image: every page the build touched,
/// flushed and read back raw (checksum trailer included).
struct DiskImage {
  uint32_t page_size = 0;
  std::vector<std::vector<char>> pages;

  bool operator==(const DiskImage& other) const {
    if (page_size != other.page_size || pages.size() != other.pages.size()) {
      return false;
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (pages[i] != other.pages[i]) return false;
    }
    return true;
  }
};

template <typename BuildFn>
DiskImage BuildImage(const std::vector<Entry>& entries, const BuildFn& build) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  build(&tree, entries);
  ExpectValidTree(tree);
  PICTDB_CHECK_OK(pool.FlushAll());

  DiskImage image;
  image.page_size = disk.page_size();
  image.pages.resize(disk.page_count());
  for (PageId id = 0; id < disk.page_count(); ++id) {
    image.pages[id].resize(disk.page_size());
    PICTDB_CHECK_OK(disk.ReadPage(id, image.pages[id].data()));
  }
  return image;
}

PackOptions ExternalOptions(PackStrategy strategy, uint64_t budget,
                            SortCriterion criterion =
                                SortCriterion::kAscendingX) {
  PackOptions o;
  o.strategy = strategy;
  o.criterion = criterion;
  o.memory_budget_bytes = budget;
  o.spill_dir = SpillDir();
  return o;
}

struct CriterionCase {
  const char* name;
  PackStrategy strategy;
  SortCriterion criterion;
};

const CriterionCase kCriteria[] = {
    {"lowx", PackStrategy::kSortChunk, SortCriterion::kAscendingX},
    {"lowy", PackStrategy::kSortChunk, SortCriterion::kAscendingY},
    {"hilbert", PackStrategy::kHilbert, SortCriterion::kHilbert},
};

// --- byte-identity across run counts --------------------------------------

class ExternalPackEquivalence
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ExternalPackEquivalence, MatchesInMemoryPackByteForByte) {
  const CriterionCase& c = kCriteria[std::get<0>(GetParam())];
  const uint64_t seed = std::get<1>(GetParam());
  const size_t n = 3000;
  const std::vector<Entry> entries = seed % 2 == 0
                                         ? SeededEntries(seed, n)
                                         : GriddedEntries(seed, n);

  PackOptions in_memory;
  in_memory.strategy = c.strategy;
  in_memory.criterion = c.criterion;
  const DiskImage reference =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        PICTDB_CHECK_OK(Pack(tree, e, in_memory));
      });

  // Budgets chosen (in units of the 48-byte keyed entry) to force run
  // counts of 1, 2, and enough to overflow the merge fan-in (cascade).
  const struct {
    uint64_t budget;
    uint64_t expect_runs;
  } kBudgets[] = {
      {48 * uint64_t{n}, 1},
      {48 * uint64_t{n} / 2, 2},
      {48 * 20, (n + 19) / 20},  // 150 runs > kSpillMergeMaxFanIn
  };
  for (const auto& b : kBudgets) {
    ExternalPackStats stats;
    const DiskImage external =
        BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
          VectorEntrySource source(&e);
          PICTDB_CHECK_OK(PackExternal(
              tree, &source,
              ExternalOptions(c.strategy, b.budget, c.criterion), &stats));
        });
    EXPECT_TRUE(external == reference)
        << c.name << " budget=" << b.budget << " runs=" << stats.spill_runs;
    EXPECT_EQ(stats.entries, n);
    EXPECT_EQ(stats.spill_runs, b.expect_runs);
    if (b.expect_runs == 1) {
      // One run is sorted in memory and streamed straight into leaves.
      EXPECT_EQ(stats.merge_passes, 0u);
      EXPECT_EQ(stats.spill_pages_written, 0u);
      EXPECT_EQ(stats.spill_pages_read, 0u);
      continue;
    }
    EXPECT_GE(stats.merge_passes, 1u);
    if (b.expect_runs > kSpillMergeMaxFanIn) {
      EXPECT_GT(stats.merge_passes, 1u) << "cascade must have run";
    }
    EXPECT_GT(stats.spill_pages_written, 0u);
    EXPECT_GE(stats.spill_pages_read, stats.spill_pages_written);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Criteria, ExternalPackEquivalence,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values<uint64_t>(11, 12)),
    [](const auto& info) {
      return std::string(kCriteria[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// A budget passed through Pack() spills and merges to the same image.
TEST(ExternalPackTest, PackDispatcherRoutesBudgetedSortChunk) {
  const std::vector<Entry> entries = SeededEntries(5, 500);
  PackOptions in_memory;
  in_memory.strategy = PackStrategy::kSortChunk;
  const DiskImage reference =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        PICTDB_CHECK_OK(Pack(tree, e, in_memory));
      });
  PackOptions budgeted = in_memory;
  budgeted.memory_budget_bytes = 48 * 100;
  budgeted.spill_dir = SpillDir();
  const DiskImage external =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        PICTDB_CHECK_OK(Pack(tree, e, budgeted));
      });
  EXPECT_TRUE(external == reference);
}

// --- the one-run case never touches disk ----------------------------------

// With no budget, or a budget of exactly n entries, the input is one
// in-memory run: nothing spills, and a spill directory that does not
// exist is never asked for a file — neither through Pack() nor through
// an explicit spill manager. One entry less than n makes two runs, and
// the same manager then fails: the missing directory is a real trap,
// not a vacuous one.
TEST(ExternalPackTest, OneRunNeverCreatesASpillFile) {
  const size_t n = 1000;
  const std::vector<Entry> entries = SeededEntries(17, n);
  const std::string missing = SpillDir() + "/pictdb-no-such-dir/nested";
  const DiskImage reference =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        PICTDB_CHECK_OK(Pack(tree, e,
                             {.strategy = PackStrategy::kHilbert,
                              .spill_dir = missing}));
      });

  for (const uint64_t budget : {uint64_t{0}, uint64_t{48} * n}) {
    storage::SpillFileManager manager(missing);
    ExternalPackStats stats;
    const DiskImage image =
        BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
          VectorEntrySource source(&e);
          PackOptions options{.strategy = PackStrategy::kHilbert,
                              .memory_budget_bytes = budget,
                              .spill_dir = missing};
          PICTDB_CHECK_OK(
              PackExternal(tree, &source, options, &stats, &manager));
        });
    EXPECT_TRUE(image == reference) << "budget=" << budget;
    EXPECT_EQ(stats.entries, n);
    EXPECT_EQ(stats.spill_runs, 1u) << "budget=" << budget;
    EXPECT_EQ(stats.spill_pages_written, 0u) << "budget=" << budget;
    EXPECT_EQ(stats.spill_pages_read, 0u) << "budget=" << budget;
    EXPECT_EQ(stats.merge_passes, 0u) << "budget=" << budget;
    EXPECT_EQ(stats.run_capacity_entries, budget / 48);
  }

  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  storage::SpillFileManager manager(missing);
  VectorEntrySource source(&entries);
  const Status two_runs = PackExternal(
      &*tree, &source,
      ExternalOptions(PackStrategy::kHilbert, uint64_t{48} * (n - 1)), nullptr,
      &manager);
  EXPECT_FALSE(two_runs.ok());
  EXPECT_EQ(tree->Size(), 0u);
}

// --- edges ----------------------------------------------------------------

TEST(ExternalPackTest, EmptySourceBuildsEmptyTree) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 64);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  const std::vector<Entry> none;
  VectorEntrySource source(&none);
  ExternalPackStats stats;
  ASSERT_TRUE(PackExternal(&*tree, &source,
                           ExternalOptions(PackStrategy::kSortChunk, 1 << 16),
                           &stats)
                  .ok());
  EXPECT_EQ(tree->Size(), 0u);
  EXPECT_EQ(stats.spill_runs, 0u);
}

TEST(ExternalPackTest, BoundarySizesAroundOneNode) {
  storage::InMemoryDiskManager probe(512);
  storage::BufferPool probe_pool(&probe, 64);
  auto probe_tree = RTree::Create(&probe_pool);
  ASSERT_TRUE(probe_tree.ok());
  const size_t max = probe_tree->options().max_entries;

  for (const size_t n : {size_t{1}, max, max + 1, 2 * max + 3}) {
    const std::vector<Entry> entries = SeededEntries(77, n);
    PackOptions in_memory;
    in_memory.strategy = PackStrategy::kSortChunk;
    const DiskImage reference =
        BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
          PICTDB_CHECK_OK(Pack(tree, e, in_memory));
        });
    const DiskImage external =
        BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
          VectorEntrySource source(&e);
          PICTDB_CHECK_OK(PackExternal(
              tree, &source, ExternalOptions(PackStrategy::kSortChunk, 48 * 2),
              nullptr));
        });
    EXPECT_TRUE(external == reference) << "n=" << n;
  }
}

TEST(ExternalPackTest, RejectsUnsupportedStrategies) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 64);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  const std::vector<Entry> entries = SeededEntries(9, 10);
  for (const PackStrategy s :
       {PackStrategy::kNearestNeighbor, PackStrategy::kStr}) {
    VectorEntrySource source(&entries);
    const Status status =
        PackExternal(&*tree, &source, ExternalOptions(s, 1 << 16));
    EXPECT_EQ(status.code(), StatusCode::kNotSupported) << status.ToString();
    // Through Pack(), a budget is what these groupings cannot honour.
    const Status budgeted = Pack(&*tree, entries, ExternalOptions(s, 1 << 16));
    EXPECT_EQ(budgeted.code(), StatusCode::kNotSupported)
        << budgeted.ToString();
  }
  EXPECT_EQ(tree->Size(), 0u);
}

TEST(ExternalPackTest, RejectsNonFiniteEntriesBeforeSpilling) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 64);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> entries = SeededEntries(13, 50);
  entries[17].mbr.lo.x = std::numeric_limits<double>::quiet_NaN();
  VectorEntrySource source(&entries);
  const Status status = PackExternal(
      &*tree, &source, ExternalOptions(PackStrategy::kSortChunk, 48 * 8));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(tree->Size(), 0u);
}

// --- fault injection on the spill path ------------------------------------

TEST(ExternalPackTest, TornSpillWriteFailsCleanlyAndTreeStaysUsable) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());

  storage::SpillFileManager manager(SpillDir());
  manager.SetDiskWrapperForTesting([](storage::DiskManager* base) {
    storage::FaultPlan plan;
    plan.seed = 42;
    plan.torn_write_rate = 1.0;  // every spill page silently torn
    return std::make_unique<storage::FaultInjectionDiskManager>(base, plan);
  });

  const std::vector<Entry> entries = SeededEntries(21, 400);
  VectorEntrySource source(&entries);
  const Status status =
      PackExternal(&*tree, &source,
                   ExternalOptions(PackStrategy::kSortChunk, 48 * 50), nullptr,
                   &manager);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  // No partial tree: the root was never set, and the same tree object
  // accepts a clean in-memory pack afterwards.
  EXPECT_EQ(tree->Size(), 0u);
  PackOptions in_memory;
  in_memory.strategy = PackStrategy::kSortChunk;
  ASSERT_TRUE(Pack(&*tree, entries, in_memory).ok());
  EXPECT_EQ(tree->Size(), entries.size());
  ExpectValidTree(*tree);
}

TEST(ExternalPackTest, TransientSpillFaultsAreAbsorbedByRetry) {
  const std::vector<Entry> entries = SeededEntries(33, 1200);
  PackOptions in_memory;
  in_memory.strategy = PackStrategy::kSortChunk;
  const DiskImage reference =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        PICTDB_CHECK_OK(Pack(tree, e, in_memory));
      });

  storage::SpillFileManager manager(SpillDir());
  manager.SetDiskWrapperForTesting([](storage::DiskManager* base) {
    storage::FaultPlan plan;
    plan.seed = 7;
    plan.transient_read_error_rate = 0.2;
    plan.transient_write_error_rate = 0.2;
    return std::make_unique<storage::FaultInjectionDiskManager>(base, plan);
  });

  ExternalPackStats stats;
  const DiskImage external =
      BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
        VectorEntrySource source(&e);
        PICTDB_CHECK_OK(
            PackExternal(tree, &source,
                         ExternalOptions(PackStrategy::kSortChunk, 48 * 200),
                         &stats, &manager));
      });
  EXPECT_TRUE(external == reference);
  EXPECT_EQ(stats.spill_runs, 6u);
}

// --- spill framing unit coverage ------------------------------------------

TEST(SpillFileTest, RoundTripsRecordsAcrossPages) {
  storage::SpillFileManager manager(SpillDir(), /*page_size=*/256);
  auto spill = manager.Create();
  ASSERT_TRUE(spill.ok());

  constexpr uint32_t kRecordSize = 48;
  const uint32_t per_page = storage::SpillRecordsPerPage(256, kRecordSize);
  ASSERT_GT(per_page, 1u);

  storage::SpillRunWriter writer(spill->get(), kRecordSize);
  const size_t kRecords = per_page * 3 + 1;  // exercises a partial tail page
  char rec[kRecordSize];
  for (size_t i = 0; i < kRecords; ++i) {
    std::memset(rec, static_cast<int>(i % 251), sizeof(rec));
    PICTDB_CHECK_OK(writer.Append(rec));
  }
  auto run = writer.Finish();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->records, kRecords);
  EXPECT_EQ(run->page_count, 4u);

  storage::SpillRunReader reader(spill->get(), *run, kRecordSize);
  for (size_t i = 0; i < kRecords; ++i) {
    auto more = reader.Next(rec);
    ASSERT_TRUE(more.ok() && *more) << i;
    EXPECT_EQ(static_cast<unsigned char>(rec[0]), i % 251);
  }
  auto done = reader.Next(rec);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(SpillFileTest, FileIsRemovedWithHandle) {
  std::string path;
  {
    storage::SpillFileManager manager(SpillDir());
    auto spill = manager.Create();
    ASSERT_TRUE(spill.ok());
    path = (*spill)->path();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::fclose(f);
  }
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr) << path;
}

}  // namespace
}  // namespace pictdb::pack
