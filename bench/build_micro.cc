// google-benchmark microbenchmarks: construction cost per builder. The
// paper remarks that choosing groups by simultaneous MBR minimization
// "could be combinatorially explosive" — these numbers show what the
// practical loaders cost instead (NN packing with the grid accelerator is
// near-linear; sort-based loaders are n log n; dynamic INSERT pays per
// object).
//
// `build_micro --json [objects] [--budget-mb=N]` bypasses google-benchmark
// and runs the out-of-core loader end to end: a streaming point source is
// external-sorted under an N-MiB budget (default 64), spill runs are
// merged straight into packed leaves on a file-backed tree, and a single
// JSON object reports spill/merge stats, wall clock, peak RSS, and the
// TreeValidator verdict. CI's bulk-load-scale job parses this dump.

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "check/invariants.h"
#include "common/random.h"
#include "pack/external.h"
#include "pack/pack.h"
#include "pack/str.h"
#include "workload/generators.h"

namespace {

using pictdb::Random;
using pictdb::bench::FakeRid;
using pictdb::bench::PointEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Rect;

std::vector<pictdb::geom::Point> Points(size_t n) {
  Random rng(9000 + n);
  return pictdb::workload::UniformPoints(&rng, n,
                                         pictdb::workload::PaperFrame());
}

void BM_BuildInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = Points(n);
  for (auto _ : state) {
    TreeEnv env = TreeEnv::Make({}, 4096);
    for (size_t i = 0; i < pts.size(); ++i) {
      PICTDB_CHECK_OK(env.tree->Insert(Rect::FromPoint(pts[i]), FakeRid(i)));
    }
    benchmark::DoNotOptimize(env.tree->Size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

template <pictdb::Status (*Loader)(pictdb::rtree::RTree*,
                                   std::vector<pictdb::rtree::Entry>)>
void BM_BuildBulk(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = Points(n);
  for (auto _ : state) {
    TreeEnv env = TreeEnv::Make({}, 4096);
    PICTDB_CHECK_OK(Loader(env.tree.get(), PointEntries(pts)));
    benchmark::DoNotOptimize(env.tree->Size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

pictdb::Status LoadNN(pictdb::rtree::RTree* tree,
                      std::vector<pictdb::rtree::Entry> items) {
  return pictdb::pack::PackNearestNeighbor(tree, std::move(items));
}
pictdb::Status LoadLowX(pictdb::rtree::RTree* tree,
                        std::vector<pictdb::rtree::Entry> items) {
  return pictdb::pack::PackSortChunk(tree, std::move(items));
}
pictdb::Status LoadStr(pictdb::rtree::RTree* tree,
                       std::vector<pictdb::rtree::Entry> items) {
  return pictdb::pack::PackStr(tree, std::move(items));
}
pictdb::Status LoadHilbert(pictdb::rtree::RTree* tree,
                           std::vector<pictdb::rtree::Entry> items) {
  return pictdb::pack::Pack(
      tree, std::move(items),
      {.strategy = pictdb::pack::PackStrategy::kHilbert});
}

BENCHMARK(BM_BuildInsert)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildBulk<LoadNN>)->Name("BM_BuildPackNN")
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildBulk<LoadLowX>)->Name("BM_BuildLowX")
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildBulk<LoadStr>)->Name("BM_BuildSTR")
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildBulk<LoadHilbert>)->Name("BM_BuildHilbert")
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);

// --- `--json` mode: out-of-core bulk load at scale ------------------------

/// Streaming leaf-entry generator: uniform points in the paper frame,
/// never materialized as a vector — holding the full entry list would
/// defeat the point of measuring the bounded-memory path. Rewind
/// re-seeds the generator, so every pass yields the same stream (the
/// Hilbert pre-pass and any retry see identical data).
class UniformPointSource final : public pictdb::pack::EntrySource {
 public:
  UniformPointSource(uint64_t seed, size_t n)
      : seed_(seed), n_(n), rng_(seed) {}

  pictdb::StatusOr<bool> Next(pictdb::rtree::Entry* out) override {
    if (emitted_ == n_) return false;
    const double x = rng_.UniformDouble(0.0, 1000.0);
    const double y = rng_.UniformDouble(0.0, 1000.0);
    out->mbr = Rect::FromPoint({x, y});
    out->payload = pictdb::rtree::Entry::PayloadFromRid(FakeRid(emitted_));
    ++emitted_;
    return true;
  }

  pictdb::Status Rewind() override {
    rng_ = Random(seed_);
    emitted_ = 0;
    return pictdb::Status::OK();
  }

 private:
  uint64_t seed_;
  size_t n_;
  Random rng_;
  size_t emitted_ = 0;
};

/// Peak resident set of this process in bytes (Linux reports KiB).
int64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

std::string ScratchDir() {
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? std::string(tmp) : std::string("/tmp");
}

int RunJsonMode(size_t objects, size_t budget_mb) {
  const std::string dir = ScratchDir();
  const std::string tree_path =
      dir + "/pictdb-build-micro-" + std::to_string(::getpid()) + ".tree";

  int exit_code = 0;
  {
    auto disk = pictdb::storage::FileDiskManager::Open(tree_path, 4096,
                                                       /*truncate=*/true);
    PICTDB_CHECK(disk.ok()) << disk.status().ToString();
    // A small pool (8 MiB) on purpose: leaf pages are written once and
    // never revisited, so the build must not depend on pool capacity.
    pictdb::storage::BufferPool pool(disk->get(), 2048);
    auto created = pictdb::rtree::RTree::Create(&pool, {});
    PICTDB_CHECK(created.ok()) << created.status().ToString();
    pictdb::rtree::RTree tree = std::move(created).value();

    UniformPointSource source(/*seed=*/1985, objects);
    pictdb::pack::PackOptions options;
    options.strategy = pictdb::pack::PackStrategy::kSortChunk;
    options.criterion = pictdb::pack::SortCriterion::kAscendingX;
    options.memory_budget_bytes = budget_mb << 20;
    options.spill_dir = dir;
    pictdb::pack::ExternalPackStats stats;

    const auto start = std::chrono::steady_clock::now();
    const pictdb::Status status =
        pictdb::pack::PackExternal(&tree, &source, options, &stats);
    const double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    PICTDB_CHECK(status.ok()) << status.ToString();

    const pictdb::check::ValidationReport report =
        pictdb::check::TreeValidator().Check(tree);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.ToString().c_str());
      exit_code = 1;
    }

    const int64_t peak_rss = PeakRssBytes();
    std::printf(
        "{\n"
        "  \"objects\": %zu,\n"
        "  \"budget_bytes\": %zu,\n"
        "  \"run_capacity_entries\": %llu,\n"
        "  \"spill_runs\": %llu,\n"
        "  \"merge_passes\": %llu,\n"
        "  \"spill_pages_written\": %llu,\n"
        "  \"spill_pages_read\": %llu,\n"
        "  \"tree_size\": %llu,\n"
        "  \"tree_height\": %u,\n"
        "  \"build_seconds\": %.3f,\n"
        "  \"objects_per_second\": %.1f,\n"
        "  \"peak_rss_bytes\": %lld,\n"
        "  \"peak_rss_mib\": %.1f,\n"
        "  \"validator_ok\": %s\n"
        "}\n",
        objects, static_cast<size_t>(budget_mb << 20),
        static_cast<unsigned long long>(stats.run_capacity_entries),
        static_cast<unsigned long long>(stats.spill_runs),
        static_cast<unsigned long long>(stats.merge_passes),
        static_cast<unsigned long long>(stats.spill_pages_written),
        static_cast<unsigned long long>(stats.spill_pages_read),
        static_cast<unsigned long long>(tree.Size()),
        tree.Height(), build_seconds,
        static_cast<double>(objects) / build_seconds,
        static_cast<long long>(peak_rss),
        static_cast<double>(peak_rss) / (1024.0 * 1024.0),
        report.ok() ? "true" : "false");
  }
  std::remove(tree_path.c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  size_t objects = 2000000;
  size_t budget_mb = 64;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.starts_with("--budget-mb=")) {
      budget_mb = static_cast<size_t>(
          std::strtoull(arg.substr(12).data(), nullptr, 10));
    } else if (json && !arg.starts_with("--")) {
      objects = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (json) return RunJsonMode(objects, budget_mb);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
