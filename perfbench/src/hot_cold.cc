// hot / cold: in-process reads on a 2M-point tree bulk-loaded by
// PackExternal onto a page file. `hot` gives the buffer pool a frame for
// every page; `cold` gives it 1024 frames (~5% of the pages), so the two
// differ only in cache residency.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "pack/external.h"
#include "probe.h"
#include "rtree/knn.h"
#include "storage/buffer_pool.h"
#include "trace.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace geom = pictdb::geom;
namespace rtree = pictdb::rtree;
namespace storage = pictdb::storage;

constexpr size_t kObjects = 2'000'000;
constexpr uint32_t kPageSize = 4096;
constexpr uint64_t kPackBudget = 16ull << 20;
constexpr size_t kColdFrames = 1024;
constexpr size_t kShards = 8;
constexpr size_t kThreads = 2;
constexpr size_t kQueries = 4096;  // distinct queries per type
constexpr size_t kBatch = 8;
constexpr size_t kK = 10;
// 0.01% of the 1000 x 1000 frame: ~200 of 2M uniform points.
constexpr double kWindowSide = 10.0;

enum Op { kPoint, kWindow, kBatchOp, kKnn, kOps };
const char* const kOpNames[kOps] = {"point", "window", "batch", "knn"};

/// Streams the generated points as leaf entries, so the loader never
/// needs the whole entry list in memory.
class PointSource final : public pictdb::pack::EntrySource {
 public:
  explicit PointSource(const std::vector<geom::Point>* points)
      : points_(points) {}
  pictdb::StatusOr<bool> Next(rtree::Entry* out) override {
    if (next_ == points_->size()) return false;
    out->mbr = geom::Rect::FromPoint((*points_)[next_]);
    out->payload = ObjectPayload(next_);
    ++next_;
    return true;
  }
  pictdb::Status Rewind() override {
    next_ = 0;
    return pictdb::Status::OK();
  }

 private:
  const std::vector<geom::Point>* points_;
  size_t next_ = 0;
};

/// The reopened, measured tree and the managers under it, torn down in
/// dependency order.
struct Store {
  std::unique_ptr<storage::FileDiskManager> file;
  std::unique_ptr<TimingDiskManager> timing;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<rtree::RTree> tree;

  ~Store() { Close(); }
  void Close() {
    tree.reset();
    pool.reset();
    timing.reset();
    file.reset();
  }
};

struct Queries {
  std::vector<geom::Point> points;
  std::vector<Digest> point_want;
  std::vector<geom::Rect> windows;
  std::vector<Digest> window_want;
  std::vector<std::vector<geom::Rect>> batches;
  std::vector<std::vector<Digest>> batch_want;
  std::vector<geom::Point> knn;
  std::vector<std::vector<double>> knn_want;
};

geom::Rect RandomWindow(pictdb::Random* rng, double side) {
  const geom::Rect f = pictdb::workload::PaperFrame();
  const double cx = rng->UniformDouble(f.lo.x, f.hi.x);
  const double cy = rng->UniformDouble(f.lo.y, f.hi.y);
  return geom::Rect::FromCenterHalfExtent(cx, side / 2, cy, side / 2);
}

Queries MakeQueries(uint64_t seed, const std::vector<geom::Point>& data,
                    const GridOracle& oracle) {
  pictdb::Random rng(seed * 7919 + 17);
  const geom::Rect f = pictdb::workload::PaperFrame();
  Queries q;
  for (size_t i = 0; i < kQueries; ++i) {
    // Half the point queries hit a stored point, half are random.
    const geom::Point p =
        i % 2 == 0 ? data[rng.Uniform(data.size())]
                   : geom::Point{rng.UniformDouble(f.lo.x, f.hi.x),
                                 rng.UniformDouble(f.lo.y, f.hi.y)};
    q.points.push_back(p);
    q.point_want.push_back(oracle.Window(geom::Rect::FromPoint(p)));
    q.windows.push_back(RandomWindow(&rng, kWindowSide));
    q.window_want.push_back(oracle.Window(q.windows.back()));
    const geom::Point k{rng.UniformDouble(f.lo.x, f.hi.x),
                        rng.UniformDouble(f.lo.y, f.hi.y)};
    q.knn.push_back(k);
    q.knn_want.push_back(oracle.Nearest(k, kK));
  }
  for (size_t i = 0; i < kQueries / 4; ++i) {
    std::vector<geom::Rect> batch;
    std::vector<Digest> want;
    for (size_t j = 0; j < kBatch; ++j) {
      batch.push_back(RandomWindow(&rng, kWindowSide));
      want.push_back(oracle.Window(batch.back()));
    }
    q.batches.push_back(std::move(batch));
    q.batch_want.push_back(std::move(want));
  }
  return q;
}

/// PackExternal onto a fresh page file, then reopen it under a pool of
/// `frames` frames (0 = one per page). Returns the seconds both took and
/// the seconds of the PackExternal call alone in `*pack_s`.
double BuildStore(const std::vector<geom::Point>& points,
                  const std::string& path, const std::string& spill_dir,
                  size_t frames, Store* store, double* pack_s,
                  pictdb::pack::ExternalPackStats* stats) {
  store->Close();
  const int64_t start = NowNs();
  storage::PageId meta = storage::kInvalidPageId;
  {
    auto file = storage::FileDiskManager::Open(path, kPageSize, true);
    PICTDB_CHECK(file.ok()) << file.status().ToString();
    storage::BufferPool build_pool(file->get(), 2048);
    auto created = rtree::RTree::Create(&build_pool, {});
    PICTDB_CHECK(created.ok()) << created.status().ToString();
    rtree::RTree tree = std::move(created).value();
    PointSource source(&points);
    pictdb::pack::PackOptions options;
    options.strategy = pictdb::pack::PackStrategy::kHilbert;
    options.memory_budget_bytes = kPackBudget;
    options.spill_dir = spill_dir;
    const int64_t pack_start = NowNs();
    const pictdb::Status packed =
        pictdb::pack::PackExternal(&tree, &source, options, stats);
    *pack_s = static_cast<double>(NowNs() - pack_start) / 1e9;
    PICTDB_CHECK(packed.ok()) << packed.ToString();
    meta = tree.meta_page();
    PICTDB_CHECK(build_pool.FlushAll().ok());
    PICTDB_CHECK((*file)->Sync().ok());
  }
  auto file = storage::FileDiskManager::Open(path, kPageSize, false);
  PICTDB_CHECK(file.ok()) << file.status().ToString();
  store->file = std::move(file).value();
  store->timing = std::make_unique<TimingDiskManager>(store->file.get());
  const size_t capacity = frames != 0 ? frames : store->file->page_count();
  store->pool = std::make_unique<storage::BufferPool>(store->timing.get(),
                                                      capacity, kShards);
  auto opened = rtree::RTree::Open(store->pool.get(), meta);
  PICTDB_CHECK(opened.ok()) << opened.status().ToString();
  store->tree.emplace(std::move(opened).value());
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// What one reader thread saw in one phase.
struct ThreadStats {
  Latencies lat[kOps];
  Outcome outcome;
  uint64_t reads = 0;
  uint64_t nodes = 0, entries = 0, hits = 0;
  uint64_t batch_nodes = 0, batch_windows = 0;
  uint64_t traced_nodes = 0;  // nodes visited by traced reads
};

struct PhaseStats {
  ThreadStats sum;
  int64_t start_ns = 0;
  double seconds = 0;
  Latencies all() const {
    Latencies all;
    for (int o = 0; o < kOps; ++o) all.Append(sum.lat[o]);
    return all;
  }
  double qps() const { return SliceMedians(all(), start_ns, seconds).per_s; }
};

template <typename Hits>
Digest DigestOf(const Hits& hits) {
  Digest d;
  for (const auto& h : hits) d.Add(rtree::Entry::PayloadFromRid(h.rid));
  return d;
}

void ReadLoop(const rtree::RTree& tree, const Queries& q, uint64_t seed,
              size_t thread, double seconds, ThreadStats* out) {
  for (Latencies& lat : out->lat) lat.ReserveFor(seconds);
  pictdb::Random rng(seed * 1000003 + thread);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t op_id = 0;
  while (NowNs() < end) {
    ++op_id;
    const uint64_t request = (static_cast<uint64_t>(thread + 1) << 40) | op_id;
    const uint64_t r = rng.Uniform(100);
    const Op op = r < 30 ? kPoint : r < 70 ? kWindow : r < 85 ? kBatchOp : kKnn;
    const size_t i = rng.Uniform(op == kBatchOp ? q.batches.size() : kQueries);
    const uint64_t traced = trace::Sample(request);
    const bool replay = traced != 0 && op != kKnn && op_id % kProbeEvery == 0;
    rtree::SearchStats st;
    bool ok = true, right = true;
    int64_t t0 = 0, t1 = 0;
    {
      trace::Scoped span("rtree.search", traced);
      if (op == kPoint) {
        t0 = NowNs();
        auto res = tree.SearchPoint(q.points[i], &st);
        t1 = NowNs();
        ok = res.ok();
        right = ok && DigestOf(*res) == q.point_want[i];
      } else if (op == kWindow) {
        t0 = NowNs();
        auto res = tree.SearchIntersects(q.windows[i], &st);
        t1 = NowNs();
        ok = res.ok();
        right = ok && DigestOf(*res) == q.window_want[i];
      } else if (op == kBatchOp) {
        t0 = NowNs();
        auto res = tree.SearchBatch(q.batches[i], false, &st);
        t1 = NowNs();
        ok = res.ok() && res->size() == kBatch;
        for (size_t w = 0; ok && w < kBatch; ++w) {
          right = right && DigestOf((*res)[w].hits) == q.batch_want[i][w];
        }
        out->batch_nodes += st.nodes_visited;
        out->batch_windows += kBatch;
      } else {
        t0 = NowNs();
        auto res = rtree::SearchNearest(tree, q.knn[i], kK, &st);
        t1 = NowNs();
        ok = res.ok();
        if (ok) {
          std::vector<double> got;
          for (const auto& n : *res) got.push_back(n.distance);
          right = SameDistances(got, q.knn_want[i]);
        }
      }
    }
    if (replay) {
      trace::Scoped span("probe.replay", traced);
      if (op == kPoint) {
        ReplayPoint(tree, q.points[i]);
      } else if (op == kWindow) {
        ReplayWindow(tree, q.windows[i]);
      } else {
        for (const geom::Rect& w : q.batches[i]) ReplayWindow(tree, w);
      }
    }
    out->lat[op].Add(t0, t1);
    ++out->reads;
    ++out->outcome.attempted;
    if (!ok) {
      ++out->outcome.errors;
    } else if (!right) {
      ++out->outcome.wrong;
    }
    out->nodes += st.nodes_visited;
    out->entries += st.entries_tested;
    out->hits += st.results;
    if (traced != 0) out->traced_nodes += st.nodes_visited;
  }
}

PhaseStats RunPhase(const rtree::RTree& tree, const Queries& q, uint64_t seed,
                    double seconds, TraceToggler* toggler = nullptr) {
  std::vector<ThreadStats> per(kThreads);
  PhaseStats phase;
  phase.seconds = seconds;
  RunThreads(kThreads, seconds, toggler, &phase.start_ns, [&](size_t t) {
    ReadLoop(tree, q, seed, t, seconds, &per[t]);
  });
  for (const ThreadStats& t : per) {
    for (int o = 0; o < kOps; ++o) phase.sum.lat[o].Append(t.lat[o]);
    phase.sum.outcome.Add(t.outcome);
    phase.sum.reads += t.reads;
    phase.sum.nodes += t.nodes;
    phase.sum.entries += t.entries;
    phase.sum.hits += t.hits;
    phase.sum.batch_nodes += t.batch_nodes;
    phase.sum.batch_windows += t.batch_windows;
    phase.sum.traced_nodes += t.traced_nodes;
  }
  return phase;
}

}  // namespace

void RunHotCold(const Args& args, bool cold, Report* report) {
  pictdb::Random rng(args.seed);
  const std::vector<geom::Point> points = pictdb::workload::UniformPoints(
      &rng, kObjects, pictdb::workload::PaperFrame());
  const GridOracle oracle(points, pictdb::workload::PaperFrame(), 32.0);
  const Queries queries = MakeQueries(args.seed, points, oracle);

  const std::string path = args.data_dir + "/" + args.workload + ".tree";
  Store store;
  std::vector<double> pack_times;
  pictdb::pack::ExternalPackStats pack_stats;
  const double setup_s = MedianSetup(kSetupReps, [&] {
    double pack_s = 0;
    pack_stats = {};
    const double s = BuildStore(points, path, args.data_dir,
                                cold ? kColdFrames : 0, &store, &pack_s,
                                &pack_stats);
    pack_times.push_back(pack_s);
    return s;
  });
  const rtree::RTree& tree = *store.tree;
  auto nodes = tree.CountNodes();  // also faults every page in
  PICTDB_CHECK(nodes.ok());
  report->Info("tree_pages", static_cast<double>(store.file->page_count()));
  report->Info("tree_nodes", static_cast<double>(*nodes));
  report->Info("tree_height", static_cast<double>(tree.Height()));
  report->Info("pool_frames", static_cast<double>(store.pool->capacity()));
  if (tree.Size() != kObjects) report->Fatal("tree size mismatch after pack");

  const PhaseStats warm =
      RunPhase(tree, queries, args.seed + 1, kWarmupSeconds);

  TraceToggler toggler(store.pool.get(), store.timing.get());
  PhaseStats m = RunPhase(tree, queries, args.seed, args.seconds,
                          args.trace ? &toggler : nullptr);
  report->outcome = warm.sum.outcome;
  report->outcome.Add(m.sum.outcome);
  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s", kSetupReps, "set-ups");
    report->Metric("read_qps", m.qps(), "1/s", m.sum.reads, "reads");
    LatencyMetrics(report, "read", m.all(), m.start_ns, m.seconds, true);
    for (int o = 0; o < kOps; ++o) {
      LatencyMetrics(report, kOpNames[o], m.sum.lat[o], m.start_ns,
                     m.seconds, false);
    }
    report->Metric("peak_rss_mib", PeakRssMiB(), "MiB");
    report->Metric("disk_bytes_per_object",
                   Ratio(static_cast<double>(store.file->page_count()) *
                             kPageSize,
                         static_cast<double>(tree.Size())),
                   "B", tree.Size(), "objects");
  } else {
    const Sliced quiet = SliceMedians(m.all(), m.start_ns, m.seconds, 0);
    const Sliced loud = SliceMedians(m.all(), m.start_ns, m.seconds, 1);
    ReportPoolCounters(report, toggler.quiet(), quiet.n, "reads");
    const double reads = static_cast<double>(m.sum.reads);
    report->Metric("pack.build_s", Median(pack_times), "s", kSetupReps,
                   "set-ups");
    report->Metric("pack.spill_pages",
                   static_cast<double>(pack_stats.spill_pages_written),
                   "pages");
    report->Metric("rtree.nodes_per_read",
                   Ratio(static_cast<double>(m.sum.nodes), reads), "count",
                   m.sum.reads, "reads");
    report->Metric("rtree.entries_per_read",
                   Ratio(static_cast<double>(m.sum.entries), reads), "count",
                   m.sum.reads, "reads");
    report->Metric("rtree.hits_per_read",
                   Ratio(static_cast<double>(m.sum.hits), reads), "count",
                   m.sum.reads, "reads");
    report->Metric("rtree.batch_nodes_per_window",
                   Ratio(static_cast<double>(m.sum.batch_nodes),
                         static_cast<double>(m.sum.batch_windows)),
                   "count", m.sum.batch_windows, "windows");
    const auto spans = trace::Reduce();
    const trace::Totals search = spans.count("rtree.search")
                                     ? spans.at("rtree.search")
                                     : trace::Totals{};
    ReportProbeSpans(report, spans, search,
                     static_cast<double>(m.sum.traced_nodes));
    ReportTraceOverhead(report, quiet.per_s, loud.per_s, args);
  }
  store.Close();
  std::remove(path.c_str());
}

}  // namespace perfbench
