// churn: writes beside reads. Commits of inserts, deletes and updates
// through a DurableRTree alternate with window searches under
// ReaderEpoch() on one thread. The run ends with a simulated crash and a
// recovery whose entry set must equal the acknowledged one.
//
// churn-race runs the same writer and reader on two threads side by
// side. Reads concurrent with a mutation can miss or repeat entries the
// writer never touches, a known defect of the tree's concurrency; that
// variant counts the wrong reads instead of failing on them, and is kept
// out of the gated workloads because their number differs run to run.
//
// Flush policy: the durable tree sits on a WriteCacheDiskManager over an
// InMemoryDiskManager, so each commit's Sync flushes the volatile cache
// into memory with no device fsync, and the numbers measure pictdb rather
// than the host's filesystem.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "common/random.h"
#include "probe.h"
#include "storage/buffer_pool.h"
#include "storage/write_cache.h"
#include "trace.h"
#include "wal/durable_tree.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace geom = pictdb::geom;
namespace rtree = pictdb::rtree;
namespace storage = pictdb::storage;
namespace wal = pictdb::wal;

constexpr size_t kStable = 100'000;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kFrames = 16384;  // holds the tree and its growth
constexpr size_t kShards = 8;
constexpr size_t kQueries = 4096;
// 0.1% of the 1000 x 1000 frame: ~100 of the 100k stable points.
constexpr double kWindowSide = 31.6227766;
// Writer rids use slot 1, so they never collide with a stable rid.
constexpr uint16_t kWriterSlot = 1;

struct Stack {
  std::unique_ptr<storage::InMemoryDiskManager> disk;
  std::unique_ptr<storage::WriteCacheDiskManager> cache;
  std::unique_ptr<TimingDiskManager> timing;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<wal::DurableRTree> durable;

  ~Stack() { Close(); }
  void Close() {
    durable.reset();
    pool.reset();
    timing.reset();
    cache.reset();
    disk.reset();
  }
};

/// Create the durable tree and bulk-load the stable points; returns the
/// seconds both took and the BulkLoad call's alone in `*load_s`.
double BuildStack(const std::vector<rtree::Entry>& stable, Stack* s,
                  double* load_s) {
  s->Close();
  s->disk = std::make_unique<storage::InMemoryDiskManager>(kPageSize);
  s->cache = std::make_unique<storage::WriteCacheDiskManager>(s->disk.get());
  s->timing = std::make_unique<TimingDiskManager>(s->cache.get());
  s->pool = std::make_unique<storage::BufferPool>(s->timing.get(), kFrames,
                                                  kShards);
  const int64_t start = NowNs();
  auto created = wal::DurableRTree::Create(s->pool.get());
  PICTDB_CHECK(created.ok()) << created.status().ToString();
  s->durable = std::move(created).value();
  const int64_t load_start = NowNs();
  const pictdb::Status loaded = s->durable->BulkLoad(stable);
  const int64_t end = NowNs();
  PICTDB_CHECK(loaded.ok()) << loaded.ToString();
  *load_s = static_cast<double>(end - load_start) / 1e9;
  return static_cast<double>(end - start) / 1e9;
}

struct Live {
  uint64_t payload;
  geom::Rect mbr;
};

storage::Rid RidOf(uint64_t payload) {
  return storage::Rid{static_cast<storage::PageId>(payload >> 16),
                      static_cast<uint16_t>(payload & 0xFFFF)};
}

geom::Rect RandomPointRect(pictdb::Random* rng) {
  const geom::Rect f = pictdb::workload::PaperFrame();
  return geom::Rect::FromPoint({rng->UniformDouble(f.lo.x, f.hi.x),
                                rng->UniformDouble(f.lo.y, f.hi.y)});
}

/// Writer state that outlives phases: the acknowledged non-stable
/// entries and the next fresh rid.
struct WriterState {
  std::vector<Live> live;
  uint64_t next_id = 0;
};

struct WriterStats {
  Latencies lat;
  Latencies checkpoint_lat;  // commits during which a checkpoint ran
  Outcome outcome;
  uint64_t commits = 0;
};

/// One commit from the writer's mix: inserts 45, deletes 35, updates 20
/// (inserts when nothing is left to delete or move). On success the
/// acknowledged state follows. `*t0`..`*t1` brackets the durable call.
pictdb::Status Commit(wal::DurableRTree* durable, WriterState* state,
                      pictdb::Random* rng, uint64_t span_request,
                      int64_t* t0, int64_t* t1) {
  const uint64_t r = rng->Uniform(100);
  pictdb::Status s;
  if (r < 45 || state->live.empty()) {
    const Live fresh{ObjectPayload(state->next_id++, kWriterSlot),
                     RandomPointRect(rng)};
    trace::Scoped span("wal.commit", span_request);
    *t0 = NowNs();
    s = durable->Insert(fresh.mbr, RidOf(fresh.payload));
    *t1 = NowNs();
    if (s.ok()) state->live.push_back(fresh);
    return s;
  }
  const size_t i = rng->Uniform(state->live.size());
  const Live old = state->live[i];
  trace::Scoped span("wal.commit", span_request);
  if (r < 80) {
    *t0 = NowNs();
    s = durable->Delete(old.mbr, RidOf(old.payload));
    *t1 = NowNs();
    if (s.ok()) {
      state->live[i] = state->live.back();
      state->live.pop_back();
    }
  } else {
    const geom::Rect moved = RandomPointRect(rng);
    *t0 = NowNs();
    s = durable->Update(old.mbr, RidOf(old.payload), moved,
                        RidOf(old.payload));
    *t1 = NowNs();
    if (s.ok()) state->live[i].mbr = moved;
  }
  return s;
}

/// The writer: one commit per Step(), acknowledged state kept.
struct Writer {
  wal::DurableRTree* durable;
  WriterState* state;
  pictdb::Random* rng;
  bool watch_checkpoints;
  WriterStats* out;

  void Step() {
    const uint64_t sampled = trace::Sample((3ull << 40) | (out->commits + 1));
    const uint64_t checkpoints =
        watch_checkpoints ? durable->stats().checkpoints : 0;
    int64_t t0 = 0, t1 = 0;
    const pictdb::Status s = Commit(durable, state, rng, sampled, &t0, &t1);
    ++out->outcome.attempted;
    if (!s.ok()) {
      ++out->outcome.errors;
      return;
    }
    ++out->commits;
    out->lat.Add(t0, t1);
    if (watch_checkpoints && durable->stats().checkpoints != checkpoints) {
      out->checkpoint_lat.Add(t0, t1);
    }
  }
};

/// Commits on until the log holds half a checkpoint interval past the
/// last checkpoint, so every run crashes at the same point of the cycle
/// and recovery replays the same number of records.
void CommitToMidInterval(wal::DurableRTree* durable, WriterState* state,
                         pictdb::Random* rng, Outcome* outcome) {
  const uint64_t checkpoints = durable->stats().checkpoints;
  const uint64_t half = wal::DurableOptions{}.checkpoint_every / 2;
  uint64_t after = 0;
  while (after < half) {
    int64_t t0 = 0, t1 = 0;
    const pictdb::Status s = Commit(durable, state, rng, 0, &t0, &t1);
    ++outcome->attempted;
    if (!s.ok()) {
      ++outcome->errors;
      if (durable->poisoned()) return;
      continue;
    }
    if (durable->stats().checkpoints != checkpoints) ++after;
  }
}

struct ReaderStats {
  Latencies lat;
  Outcome outcome;
  uint64_t reads = 0;
  uint64_t nodes = 0, entries = 0, hits = 0;
  uint64_t traced_nodes = 0;  // nodes visited by traced reads
  uint64_t missing_or_extra = 0, duplicated = 0;
};

/// The reader: one window search per Step(), under ReaderEpoch(). Reads
/// must return exactly the oracle's stable hits, each once. Hits on
/// writer rids are allowed (they come and go) but not twice.
class Reader {
 public:
  Reader(wal::DurableRTree* durable, const std::vector<geom::Rect>& windows,
         const std::vector<Digest>& want, uint64_t seed, ReaderStats* out)
      : durable_(durable),
        windows_(windows),
        want_(want),
        rng_(seed * 1000003 + 99),
        out_(out) {}

  void Step() {
    ++op_id_;
    const size_t i = rng_.Uniform(windows_.size());
    rtree::SearchStats st;
    auto guard = durable_->ReaderEpoch();
    int64_t t0 = 0, t1 = 0;
    std::optional<pictdb::StatusOr<std::vector<rtree::LeafHit>>> result;
    const uint64_t traced = trace::Sample((4ull << 40) | op_id_);
    {
      trace::Scoped span("rtree.search", traced);
      t0 = NowNs();
      result.emplace(durable_->tree().SearchIntersects(windows_[i], &st));
      t1 = NowNs();
    }
    const auto& res = *result;
    if (traced != 0 && op_id_ % kProbeEvery == 0) {
      trace::Scoped span("probe.replay", traced);
      ReplayWindow(durable_->tree(), windows_[i]);
    }
    guard.Release();
    out_->lat.Add(t0, t1);
    ++out_->reads;
    ++out_->outcome.attempted;
    out_->nodes += st.nodes_visited;
    out_->entries += st.entries_tested;
    out_->hits += st.results;
    if (traced != 0) out_->traced_nodes += st.nodes_visited;
    if (!res.ok()) {
      ++out_->outcome.errors;
      return;
    }
    Digest stable;
    payloads_.clear();
    for (const auto& h : *res) {
      const uint64_t p = rtree::Entry::PayloadFromRid(h.rid);
      payloads_.push_back(p);
      if (h.rid.slot != kWriterSlot) stable.Add(p);
    }
    std::sort(payloads_.begin(), payloads_.end());
    const bool dup = std::adjacent_find(payloads_.begin(), payloads_.end()) !=
                     payloads_.end();
    const bool mismatch = !(stable == want_[i]);
    out_->duplicated += dup;
    out_->missing_or_extra += mismatch;
    if (dup || mismatch) ++out_->outcome.wrong;
  }

 private:
  wal::DurableRTree* durable_;
  const std::vector<geom::Rect>& windows_;
  const std::vector<Digest>& want_;
  pictdb::Random rng_;
  ReaderStats* out_;
  uint64_t op_id_ = 0;
  std::vector<uint64_t> payloads_;
};

struct PhaseStats {
  WriterStats writer;
  ReaderStats reader;
  int64_t start_ns = 0;
  double seconds = 0;
  double read_qps() const {
    return SliceMedians(reader.lat, start_ns, seconds).per_s;
  }
};

/// `concurrent` false: one thread alternates a commit and a read, so
/// every read sees a whole commit. True: a writer thread and a reader
/// thread run side by side.
PhaseStats RunPhase(Stack* s, WriterState* state, pictdb::Random* wrng,
                    const std::vector<geom::Rect>& windows,
                    const std::vector<Digest>& want, uint64_t seed,
                    double seconds, bool concurrent,
                    TraceToggler* toggler = nullptr) {
  PhaseStats phase;
  phase.seconds = seconds;
  phase.writer.lat.ReserveFor(seconds);
  phase.reader.lat.ReserveFor(seconds);
  Writer writer{s->durable.get(), state, wrng,
                /*watch_checkpoints=*/toggler != nullptr, &phase.writer};
  Reader reader(s->durable.get(), windows, want, seed, &phase.reader);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  RunThreads(concurrent ? 2 : 1, seconds, toggler, &phase.start_ns,
             [&](size_t t) {
               while (NowNs() < end) {
                 if (!concurrent || t == 0) writer.Step();
                 if (!concurrent || t == 1) reader.Step();
               }
             });
  return phase;
}

using EntryKey = std::tuple<uint64_t, double, double, double, double>;

EntryKey KeyOf(uint64_t payload, const geom::Rect& r) {
  return {payload, r.lo.x, r.lo.y, r.hi.x, r.hi.y};
}

}  // namespace

void RunChurn(const Args& args, bool concurrent, Report* report) {
  pictdb::Random rng(args.seed);
  const geom::Rect frame = pictdb::workload::PaperFrame();
  const std::vector<geom::Point> points =
      pictdb::workload::UniformPoints(&rng, kStable, frame);
  std::vector<rtree::Entry> stable(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    stable[i].mbr = geom::Rect::FromPoint(points[i]);
    stable[i].payload = ObjectPayload(i);
  }
  const GridOracle oracle(points, frame, 32.0);
  pictdb::Random qrng(args.seed * 7919 + 17);
  std::vector<geom::Rect> windows;
  std::vector<Digest> want;
  for (size_t i = 0; i < kQueries; ++i) {
    windows.push_back(geom::Rect::FromCenterHalfExtent(
        qrng.UniformDouble(frame.lo.x, frame.hi.x), kWindowSide / 2,
        qrng.UniformDouble(frame.lo.y, frame.hi.y), kWindowSide / 2));
    want.push_back(oracle.Window(windows.back()));
  }

  Stack s;
  std::vector<double> load_times;
  const double setup_s = MedianSetup(kSetupReps, [&] {
    double load_s = 0;
    const double t = BuildStack(stable, &s, &load_s);
    load_times.push_back(load_s);
    return t;
  });

  WriterState state;
  pictdb::Random wrng(args.seed * 104729 + 3);
  const PhaseStats warm =
      RunPhase(&s, &state, &wrng, windows, want, args.seed + 1,
               kWarmupSeconds, concurrent);

  const auto disk0 = s.timing->counts();
  const auto wal0 = s.durable->wal_stats();
  const auto mut0 = s.durable->stats();
  TraceToggler toggler(s.pool.get(), s.timing.get());
  const PhaseStats m =
      RunPhase(&s, &state, &wrng, windows, want, args.seed, args.seconds,
               concurrent, args.trace ? &toggler : nullptr);
  const auto disk = s.timing->counts() - disk0;
  const auto wal1 = s.durable->wal_stats();
  const auto mut1 = s.durable->stats();
  report->outcome = warm.writer.outcome;
  for (const Outcome& o : {warm.reader.outcome, m.writer.outcome,
                           m.reader.outcome}) {
    report->outcome.Add(o);
  }
  CommitToMidInterval(s.durable.get(), &state, &wrng, &report->outcome);
  report->Info("wrong_reads_missing_or_extra",
               static_cast<double>(warm.reader.missing_or_extra +
                                   m.reader.missing_or_extra));
  report->Info("wrong_reads_duplicated",
               static_cast<double>(warm.reader.duplicated +
                                   m.reader.duplicated));

  // Everything acknowledged so far, which recovery must reproduce.
  std::vector<EntryKey> acked;
  for (const rtree::Entry& e : stable) acked.push_back(KeyOf(e.payload, e.mbr));
  for (const Live& l : state.live) acked.push_back(KeyOf(l.payload, l.mbr));
  std::sort(acked.begin(), acked.end());
  const double disk_bytes =
      static_cast<double>(s.disk->page_count()) * kPageSize;

  // Crash: the pool and the unsynced cache contents are lost.
  const storage::PageId meta = s.durable->meta_page();
  const storage::PageId anchor = s.durable->anchor_page();
  s.durable.reset();
  s.pool.reset();
  s.cache->DropUnsynced();
  const int64_t crash = NowNs();
  double recovery_ms = 0;
  wal::RecoveryInfo info;
  trace::SetEnabled(args.trace);
  {
    trace::Scoped span("wal.recover", 5ull << 40);
    s.pool = std::make_unique<storage::BufferPool>(s.timing.get(), kFrames,
                                                   kShards);
    auto reopened = wal::DurableRTree::Open(s.pool.get(), meta, anchor);
    recovery_ms = static_cast<double>(NowNs() - crash) / 1e6;
    if (!reopened.ok()) {
      report->Fatal("recovery failed: " + reopened.status().ToString());
    } else {
      s.durable = std::move(reopened).value();
      info = s.durable->recovery_info();
    }
  }
  trace::SetEnabled(false);
  if (s.durable != nullptr) {
    auto all = s.durable->tree().CollectAllEntries();
    std::vector<EntryKey> recovered;
    if (all.ok()) {
      for (const auto& h : *all) {
        recovered.push_back(KeyOf(rtree::Entry::PayloadFromRid(h.rid), h.mbr));
      }
    }
    std::sort(recovered.begin(), recovered.end());
    if (!all.ok() || recovered != acked) {
      report->Fatal("recovered entry set differs from the acknowledged set (" +
                    std::to_string(recovered.size()) + " recovered, " +
                    std::to_string(acked.size()) + " acknowledged)");
    }
  }
  report->Info("acknowledged_entries", static_cast<double>(acked.size()));

  if (!args.trace) {
    const ReaderStats& rd = m.reader;
    const WriterStats& wr = m.writer;
    report->Metric("setup_s", setup_s, "s", kSetupReps, "set-ups");
    report->Metric("read_qps", m.read_qps(), "1/s", rd.reads, "reads");
    LatencyMetrics(report, "read", rd.lat, m.start_ns, m.seconds, true);
    LatencyMetrics(report, "window", rd.lat, m.start_ns, m.seconds, false);
    report->Metric("write_qps",
                   SliceMedians(wr.lat, m.start_ns, m.seconds).per_s, "1/s",
                   wr.commits, "commits");
    LatencyMetrics(report, "write", wr.lat, m.start_ns, m.seconds, true);
    report->Metric("recovery_ms", recovery_ms, "ms");
    report->Metric("peak_rss_mib", PeakRssMiB(), "MiB");
    report->Metric("disk_bytes_per_object",
                   Ratio(disk_bytes, static_cast<double>(acked.size())), "B",
                   acked.size(), "objects");
    return;
  }

  const Sliced quiet = SliceMedians(m.reader.lat, m.start_ns, m.seconds, 0);
  const Sliced loud = SliceMedians(m.reader.lat, m.start_ns, m.seconds, 1);
  // The pool serves both threads, so its counters are per operation.
  ReportPoolCounters(
      report, toggler.quiet(),
      quiet.n + SliceMedians(m.writer.lat, m.start_ns, m.seconds, 0).n,
      "reads and commits");
  const double reads = static_cast<double>(m.reader.reads);
  const double commits = static_cast<double>(m.writer.commits);
  report->Metric("pack.build_s", Median(load_times), "s", kSetupReps,
                 "set-ups");
  report->Metric("storage.page_writes_per_commit",
                 Ratio(static_cast<double>(disk.writes), commits), "count",
                 m.writer.commits, "commits");
  report->Metric("storage.syncs_per_commit",
                 Ratio(static_cast<double>(disk.syncs), commits), "count",
                 m.writer.commits, "commits");
  report->Metric("storage.sync_us",
                 Ratio(static_cast<double>(disk.sync_ns) / 1000.0,
                       static_cast<double>(disk.syncs)),
                 "us", disk.syncs, "syncs");
  report->Metric("storage.retired_pages",
                 static_cast<double>(mut1.retired_pages - mut0.retired_pages),
                 "pages", m.writer.commits, "commits");
  report->Metric(
      "storage.reclaimed_pages",
      static_cast<double>(mut1.reclaimed_pages - mut0.reclaimed_pages),
      "pages", m.writer.commits, "commits");
  report->Metric("rtree.nodes_per_read",
                 Ratio(static_cast<double>(m.reader.nodes), reads), "count",
                 m.reader.reads, "reads");
  report->Metric("rtree.entries_per_read",
                 Ratio(static_cast<double>(m.reader.entries), reads), "count",
                 m.reader.reads, "reads");
  report->Metric("rtree.hits_per_read",
                 Ratio(static_cast<double>(m.reader.hits), reads), "count",
                 m.reader.reads, "reads");
  report->Metric("wal.bytes_per_commit",
                 Ratio(static_cast<double>(wal1.appended_bytes -
                                           wal0.appended_bytes),
                       commits),
                 "B", m.writer.commits, "commits");
  report->Metric("wal.syncs_per_commit",
                 Ratio(static_cast<double>(wal1.syncs - wal0.syncs), commits),
                 "count", m.writer.commits, "commits");
  Latencies ckpt = m.writer.checkpoint_lat;
  report->Metric("wal.checkpoint_commit_us", Percentile(&ckpt.us, 0.5), "us",
                 ckpt.us.size(), "checkpointing commits");
  report->Metric("wal.replayed_ops", static_cast<double>(info.replayed_ops),
                 "count");
  report->Metric("wal.replay_us_per_op",
                 Ratio(static_cast<double>(info.elapsed.count()),
                       static_cast<double>(info.replayed_ops)),
                 "us", info.replayed_ops, "replayed ops");
  const auto spans = trace::Reduce();
  const trace::Totals search = spans.count("rtree.search")
                                   ? spans.at("rtree.search")
                                   : trace::Totals{};
  ReportProbeSpans(report, spans, search,
                   static_cast<double>(m.reader.traced_nodes));
  ReportTraceOverhead(report, quiet.per_s, loud.per_s, args);
}

}  // namespace perfbench
