// serve: the wire path. An in-process net::Server over a QueryService
// with 2 workers serves 200k points plus the US catalog on a unix socket,
// with the result cache on; 2 blocking clients run a closed loop.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/logging.h"
#include "common/random.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pack/pack.h"
#include "probe.h"
#include "psql/executor.h"
#include "psql/parser.h"
#include "rel/catalog.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "trace.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"
#include "workload/us_cities.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace geom = pictdb::geom;
namespace net = pictdb::net;
namespace rtree = pictdb::rtree;
namespace storage = pictdb::storage;

constexpr size_t kObjects = 200'000;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kFrames = 4096;  // every page of the 200k-point tree
constexpr size_t kShards = 8;
constexpr size_t kWorkers = 2;
constexpr size_t kClients = 2;
constexpr size_t kCacheBytes = 4u << 20;
constexpr size_t kQueries = 4096;
constexpr size_t kHotWindows = 64;
constexpr size_t kBatch = 8;
constexpr uint32_t kK = 10;
// 0.1% of the 1000 x 1000 frame: ~200 of 200k uniform points.
constexpr double kWindowSide = 31.6227766;

enum Op { kWindow, kPoint, kKnn, kPsql, kBatchOp, kOps };
const char* const kOpNames[kOps] = {"window", "point", "knn", "psql",
                                    "batch"};

/// One prepared request with its expected answer.
struct Prepared {
  net::Request request;
  Op op = kWindow;
  Digest want;                             // window, point
  std::vector<Digest> batch_want;          // batch
  std::vector<double> knn_want;            // knn
  std::vector<std::vector<std::string>> rows;  // psql, sorted
};

struct Queries {
  std::vector<Prepared> by_op[kOps];
  std::vector<Prepared> hot_windows;
};

geom::Rect RandomWindow(pictdb::Random* rng) {
  const geom::Rect f = pictdb::workload::PaperFrame();
  return geom::Rect::FromCenterHalfExtent(
      rng->UniformDouble(f.lo.x, f.hi.x), kWindowSide / 2,
      rng->UniformDouble(f.lo.y, f.hi.y), kWindowSide / 2);
}

Prepared WindowQuery(pictdb::Random* rng, const GridOracle& oracle) {
  Prepared p;
  const geom::Rect w = RandomWindow(rng);
  p.request.body = net::WindowRequest{w, false};
  p.op = kWindow;
  p.want = oracle.Window(w);
  return p;
}

/// PSQL texts over the US catalog with answers computed straight from
/// the embedded city table (no executor involved).
void AddPsqlQueries(pictdb::Random* rng, Queries* q) {
  const auto cities = pictdb::workload::ContinentalUsCities();
  auto add = [&](std::string text, std::vector<std::vector<std::string>> rows) {
    Prepared p;
    p.request.body = net::PsqlRequest{std::move(text)};
    p.op = kPsql;
    std::sort(rows.begin(), rows.end());
    p.rows = std::move(rows);
    q->by_op[kPsql].push_back(std::move(p));
  };
  add("select count(*) from cities", {{std::to_string(cities.size())}});
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& c : cities) {
    lo = std::min(lo, c.population);
    hi = std::max(hi, c.population);
  }
  add("select min(population), max(population) from cities",
      {{std::to_string(lo), std::to_string(hi)}});
  for (int i = 0; i < 24; ++i) {
    const int64_t threshold = 50000 + 40000 * i;
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : cities) {
      if (c.population > threshold) {
        rows.push_back({std::string(c.name), std::to_string(c.population)});
      }
    }
    add("select city, population from cities where population > " +
            std::to_string(threshold),
        std::move(rows));
  }
  const geom::Rect us = pictdb::workload::ContinentalUsFrame();
  for (int i = 0; i < 38; ++i) {
    // Print the window with fixed decimals and read it back, so the
    // oracle tests exactly the rectangle the parser will build.
    char text[160];
    std::snprintf(text, sizeof(text),
                  "select city from cities on us-map at loc covered-by "
                  "{%.3f +- %.3f, %.3f +- %.3f}",
                  rng->UniformDouble(us.lo.x, us.hi.x),
                  rng->UniformDouble(1.0, 6.0),
                  rng->UniformDouble(us.lo.y, us.hi.y),
                  rng->UniformDouble(1.0, 4.0));
    double cx = 0, hx = 0, cy = 0, hy = 0;
    std::sscanf(std::strchr(text, '{'), "{%lf +- %lf, %lf +- %lf}", &cx, &hx,
                &cy, &hy);
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : cities) {
      if (c.lon >= cx - hx && c.lon <= cx + hx && c.lat >= cy - hy &&
          c.lat <= cy + hy) {
        rows.push_back({std::string(c.name)});
      }
    }
    add(text, std::move(rows));
  }
}

Queries MakeQueries(uint64_t seed, const std::vector<geom::Point>& data,
                    const GridOracle& oracle) {
  pictdb::Random rng(seed * 7919 + 17);
  const geom::Rect f = pictdb::workload::PaperFrame();
  Queries q;
  for (size_t i = 0; i < kHotWindows; ++i) {
    q.hot_windows.push_back(WindowQuery(&rng, oracle));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    q.by_op[kWindow].push_back(WindowQuery(&rng, oracle));

    Prepared point;
    const geom::Point p =
        i % 2 == 0 ? data[rng.Uniform(data.size())]
                   : geom::Point{rng.UniformDouble(f.lo.x, f.hi.x),
                                 rng.UniformDouble(f.lo.y, f.hi.y)};
    point.request.body = net::PointRequest{p};
    point.op = kPoint;
    point.want = oracle.Window(geom::Rect::FromPoint(p));
    q.by_op[kPoint].push_back(std::move(point));

    Prepared knn;
    const geom::Point k{rng.UniformDouble(f.lo.x, f.hi.x),
                        rng.UniformDouble(f.lo.y, f.hi.y)};
    knn.request.body = net::KnnRequest{k, kK};
    knn.op = kKnn;
    knn.knn_want = oracle.Nearest(k, kK);
    q.by_op[kKnn].push_back(std::move(knn));
  }
  for (size_t i = 0; i < kQueries / 4; ++i) {
    Prepared batch;
    net::BatchWindowRequest req;
    for (size_t j = 0; j < kBatch; ++j) {
      req.windows.push_back(RandomWindow(&rng));
      batch.batch_want.push_back(oracle.Window(req.windows.back()));
    }
    batch.request.body = std::move(req);
    batch.op = kBatchOp;
    q.by_op[kBatchOp].push_back(std::move(batch));
  }
  AddPsqlQueries(&rng, &q);
  return q;
}

/// The served stack, torn down in dependency order.
struct Stack {
  std::unique_ptr<storage::InMemoryDiskManager> disk;
  std::unique_ptr<TimingDiskManager> timing;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<rtree::RTree> tree;
  std::unique_ptr<storage::InMemoryDiskManager> catalog_disk;
  std::unique_ptr<storage::BufferPool> catalog_pool;
  std::unique_ptr<pictdb::rel::Catalog> catalog;
  std::unique_ptr<pictdb::psql::Executor> executor;
  std::unique_ptr<pictdb::service::QueryService> service;
  std::unique_ptr<net::Server> server;

  ~Stack() { Close(); }
  void Close() {
    server.reset();
    service.reset();
    executor.reset();
    catalog.reset();
    catalog_pool.reset();
    catalog_disk.reset();
    tree.reset();
    pool.reset();
    timing.reset();
    disk.reset();
  }
};

/// Pack the tree, build the catalog, start the service and the server.
/// Returns the seconds those calls took; `*pack_s` gets the Pack call's.
double StartStack(const std::vector<rtree::Entry>& entries,
                  const std::string& socket, Stack* s, double* pack_s) {
  s->Close();
  const int64_t start = NowNs();
  s->disk = std::make_unique<storage::InMemoryDiskManager>(kPageSize);
  s->timing = std::make_unique<TimingDiskManager>(s->disk.get());
  s->pool = std::make_unique<storage::BufferPool>(s->timing.get(), kFrames,
                                                  kShards);
  auto created = rtree::RTree::Create(s->pool.get(), {});
  PICTDB_CHECK(created.ok()) << created.status().ToString();
  s->tree.emplace(std::move(created).value());
  pictdb::pack::PackOptions options;
  options.strategy = pictdb::pack::PackStrategy::kHilbert;
  const int64_t pack_start = NowNs();
  const pictdb::Status packed = pictdb::pack::Pack(&*s->tree, entries, options);
  *pack_s = static_cast<double>(NowNs() - pack_start) / 1e9;
  PICTDB_CHECK(packed.ok()) << packed.ToString();

  s->catalog_disk = std::make_unique<storage::InMemoryDiskManager>(512);
  s->catalog_pool =
      std::make_unique<storage::BufferPool>(s->catalog_disk.get(), 512, 2);
  s->catalog = std::make_unique<pictdb::rel::Catalog>(s->catalog_pool.get());
  const pictdb::Status built = pictdb::workload::BuildUsCatalog(&*s->catalog);
  PICTDB_CHECK(built.ok()) << built.ToString();
  s->executor = std::make_unique<pictdb::psql::Executor>(&*s->catalog);

  pictdb::service::ServiceOptions service_options;
  service_options.num_threads = kWorkers;
  s->service = std::make_unique<pictdb::service::QueryService>(
      &*s->tree, s->executor.get(), service_options);
  net::ServerOptions server_options;
  server_options.unix_path = socket;
  server_options.cache_bytes = kCacheBytes;
  net::Server::Bindings bindings;
  bindings.service = s->service.get();
  s->server = std::make_unique<net::Server>(bindings, server_options);
  const pictdb::Status started = s->server->Start();
  PICTDB_CHECK(started.ok()) << started.ToString();
  return static_cast<double>(NowNs() - start) / 1e9;
}

uint64_t Payload(const net::WireRid& rid) {
  return (static_cast<uint64_t>(rid.page_id) << 16) | rid.slot;
}
uint64_t Payload(const storage::Rid& rid) {
  return rtree::Entry::PayloadFromRid(rid);
}

template <typename Hits>
Digest DigestOf(const Hits& hits) {
  Digest d;
  for (const auto& h : hits) d.Add(Payload(h.rid));
  return d;
}

/// The server-side stats a query response carries.
net::WireStats StatsOf(const net::Response& r) {
  if (const auto* x = std::get_if<net::HitsResponse>(&r.body)) return x->stats;
  if (const auto* x = std::get_if<net::NeighborsResponse>(&r.body)) {
    return x->stats;
  }
  if (const auto* x = std::get_if<net::BatchHitsResponse>(&r.body)) {
    return x->stats;
  }
  if (const auto* x = std::get_if<net::TableResponse>(&r.body)) return x->stats;
  return {};
}

/// Checks a response against the prepared answer.
bool Matches(const Prepared& p, const net::Response& r) {
  if (const auto* hits = std::get_if<net::HitsResponse>(&r.body)) {
    return (p.op == kWindow || p.op == kPoint) &&
           DigestOf(hits->hits) == p.want;
  }
  if (const auto* nn = std::get_if<net::NeighborsResponse>(&r.body)) {
    std::vector<double> got;
    for (const auto& n : nn->neighbors) got.push_back(n.distance);
    return p.op == kKnn && SameDistances(got, p.knn_want);
  }
  if (const auto* batch = std::get_if<net::BatchHitsResponse>(&r.body)) {
    if (p.op != kBatchOp || batch->per_window.size() != p.batch_want.size()) {
      return false;
    }
    for (size_t w = 0; w < p.batch_want.size(); ++w) {
      if (batch->per_window[w].degraded ||
          !(DigestOf(batch->per_window[w].hits) == p.batch_want[w])) {
        return false;
      }
    }
    return true;
  }
  if (const auto* table = std::get_if<net::TableResponse>(&r.body)) {
    auto rows = table->rows;
    std::sort(rows.begin(), rows.end());
    return p.op == kPsql && rows == p.rows;
  }
  return false;
}

struct ThreadStats {
  Latencies lat[kOps];
  Outcome outcome;
  uint64_t reads = 0, cached = 0, executed = 0;
  Latencies executed_lat;  // requests that reached the service
  uint64_t nodes = 0, entries = 0, hits = 0;
  uint64_t batch_nodes = 0, batch_windows = 0;
  uint64_t psql_tuples = 0, psql_rows = 0;
  uint64_t traced_nodes = 0;  // nodes visited by traced executed reads

  void Add(const ThreadStats& t) {
    for (int o = 0; o < kOps; ++o) lat[o].Append(t.lat[o]);
    outcome.Add(t.outcome);
    reads += t.reads;
    cached += t.cached;
    executed += t.executed;
    executed_lat.Append(t.executed_lat);
    nodes += t.nodes;
    entries += t.entries;
    hits += t.hits;
    batch_nodes += t.batch_nodes;
    batch_windows += t.batch_windows;
    psql_tuples += t.psql_tuples;
    psql_rows += t.psql_rows;
    traced_nodes += t.traced_nodes;
  }
};

/// The layer spans a probed request adds after its round trip: the codec
/// cost of the same request and response, and for PSQL the parse
/// and execute calls run in process on the served executor.
void TraceLayers(const Stack& stack, const Prepared& p,
                 const net::Response& response, ThreadStats* out) {
  {
    trace::Scoped span("net.codec");
    const std::string req = net::EncodeRequestPayload(p.request);
    auto decoded_req =
        net::DecodeRequestPayload(net::RequestMsgType(p.request), req);
    const std::string resp = net::EncodeResponsePayload(response);
    auto decoded_resp =
        net::DecodeResponsePayload(net::ResponseMsgType(response), resp);
    PICTDB_CHECK(decoded_req.ok() && decoded_resp.ok());
  }
  if (p.op == kPsql) {
    const auto& text = std::get<net::PsqlRequest>(p.request.body).text;
    std::unique_ptr<pictdb::psql::SelectStmt> stmt;
    {
      trace::Scoped span("psql.parse");
      auto parsed = pictdb::psql::Parse(text);
      PICTDB_CHECK(parsed.ok()) << parsed.status().ToString();
      stmt = std::move(parsed).value();
    }
    trace::Scoped span("psql.exec");
    auto rs = stack.executor->Execute(*stmt);
    PICTDB_CHECK(rs.ok()) << rs.status().ToString();
    out->psql_tuples += rs->stats.tuples_fetched;
    out->psql_rows += rs->stats.rows_emitted;
  }
}

void ClientLoop(const Stack& stack, const Queries& q, const std::string& socket,
                uint64_t seed, size_t thread, double seconds,
                ThreadStats* out) {
  for (Latencies& lat : out->lat) lat.ReserveFor(seconds);
  out->executed_lat.ReserveFor(seconds);
  auto connected = net::Client::ConnectUnix(socket);
  PICTDB_CHECK(connected.ok()) << connected.status().ToString();
  net::Client client = std::move(connected).value();
  PICTDB_CHECK(client.SetRecvTimeout(std::chrono::seconds(10)).ok());
  pictdb::Random rng(seed * 1000003 + thread);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t op_id = 0;
  while (NowNs() < end) {
    ++op_id;
    const uint64_t request = (static_cast<uint64_t>(thread + 1) << 40) | op_id;
    const uint64_t r = rng.Uniform(100);
    const Op op = r < 40 ? kWindow
                  : r < 60 ? kPoint
                  : r < 80 ? kKnn
                  : r < 90 ? kPsql
                           : kBatchOp;
    // A quarter of the windows come from a small hot set, so the result
    // cache has shared work to find.
    const Prepared& p =
        op == kWindow && rng.Uniform(4) == 0
            ? q.hot_windows[rng.Uniform(q.hot_windows.size())]
            : q.by_op[op][rng.Uniform(q.by_op[op].size())];
    const uint64_t traced = trace::Sample(request);
    trace::Scoped span("net.request", traced);
    std::optional<pictdb::StatusOr<net::Client::Result>> call_result;
    int64_t t0 = 0, t1 = 0;
    {
      trace::Scoped call("net.client_call");
      t0 = NowNs();
      call_result.emplace(client.Call(p.request));
      t1 = NowNs();
      const auto& res = *call_result;
      if (res.ok() && res->cached()) {
        // Cache hits never reach the service; keep them out of
        // net.wire_us.
        call.Rename("net.cached_call");
      } else if (res.ok()) {
        // The server reports only a duration; anchor it at the reply.
        const auto exec_us = StatsOf(res->response).latency_us;
        trace::Record("service.exec",
                      t1 - static_cast<int64_t>(exec_us) * 1000, t1);
      }
    }
    const auto& res = *call_result;
    out->lat[op].Add(t0, t1);
    ++out->reads;
    ++out->outcome.attempted;
    if (!res.ok()) {
      if (res.status().IsResourceExhausted()) {
        ++out->outcome.refused;
      } else {
        ++out->outcome.errors;
      }
      continue;
    }
    if (!Matches(p, res->response)) ++out->outcome.wrong;
    const net::WireStats stats = StatsOf(res->response);
    if (res->cached()) {
      ++out->cached;
    } else {
      ++out->executed;
      out->executed_lat.Add(t0, t1);
      out->nodes += stats.nodes_visited;
      out->entries += stats.entries_tested;
      out->hits += stats.results;
      if (op == kBatchOp) {
        out->batch_nodes += stats.nodes_visited;
        out->batch_windows += kBatch;
      }
      if (traced != 0) out->traced_nodes += stats.nodes_visited;
    }
    if (traced != 0 && op_id % kProbeEvery == 0) {
      TraceLayers(stack, p, res->response, out);
      {
        trace::Scoped replay("probe.replay");
        if (const auto* w = std::get_if<net::WindowRequest>(&p.request.body)) {
          ReplayWindow(*stack.tree, w->window);
        } else if (const auto* pt =
                       std::get_if<net::PointRequest>(&p.request.body)) {
          ReplayPoint(*stack.tree, pt->point);
        } else if (const auto* b =
                       std::get_if<net::BatchWindowRequest>(&p.request.body)) {
          for (const geom::Rect& w : b->windows) ReplayWindow(*stack.tree, w);
        }
      }
    }
  }
}

/// In-process Submit -> ready probe: what a request waits in the
/// service's admission queue beside the wire traffic. Submits only while
/// tracing is on, so the untraced slices carry the wire traffic alone.
void QueueProbe(const Stack& stack, const Queries& q, uint64_t seed,
                double seconds, Outcome* outcome) {
  pictdb::Random rng(seed * 31 + 7);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t id = 0;
  while (NowNs() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!trace::Enabled()) continue;
    const Prepared& p = q.by_op[kWindow][rng.Uniform(kQueries)];
    const auto& window = std::get<net::WindowRequest>(p.request.body).window;
    ++outcome->attempted;
    {
      trace::Scoped span("service.submit", (1ull << 50) | ++id);
      auto submitted = stack.service->Submit(
          pictdb::service::WindowQuery{window, false});
      if (!submitted.ok()) {
        ++outcome->refused;
        continue;
      }
      auto result = submitted->get();
      const int64_t ready = NowNs();
      if (!result.ok()) {
        ++outcome->errors;
        continue;
      }
      trace::Record("service.probe_exec",
                    ready - static_cast<int64_t>(result->latency_us) * 1000,
                    ready);
      if (!(DigestOf(result->hits) == p.want)) ++outcome->wrong;
    }
  }
}

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

PhaseStats RunPhase(const Stack& stack, const Queries& q,
                    const std::string& socket, uint64_t seed, double seconds,
                    TraceToggler* toggler = nullptr) {
  std::vector<ThreadStats> per(kClients);
  Outcome probe;
  std::thread prober;
  if (toggler != nullptr) {
    prober = std::thread(QueueProbe, std::cref(stack), std::cref(q), seed,
                         seconds, &probe);
  }
  PhaseStats phase;
  phase.seconds = seconds;
  RunThreads(kClients, seconds, toggler, &phase.start_ns, [&](size_t t) {
    ClientLoop(stack, q, socket, seed, t, seconds, &per[t]);
  });
  if (prober.joinable()) prober.join();
  for (const ThreadStats& t : per) phase.sum.Add(t);
  phase.sum.outcome.Add(probe);
  return phase;
}

uint64_t Rejections(const Stack& s) {
  const auto server = s.server->Stats();
  return s.service->Metrics().rejected + server.backpressure_rejections +
         server.quota_rejections + server.connections_rejected;
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  pictdb::Random rng(args.seed);
  const std::vector<geom::Point> points = pictdb::workload::UniformPoints(
      &rng, kObjects, pictdb::workload::PaperFrame());
  std::vector<rtree::Entry> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i].mbr = geom::Rect::FromPoint(points[i]);
    entries[i].payload = ObjectPayload(i);
  }
  const GridOracle oracle(points, pictdb::workload::PaperFrame(), 32.0);
  const Queries queries = MakeQueries(args.seed, points, oracle);
  const std::string socket =
      args.data_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  Stack stack;
  std::vector<double> pack_times;
  const double setup_s = MedianSetup(kSetupReps, [&] {
    double pack_s = 0;
    const double s = StartStack(entries, socket, &stack, &pack_s);
    pack_times.push_back(pack_s);
    return s;
  });
  report->Info("tree_pages", static_cast<double>(stack.disk->page_count()));
  report->Info("tree_height", static_cast<double>(stack.tree->Height()));

  const PhaseStats warm =
      RunPhase(stack, queries, socket, args.seed + 1, kWarmupSeconds);
  const uint64_t rejected0 = Rejections(stack);


  TraceToggler toggler(stack.pool.get(), stack.timing.get());
  PhaseStats m = RunPhase(stack, queries, socket, args.seed, args.seconds,
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
                   Ratio(static_cast<double>(stack.disk->page_count()) *
                             kPageSize,
                         static_cast<double>(stack.tree->Size())),
                   "B", stack.tree->Size(), "objects");
  } else {
    const Sliced quiet = SliceMedians(m.all(), m.start_ns, m.seconds, 0);
    const Sliced loud = SliceMedians(m.all(), m.start_ns, m.seconds, 1);
    // Cache hits never reach the pool, so its counters are per executed
    // read.
    ReportPoolCounters(
        report, toggler.quiet(),
        SliceMedians(m.sum.executed_lat, m.start_ns, m.seconds, 0).n,
        "executed reads");
    const double reads = static_cast<double>(m.sum.reads);
    const double executed = static_cast<double>(m.sum.executed);
    report->Metric("pack.build_s", Median(pack_times), "s", kSetupReps,
                   "set-ups");
    report->Metric("rtree.nodes_per_read",
                   Ratio(static_cast<double>(m.sum.nodes), executed), "count",
                   m.sum.executed, "executed reads");
    report->Metric("rtree.entries_per_read",
                   Ratio(static_cast<double>(m.sum.entries), executed),
                   "count", m.sum.executed, "executed reads");
    report->Metric("rtree.hits_per_read",
                   Ratio(static_cast<double>(m.sum.hits), executed), "count",
                   m.sum.executed, "executed reads");
    report->Metric("rtree.batch_nodes_per_window",
                   Ratio(static_cast<double>(m.sum.batch_nodes),
                         static_cast<double>(m.sum.batch_windows)),
                   "count", m.sum.batch_windows, "windows");
    report->Metric("net.cache_hit_ratio",
                   Ratio(static_cast<double>(m.sum.cached), reads), "ratio",
                   m.sum.reads, "reads");
    report->Metric("service.rejected",
                   static_cast<double>(Rejections(stack) - rejected0),
                   "count");
    report->Metric("psql.tuples_per_row",
                   Ratio(static_cast<double>(m.sum.psql_tuples),
                         static_cast<double>(m.sum.psql_rows)),
                   "count", m.sum.psql_rows, "rows");

    const auto spans = trace::Reduce();
    auto get = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? trace::Totals{} : it->second;
    };
    const trace::Totals exec = get("service.exec");
    const trace::Totals call = get("net.client_call");
    const trace::Totals submit = get("service.submit");
    const trace::Totals codec = get("net.codec");
    const trace::Totals parse = get("psql.parse");
    const trace::Totals run = get("psql.exec");
    report->Metric("service.exec_us", exec.mean_ns() / 1000.0, "us",
                   exec.count, "executions");
    report->Metric("service.queue_us", submit.mean_self_ns() / 1000.0, "us",
                   submit.count, "in-process submits");
    report->Metric("net.wire_us", call.mean_self_ns() / 1000.0, "us",
                   call.count, "round trips");
    report->Metric("net.codec_us", codec.mean_ns() / 1000.0, "us",
                   codec.count, "requests");
    report->Metric("psql.parse_us", parse.mean_ns() / 1000.0, "us",
                   parse.count, "queries");
    report->Metric("psql.exec_us", run.mean_ns() / 1000.0, "us", run.count,
                   "queries");
    // The server-side span is the search (plus service dispatch) that
    // the probes' per-node costs explain.
    ReportProbeSpans(report, spans, exec,
                     static_cast<double>(m.sum.traced_nodes));
    ReportTraceOverhead(report, quiet.per_s, loud.per_s, args);
  }
  stack.Close();
  std::remove(socket.c_str());
}

}  // namespace perfbench
