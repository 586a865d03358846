#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <utility>
#include <vector>

namespace pictdb::net {
namespace {

// Signal → drain plumbing. The handler may only touch lock-free atomics
// and write(2); the serving loop of the registered server picks the flag
// up on its next wake. Registration is per-process, latest wins.
std::atomic<Server*> g_signal_server{nullptr};
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_drain{false};

void OnDrainSignal(int /*signo*/) {
  g_signal_drain.store(true, std::memory_order_release);
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = write(fd, &byte, 1);
  }
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed");
  }
  (void)fcntl(fd, F_SETFD, FD_CLOEXEC);
  return Status::OK();
}

WireStats ToWireStats(const service::QueryResult& result) {
  WireStats s;
  s.latency_us = result.latency_us;
  s.nodes_visited = result.stats.nodes_visited;
  s.entries_tested = result.stats.entries_tested;
  s.results = result.stats.results;
  s.skipped_subtrees = result.skipped_subtrees;
  s.degraded = result.degraded;
  return s;
}

WireHit ToWireHit(const rtree::LeafHit& hit) {
  WireHit w;
  w.mbr = hit.mbr;
  w.rid.page_id = hit.rid.page_id;
  w.rid.slot = hit.rid.slot;
  return w;
}

/// Shape the service outcome into the response kind the request implies.
Response BuildQueryResponse(MsgType request_type,
                            const service::QueryResult& result) {
  Response response;
  switch (request_type) {
    case MsgType::kWindow:
    case MsgType::kPoint: {
      HitsResponse body;
      body.stats = ToWireStats(result);
      body.hits.reserve(result.hits.size());
      for (const rtree::LeafHit& hit : result.hits) {
        body.hits.push_back(ToWireHit(hit));
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kKnn: {
      NeighborsResponse body;
      body.stats = ToWireStats(result);
      body.neighbors.reserve(result.neighbors.size());
      for (const rtree::Neighbor& n : result.neighbors) {
        WireNeighbor w;
        w.hit = ToWireHit(n.hit);
        w.distance = n.distance;
        body.neighbors.push_back(w);
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kJoin: {
      JoinResponse body;
      body.stats = ToWireStats(result);
      body.pairs = result.join_pairs;
      response.body = body;
      break;
    }
    case MsgType::kPsql: {
      TableResponse body;
      body.stats = ToWireStats(result);
      if (result.table.has_value()) {
        const psql::ResultSet& table = *result.table;
        body.columns = table.columns;
        body.rows.reserve(table.rows.size());
        for (const auto& row : table.rows) {
          std::vector<std::string> cells;
          cells.reserve(row.size());
          for (const rel::Value& value : row) cells.push_back(value.ToString());
          body.rows.push_back(std::move(cells));
        }
        body.row_rids.reserve(table.row_rids.size());
        for (const auto& rids : table.row_rids) {
          std::vector<WireRid> wire_rids;
          wire_rids.reserve(rids.size());
          for (const storage::Rid& rid : rids) {
            wire_rids.push_back(WireRid{rid.page_id, rid.slot});
          }
          body.row_rids.push_back(std::move(wire_rids));
        }
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kBatchWindow: {
      BatchHitsResponse body;
      body.stats = ToWireStats(result);
      body.per_window.reserve(result.batch.size());
      for (const rtree::BatchHits& bh : result.batch) {
        BatchWindowHits bw;
        bw.degraded = bh.degraded;
        bw.hits.reserve(bh.hits.size());
        for (const rtree::LeafHit& hit : bh.hits) {
          bw.hits.push_back(ToWireHit(hit));
        }
        body.per_window.push_back(std::move(bw));
      }
      response.body = std::move(body);
      break;
    }
    default:
      response.body = ErrorResponse::FromStatus(
          Status::Internal("BuildQueryResponse on non-query type"));
      break;
  }
  return response;
}

}  // namespace

/// Per-client connection state, owned exclusively by the serving thread.
struct Server::Connection {
  Connection(uint64_t id_in, int fd_in, const TokenBucket& bucket_in)
      : id(id_in), fd(fd_in), bucket(bucket_in) {}

  uint64_t id;
  int fd;
  std::string rbuf;               // frame reassembly buffer
  std::deque<std::string> wbuf;   // encoded frames awaiting send
  size_t woff = 0;                // bytes of wbuf.front() already sent
  TokenBucket bucket;
  size_t inflight = 0;            // queries submitted, response not yet out
  bool close_after_flush = false;
};

Server::Server(const Bindings& bindings, const ServerOptions& options)
    : bindings_(bindings),
      options_(options),
      cache_(options.cache_bytes, options.cache_shards) {}

Server::~Server() {
  Stop();
  if (g_signal_server.load(std::memory_order_acquire) == this) {
    InstallSignalHandlers(nullptr);
  }
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  wake_read_fd_ = -1;
  wake_write_fd_ = -1;
}

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already started");
  }
  if (bindings_.service == nullptr) {
    return Status::InvalidArgument("server needs a QueryService");
  }
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (options_.allow_writes) {
    // Every committed mutation makes cached query answers stale; the
    // commit hook runs on the committing worker, after the WAL fsync.
    bindings_.service->SetCommitHook([this] { InvalidateCache(); });
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return Status::IOError("pipe() failed");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  PICTDB_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  PICTDB_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    memcpy(addr.sun_path, options_.unix_path.c_str(),
           options_.unix_path.size() + 1);
    unix_listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) return Status::IOError("socket(AF_UNIX) failed");
    (void)unlink(options_.unix_path.c_str());
    if (bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError("bind(" + options_.unix_path +
                             ") failed: " + strerror(errno));
    }
    if (listen(unix_listen_fd_, 128) != 0) {
      return Status::IOError("listen(unix) failed");
    }
    PICTDB_RETURN_IF_ERROR(SetNonBlocking(unix_listen_fd_));
  }

  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) return Status::IOError("socket(AF_INET) failed");
    const int one = 1;
    (void)setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad tcp host: " + options_.tcp_host);
    }
    if (bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError(std::string("bind(tcp) failed: ") +
                             strerror(errno));
    }
    if (listen(tcp_listen_fd_, 128) != 0) {
      return Status::IOError("listen(tcp) failed");
    }
    PICTDB_RETURN_IF_ERROR(SetNonBlocking(tcp_listen_fd_));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }

  started_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  serve_thread_ = std::thread(&Server::Run, this);
  return Status::OK();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void Server::Join() {
  if (serve_thread_.joinable()) serve_thread_.join();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  RequestDrain();
  Join();
}

void Server::InstallSignalHandlers(Server* server) {
  if (server != nullptr) {
    g_signal_drain.store(false, std::memory_order_release);
    g_signal_wake_fd.store(server->wake_write_fd_, std::memory_order_release);
    g_signal_server.store(server, std::memory_order_release);
    struct sigaction action = {};
    action.sa_handler = OnDrainSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    (void)sigaction(SIGINT, &action, nullptr);
    (void)sigaction(SIGTERM, &action, nullptr);
  } else {
    g_signal_server.store(nullptr, std::memory_order_release);
    g_signal_wake_fd.store(-1, std::memory_order_release);
  }
}

ServerStatsSnapshot Server::Stats() const {
  ServerStatsSnapshot s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  s.backpressure_rejections =
      backpressure_rejections_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.Stats().hits;
  return s;
}

void Server::DumpStats(std::FILE* out) const {
  const ServerStatsSnapshot net = Stats();
  fprintf(out,
          "net: accepted=%llu rejected=%llu frames=%llu proto_errors=%llu "
          "quota_rej=%llu backpressure_rej=%llu\n",
          static_cast<unsigned long long>(net.connections_accepted),
          static_cast<unsigned long long>(net.connections_rejected),
          static_cast<unsigned long long>(net.frames_received),
          static_cast<unsigned long long>(net.protocol_errors),
          static_cast<unsigned long long>(net.quota_rejections),
          static_cast<unsigned long long>(net.backpressure_rejections));
  const ResultCacheStats cache = cache_.Stats();
  fprintf(out,
          "cache: hits=%llu misses=%llu insertions=%llu evictions=%llu "
          "invalidations=%llu bytes=%llu entries=%llu\n",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses),
          static_cast<unsigned long long>(cache.insertions),
          static_cast<unsigned long long>(cache.evictions),
          static_cast<unsigned long long>(cache.invalidations),
          static_cast<unsigned long long>(cache.bytes),
          static_cast<unsigned long long>(cache.entries));
  if (bindings_.service != nullptr) {
    const service::ServiceMetricsSnapshot m = bindings_.service->Metrics();
    fprintf(out,
            "service: submitted=%llu rejected=%llu completed=%llu "
            "failed=%llu deadline=%llu degraded=%llu\n",
            static_cast<unsigned long long>(m.submitted),
            static_cast<unsigned long long>(m.rejected),
            static_cast<unsigned long long>(m.completed),
            static_cast<unsigned long long>(m.failed),
            static_cast<unsigned long long>(m.deadline_exceeded),
            static_cast<unsigned long long>(m.degraded));
    for (size_t v = 0; v < service::kQueryVariants; ++v) {
      fprintf(out, "latency[%s]: %s\n", service::kQueryVariantNames[v],
              m.variant_latency[v].Summary().c_str());
    }
    const service::WriteMetricsSnapshot wm =
        bindings_.service->write_metrics();
    if (wm.committed() + wm.failed + wm.not_found > 0) {
      fprintf(out,
              "writes: inserts=%llu deletes=%llu updates=%llu failed=%llu "
              "not_found=%llu\n",
              static_cast<unsigned long long>(wm.inserts),
              static_cast<unsigned long long>(wm.deletes),
              static_cast<unsigned long long>(wm.updates),
              static_cast<unsigned long long>(wm.failed),
              static_cast<unsigned long long>(wm.not_found));
      fprintf(out, "latency[commit]: %s\n",
              wm.commit_latency.Summary().c_str());
    }
  }
}

void Server::WakeLoop() {
  const int fd = wake_write_fd_;
  if (fd < 0) return;
  const char byte = 'w';
  // A full pipe already guarantees a pending wake; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n = write(fd, &byte, 1);
}

void Server::EnqueueFromWorker(PendingResponse pending) {
  {
    MutexLock lock(&mu_);
    pending_.push_back(std::move(pending));
  }
  WakeLoop();
}

void Server::ApplyPending() {
  std::deque<PendingResponse> batch;
  {
    MutexLock lock(&mu_);
    batch.swap(pending_);
  }
  for (PendingResponse& p : batch) {
    if (p.query_completion && inflight_total_ > 0) --inflight_total_;
    auto it = conns_.find(p.conn_id);
    if (it == conns_.end()) continue;  // client left before the answer
    Connection* conn = it->second.get();
    if (p.query_completion && conn->inflight > 0) --conn->inflight;
    conn->wbuf.push_back(std::move(p.frame));
  }
}

void Server::CloseListeners() {
  if (unix_listen_fd_ >= 0) {
    close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    if (!options_.unix_path.empty()) (void)unlink(options_.unix_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close(it->second->fd);
  // In-flight queries for this connection keep inflight_total_ raised
  // until their callbacks land in ApplyPending (which tolerates the
  // missing conn), so drain still waits for them.
  conns_.erase(it);
}

void Server::AcceptFrom(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept failure: retry next round
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.body = ErrorResponse::FromStatus(
          Status::ResourceExhausted("connection limit reached"));
      const std::string frame = EncodeFrame(
          MsgType::kError, 0, 0, EncodeResponsePayload(response));
      (void)send(fd, frame.data(), frame.size(),
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t id = next_conn_id_++;
    conns_.emplace(
        id, std::make_unique<Connection>(
                id, fd,
                TokenBucket(options_.quota_qps, options_.quota_burst,
                            std::chrono::steady_clock::now())));
  }
}

void Server::ReplyNow(Connection* conn, MsgType type, uint32_t flags,
                      uint32_t request_id, std::string_view payload) {
  conn->wbuf.push_back(EncodeFrame(type, flags, request_id, payload));
}

void Server::ReplyError(Connection* conn, uint32_t request_id,
                        const Status& status) {
  Response response;
  response.body = ErrorResponse::FromStatus(status);
  ReplyNow(conn, MsgType::kError, 0, request_id,
           EncodeResponsePayload(response));
}

StatsResponse Server::BuildStats() const {
  StatsResponse s;
  const service::ServiceMetricsSnapshot m = bindings_.service->Metrics();
  s.submitted = m.submitted;
  s.rejected = m.rejected;
  s.completed = m.completed;
  s.failed = m.failed;
  s.deadline_exceeded = m.deadline_exceeded;
  s.degraded = m.degraded;
  s.variant_latency = m.variant_latency;

  const ResultCacheStats cache = cache_.Stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_insertions = cache.insertions;
  s.cache_evictions = cache.evictions;
  s.cache_invalidations = cache.invalidations;
  s.cache_bytes = cache.bytes;
  s.cache_entries = cache.entries;

  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  s.backpressure_rejections =
      backpressure_rejections_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

void Server::HandleQueryRequest(Connection* conn, const FrameHeader& header,
                                Request request) {
  // Admission layering: quota, then the per-connection in-flight bound.
  // The service's bounded queue is the final gate below.
  if (!conn->bucket.TryAcquire(std::chrono::steady_clock::now())) {
    quota_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::ResourceExhausted("per-client quota exceeded"));
    return;
  }
  if (conn->inflight >= options_.max_inflight_per_conn) {
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::ResourceExhausted("too many in-flight requests"));
    return;
  }

  std::string key = CacheKey(request);
  // Read before the lookup: an answer computed after a miss is cached
  // only if no commit bumped the epoch in between.
  const uint64_t cache_epoch = cache_.epoch();
  std::string cached;  // 1 response-type byte + payload
  if (cache_.Lookup(key, &cached) && !cached.empty()) {
    const MsgType cached_type = static_cast<MsgType>(
        static_cast<uint8_t>(cached[0]));
    ReplyNow(conn, cached_type, kFlagCached, header.request_id,
             std::string_view(cached).substr(1));
    return;
  }

  service::Query query;
  if (const auto* window = std::get_if<WindowRequest>(&request.body)) {
    query = service::WindowQuery{window->window, window->contained_only};
  } else if (const auto* point = std::get_if<PointRequest>(&request.body)) {
    query = service::PointQuery{point->point};
  } else if (const auto* knn = std::get_if<KnnRequest>(&request.body)) {
    query = service::KnnQuery{knn->point, knn->k};
  } else if (const auto* join = std::get_if<JoinRequest>(&request.body)) {
    if (join->overlay != 0 || bindings_.overlay == nullptr) {
      ReplyError(conn, header.request_id,
                 Status::NotFound("no such overlay tree"));
      return;
    }
    query = service::JoinQuery{bindings_.overlay};
  } else if (const auto* psql = std::get_if<PsqlRequest>(&request.body)) {
    query = service::PsqlQuery{psql->text};
  } else if (auto* batch = std::get_if<BatchWindowRequest>(&request.body)) {
    query = service::BatchWindowQuery{std::move(batch->windows),
                                      batch->contained_only};
  } else {
    ReplyError(conn, header.request_id,
               Status::Internal("non-query request routed as query"));
    return;
  }

  service::QueryOptions query_options;
  query_options.timeout =
      std::chrono::microseconds(request.options.timeout_us);
  query_options.degraded_ok = request.options.degraded_ok;

  ++conn->inflight;
  ++inflight_total_;
  const uint64_t conn_id = conn->id;
  const uint32_t request_id = header.request_id;
  const MsgType request_type = header.type;
  const Status submit_status = bindings_.service->SubmitWithCallback(
      std::move(query), query_options,
      [this, conn_id, request_id, request_type, cache_epoch,
       key = std::move(key)](StatusOr<service::QueryResult> outcome) {
        PendingResponse pending;
        pending.conn_id = conn_id;
        pending.query_completion = true;
        if (!outcome.ok()) {
          Response response;
          response.body = ErrorResponse::FromStatus(outcome.status());
          pending.frame = EncodeFrame(MsgType::kError, 0, request_id,
                                      EncodeResponsePayload(response));
        } else {
          const service::QueryResult& result = *outcome;
          const Response response = BuildQueryResponse(request_type, result);
          const std::string payload = EncodeResponsePayload(response);
          const MsgType response_type = ResponseMsgType(response);
          if (!result.degraded && payload.size() < kMaxPayloadBytes) {
            // Cache only complete OK answers, with the response type
            // prefixed so a hit can replay the exact frame.
            std::string value;
            value.reserve(payload.size() + 1);
            value.push_back(static_cast<char>(response_type));
            value.append(payload);
            cache_.Insert(key, value, cache_epoch);
          }
          pending.frame =
              EncodeFrame(response_type,
                          result.degraded ? kFlagDegraded : 0u, request_id,
                          payload);
        }
        EnqueueFromWorker(std::move(pending));
      });
  if (!submit_status.ok()) {
    // Rejected at the service's bounded admission queue (the last
    // backpressure layer): undo accounting and shed with the same
    // structured ResourceExhausted the other layers use.
    --conn->inflight;
    --inflight_total_;
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, request_id, submit_status);
  }
}

void Server::HandleWriteRequest(Connection* conn, const FrameHeader& header,
                                const Request& request) {
  // Writes share the query admission layers: quota, per-connection
  // in-flight bound, then the service's bounded queue.
  if (!conn->bucket.TryAcquire(std::chrono::steady_clock::now())) {
    quota_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::ResourceExhausted("per-client quota exceeded"));
    return;
  }
  if (conn->inflight >= options_.max_inflight_per_conn) {
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::ResourceExhausted("too many in-flight requests"));
    return;
  }

  service::WriteOp op;
  if (const auto* ins = std::get_if<InsertRequest>(&request.body)) {
    op = service::InsertOp{ins->mbr,
                           storage::Rid{ins->rid.page_id, ins->rid.slot}};
  } else if (const auto* del = std::get_if<DeleteRequest>(&request.body)) {
    op = service::DeleteOp{del->mbr,
                           storage::Rid{del->rid.page_id, del->rid.slot}};
  } else if (const auto* upd = std::get_if<UpdateRequest>(&request.body)) {
    op = service::UpdateOp{
        upd->old_mbr, storage::Rid{upd->old_rid.page_id, upd->old_rid.slot},
        upd->new_mbr, storage::Rid{upd->new_rid.page_id, upd->new_rid.slot}};
  } else {
    ReplyError(conn, header.request_id,
               Status::Internal("non-write request routed as write"));
    return;
  }

  ++conn->inflight;
  ++inflight_total_;
  const uint64_t conn_id = conn->id;
  const uint32_t request_id = header.request_id;
  const Status submit_status = bindings_.service->SubmitWriteWithCallback(
      std::move(op), [this, conn_id, request_id](Status outcome) {
        // The kOk frame is only built after ExecuteWrite returned, i.e.
        // after the WAL append + fsync: an acked write is durable.
        PendingResponse pending;
        pending.conn_id = conn_id;
        pending.query_completion = true;
        Response response;
        if (outcome.ok()) {
          response.body = OkResponse{};
          pending.frame = EncodeFrame(MsgType::kOk, 0, request_id,
                                      EncodeResponsePayload(response));
        } else {
          response.body = ErrorResponse::FromStatus(outcome);
          pending.frame = EncodeFrame(MsgType::kError, 0, request_id,
                                      EncodeResponsePayload(response));
        }
        EnqueueFromWorker(std::move(pending));
      });
  if (!submit_status.ok()) {
    --conn->inflight;
    --inflight_total_;
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, request_id, submit_status);
  }
}

void Server::HandleFrame(Connection* conn, const FrameHeader& header,
                         std::string_view payload) {
  if (!IsRequestType(header.type)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::InvalidArgument("response-typed frame sent to server"));
    conn->close_after_flush = true;
    return;
  }
  StatusOr<Request> decoded = DecodeRequestPayload(header.type, payload);
  if (!decoded.ok()) {
    // The frame itself was well-formed, so the stream is still in sync:
    // reply with a structured error and keep the connection.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id, decoded.status());
    return;
  }
  Request request = std::move(decoded).value();

  switch (header.type) {
    case MsgType::kPing: {
      Response response;
      response.body = PongResponse{};
      ReplyNow(conn, MsgType::kPong, 0, header.request_id,
               EncodeResponsePayload(response));
      return;
    }
    case MsgType::kStats: {
      Response response;
      response.body = BuildStats();
      ReplyNow(conn, MsgType::kStatsResult, 0, header.request_id,
               EncodeResponsePayload(response));
      return;
    }
    case MsgType::kSetFaults: {
      if (!options_.allow_admin || bindings_.fault_disk == nullptr) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("admin commands disabled"));
        return;
      }
      const auto& faults = std::get<SetFaultsRequest>(request.body);
      if (faults.transient_read_error_rate == 0.0 &&
          faults.read_bit_flip_rate == 0.0) {
        bindings_.fault_disk->ClearFaults();
      } else {
        storage::FaultPlan plan;
        plan.transient_read_error_rate = faults.transient_read_error_rate;
        plan.read_bit_flip_rate = faults.read_bit_flip_rate;
        bindings_.fault_disk->SetPlan(plan);
      }
      Response response;
      response.body = OkResponse{};
      ReplyNow(conn, MsgType::kOk, 0, header.request_id,
               EncodeResponsePayload(response));
      return;
    }
    case MsgType::kInvalidate: {
      if (!options_.allow_admin) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("admin commands disabled"));
        return;
      }
      cache_.BumpEpoch();
      Response response;
      response.body = OkResponse{};
      ReplyNow(conn, MsgType::kOk, 0, header.request_id,
               EncodeResponsePayload(response));
      return;
    }
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kUpdate: {
      if (!options_.allow_writes) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("writes disabled on this server"));
        return;
      }
      HandleWriteRequest(conn, header, request);
      return;
    }
    default:
      HandleQueryRequest(conn, header, std::move(request));
      return;
  }
}

bool Server::ReadConnection(Connection* conn) {
  bool peer_closed = false;
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard socket error
  }

  while (conn->rbuf.size() >= kFrameHeaderSize && !conn->close_after_flush) {
    FrameHeader header;
    const Status header_status =
        DecodeFrameHeader(std::string_view(conn->rbuf), &header);
    if (!header_status.ok()) {
      // Bad magic/version/type/length: the stream can never resync, so
      // answer with a structured error and close once it is flushed.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ReplyError(conn, 0, header_status);
      conn->close_after_flush = true;
      break;
    }
    const size_t frame_size = kFrameHeaderSize + header.payload_len;
    if (conn->rbuf.size() < frame_size) break;  // wait for the payload
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    const std::string_view payload =
        std::string_view(conn->rbuf).substr(kFrameHeaderSize,
                                            header.payload_len);
    HandleFrame(conn, header, payload);
    conn->rbuf.erase(0, frame_size);
  }
  return !peer_closed;
}

bool Server::FlushConnection(Connection* conn) {
  while (!conn->wbuf.empty()) {
    const std::string& front = conn->wbuf.front();
    const ssize_t n = send(conn->fd, front.data() + conn->woff,
                           front.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<size_t>(n);
      if (conn->woff == front.size()) {
        conn->wbuf.pop_front();
        conn->woff = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  return !conn->close_after_flush;
}

void Server::Run() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn_ids;  // parallel to pfds; 0 = not a conn
  bool listeners_open = true;

  for (;;) {
    if (g_signal_server.load(std::memory_order_acquire) == this &&
        g_signal_drain.load(std::memory_order_acquire)) {
      drain_requested_.store(true, std::memory_order_release);
    }
    const bool draining = drain_requested_.load(std::memory_order_acquire);
    if (draining && listeners_open) {
      CloseListeners();
      listeners_open = false;
    }

    ApplyPending();

    if (draining) {
      // Admitted queries finish through the service; once every response
      // is out the door we are done.
      bool all_flushed = inflight_total_ == 0;
      for (const auto& [id, conn] : conns_) {
        if (!conn->wbuf.empty()) {
          all_flushed = false;
          break;
        }
      }
      if (all_flushed) break;
    }

    pfds.clear();
    pfd_conn_ids.clear();
    pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    pfd_conn_ids.push_back(0);
    if (listeners_open) {
      if (unix_listen_fd_ >= 0) {
        pfds.push_back(pollfd{unix_listen_fd_, POLLIN, 0});
        pfd_conn_ids.push_back(0);
      }
      if (tcp_listen_fd_ >= 0) {
        pfds.push_back(pollfd{tcp_listen_fd_, POLLIN, 0});
        pfd_conn_ids.push_back(0);
      }
    }
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      if (!draining && !conn->close_after_flush) events |= POLLIN;
      if (!conn->wbuf.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
      pfd_conn_ids.push_back(id);
    }

    const int ready = poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed

    std::vector<uint64_t> to_close;
    for (size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& p = pfds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_read_fd_) {
        char drain_buf[256];
        while (read(wake_read_fd_, drain_buf, sizeof(drain_buf)) > 0) {
        }
        continue;
      }
      if (p.fd == unix_listen_fd_ || p.fd == tcp_listen_fd_) {
        AcceptFrom(p.fd);
        continue;
      }
      const uint64_t conn_id = pfd_conn_ids[i];
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      bool keep = true;
      if (p.revents & (POLLERR | POLLNVAL)) keep = false;
      if (keep && (p.revents & POLLIN)) keep = ReadConnection(conn);
      if (keep && (p.revents & (POLLOUT | POLLHUP)) &&
          !conn->wbuf.empty()) {
        keep = FlushConnection(conn);
      }
      if (keep && conn->close_after_flush && conn->wbuf.empty()) {
        keep = false;
      }
      if (keep && (p.revents & POLLHUP) && conn->wbuf.empty()) keep = false;
      if (!keep) to_close.push_back(conn_id);
    }
    for (const uint64_t id : to_close) CloseConnection(id);

    // Opportunistic flush for responses enqueued by ApplyPending or
    // HandleFrame this round (the sockets are almost always writable).
    std::vector<uint64_t> flush_failed;
    for (const auto& [id, conn] : conns_) {
      if (conn->wbuf.empty()) {
        if (conn->close_after_flush) flush_failed.push_back(id);
        continue;
      }
      if (!FlushConnection(conn.get())) flush_failed.push_back(id);
    }
    for (const uint64_t id : flush_failed) CloseConnection(id);
  }

  // Drained: everything admitted has been answered and flushed. The
  // wake pipe stays open until the destructor — late worker callbacks
  // may still write it.
  for (const auto& [id, conn] : conns_) close(conn->fd);
  conns_.clear();
  CloseListeners();
  running_.store(false, std::memory_order_release);
}

}  // namespace pictdb::net
