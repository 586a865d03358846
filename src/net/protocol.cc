#include "net/protocol.h"

#include <cmath>
#include <utility>

#include "net/wire.h"

namespace pictdb::net {

namespace {

// Caps on declared element counts, all well under kMaxPayloadBytes so a
// hostile length prefix cannot drive a large allocation before the
// payload-size check would have caught it.
constexpr size_t kMaxPsqlTextBytes = 64 * 1024;
constexpr size_t kMaxStringBytes = 64 * 1024;
constexpr size_t kMaxListElements = 1u << 20;

void PutRect(ByteWriter* w, const geom::Rect& r) {
  w->PutDouble(r.lo.x);
  w->PutDouble(r.lo.y);
  w->PutDouble(r.hi.x);
  w->PutDouble(r.hi.y);
}

StatusOr<geom::Rect> ReadRect(ByteReader* r) {
  geom::Rect out;
  PICTDB_ASSIGN_OR_RETURN(out.lo.x, r->Double());
  PICTDB_ASSIGN_OR_RETURN(out.lo.y, r->Double());
  PICTDB_ASSIGN_OR_RETURN(out.hi.x, r->Double());
  PICTDB_ASSIGN_OR_RETURN(out.hi.y, r->Double());
  return out;
}

Status CheckFiniteRect(const geom::Rect& r, const char* what) {
  if (!std::isfinite(r.lo.x) || !std::isfinite(r.lo.y) ||
      !std::isfinite(r.hi.x) || !std::isfinite(r.hi.y)) {
    return Status::InvalidArgument(std::string(what) +
                                   " has non-finite coordinates");
  }
  return Status::OK();
}

Status CheckFinitePoint(const geom::Point& p, const char* what) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    return Status::InvalidArgument(std::string(what) +
                                   " has non-finite coordinates");
  }
  return Status::OK();
}

void PutPoint(ByteWriter* w, const geom::Point& p) {
  w->PutDouble(p.x);
  w->PutDouble(p.y);
}

StatusOr<geom::Point> ReadPoint(ByteReader* r) {
  geom::Point out;
  PICTDB_ASSIGN_OR_RETURN(out.x, r->Double());
  PICTDB_ASSIGN_OR_RETURN(out.y, r->Double());
  return out;
}

void PutOptions(ByteWriter* w, const WireOptions& o) {
  w->PutU64(o.timeout_us);
  w->PutU8(o.degraded_ok ? 1 : 0);
}

StatusOr<WireOptions> ReadOptions(ByteReader* r) {
  WireOptions o;
  PICTDB_ASSIGN_OR_RETURN(o.timeout_us, r->U64());
  PICTDB_ASSIGN_OR_RETURN(const uint8_t degraded, r->U8());
  if (degraded > 1) {
    return Status::InvalidArgument("degraded_ok flag must be 0 or 1");
  }
  o.degraded_ok = degraded != 0;
  return o;
}

void PutStats(ByteWriter* w, const WireStats& s) {
  w->PutU64(s.latency_us);
  w->PutU64(s.nodes_visited);
  w->PutU64(s.entries_tested);
  w->PutU64(s.results);
  w->PutU64(s.skipped_subtrees);
  w->PutU8(s.degraded ? 1 : 0);
}

StatusOr<WireStats> ReadStats(ByteReader* r) {
  WireStats s;
  PICTDB_ASSIGN_OR_RETURN(s.latency_us, r->U64());
  PICTDB_ASSIGN_OR_RETURN(s.nodes_visited, r->U64());
  PICTDB_ASSIGN_OR_RETURN(s.entries_tested, r->U64());
  PICTDB_ASSIGN_OR_RETURN(s.results, r->U64());
  PICTDB_ASSIGN_OR_RETURN(s.skipped_subtrees, r->U64());
  PICTDB_ASSIGN_OR_RETURN(const uint8_t degraded, r->U8());
  s.degraded = degraded != 0;
  return s;
}

void PutWireRid(ByteWriter* w, const WireRid& rid) {
  w->PutU32(rid.page_id);
  w->PutU16(rid.slot);
}

StatusOr<WireRid> ReadWireRid(ByteReader* r) {
  WireRid rid;
  PICTDB_ASSIGN_OR_RETURN(rid.page_id, r->U32());
  PICTDB_ASSIGN_OR_RETURN(rid.slot, r->U16());
  return rid;
}

void PutHit(ByteWriter* w, const WireHit& h) {
  PutRect(w, h.mbr);
  w->PutU32(h.rid.page_id);
  w->PutU16(h.rid.slot);
}

StatusOr<WireHit> ReadHit(ByteReader* r) {
  WireHit h;
  PICTDB_ASSIGN_OR_RETURN(h.mbr, ReadRect(r));
  PICTDB_ASSIGN_OR_RETURN(h.rid.page_id, r->U32());
  PICTDB_ASSIGN_OR_RETURN(h.rid.slot, r->U16());
  return h;
}

StatusOr<uint32_t> ReadCount(ByteReader* r, size_t max) {
  PICTDB_ASSIGN_OR_RETURN(const uint32_t n, r->U32());
  if (n > max) {
    return Status::InvalidArgument("wire list length exceeds limit");
  }
  // A count implying more bytes than remain is rejected up front so a
  // tiny frame cannot reserve an enormous vector.
  if (n > r->remaining()) {
    return Status::InvalidArgument("wire list length exceeds payload");
  }
  return n;
}

void PutHistogram(ByteWriter* w, const service::HistogramSnapshot& h) {
  w->PutU64(h.sum);
  w->PutU64(h.max);
  w->PutU32(static_cast<uint32_t>(h.counts.size()));
  for (uint64_t c : h.counts) w->PutU64(c);
}

StatusOr<service::HistogramSnapshot> ReadHistogram(ByteReader* r) {
  service::HistogramSnapshot h;
  PICTDB_ASSIGN_OR_RETURN(h.sum, r->U64());
  PICTDB_ASSIGN_OR_RETURN(h.max, r->U64());
  PICTDB_ASSIGN_OR_RETURN(const uint32_t n, r->U32());
  if (n != h.counts.size()) {
    return Status::InvalidArgument("histogram bucket count mismatch");
  }
  for (size_t i = 0; i < h.counts.size(); ++i) {
    PICTDB_ASSIGN_OR_RETURN(h.counts[i], r->U64());
  }
  return h;
}

}  // namespace

bool IsKnownMsgType(uint8_t type) {
  return (type >= static_cast<uint8_t>(MsgType::kWindow) &&
          type <= static_cast<uint8_t>(MsgType::kBatchWindow)) ||
         (type >= static_cast<uint8_t>(MsgType::kHits) &&
          type <= static_cast<uint8_t>(MsgType::kBatchHits));
}

bool IsRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return t >= static_cast<uint8_t>(MsgType::kWindow) &&
         t <= static_cast<uint8_t>(MsgType::kBatchWindow);
}

bool IsWriteRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return t >= static_cast<uint8_t>(MsgType::kInsert) &&
         t <= static_cast<uint8_t>(MsgType::kUpdate);
}

bool IsQueryRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return (t >= static_cast<uint8_t>(MsgType::kWindow) &&
          t <= static_cast<uint8_t>(MsgType::kPsql)) ||
         type == MsgType::kBatchWindow;
}

std::string EncodeFrame(MsgType type, uint32_t flags, uint32_t request_id,
                        std::string_view payload) {
  ByteWriter w;
  w.PutU16(kMagic);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(flags);
  w.PutU32(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutBytes(payload);
  return w.Take();
}

Status DecodeFrameHeader(std::string_view bytes, FrameHeader* out) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("frame header truncated");
  }
  ByteReader r(bytes.substr(0, kFrameHeaderSize));
  PICTDB_ASSIGN_OR_RETURN(out->magic, r.U16());
  if (out->magic != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  PICTDB_ASSIGN_OR_RETURN(out->version, r.U8());
  if (out->version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  PICTDB_ASSIGN_OR_RETURN(const uint8_t type, r.U8());
  if (!IsKnownMsgType(type)) {
    return Status::InvalidArgument("unknown message type");
  }
  out->type = static_cast<MsgType>(type);
  PICTDB_ASSIGN_OR_RETURN(out->flags, r.U32());
  PICTDB_ASSIGN_OR_RETURN(out->request_id, r.U32());
  PICTDB_ASSIGN_OR_RETURN(out->payload_len, r.U32());
  if (out->payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds size limit");
  }
  return Status::OK();
}

MsgType RequestMsgType(const Request& request) {
  struct Visitor {
    MsgType operator()(const WindowRequest&) { return MsgType::kWindow; }
    MsgType operator()(const PointRequest&) { return MsgType::kPoint; }
    MsgType operator()(const KnnRequest&) { return MsgType::kKnn; }
    MsgType operator()(const JoinRequest&) { return MsgType::kJoin; }
    MsgType operator()(const PsqlRequest&) { return MsgType::kPsql; }
    MsgType operator()(const PingRequest&) { return MsgType::kPing; }
    MsgType operator()(const StatsRequest&) { return MsgType::kStats; }
    MsgType operator()(const SetFaultsRequest&) {
      return MsgType::kSetFaults;
    }
    MsgType operator()(const InvalidateRequest&) {
      return MsgType::kInvalidate;
    }
    MsgType operator()(const InsertRequest&) { return MsgType::kInsert; }
    MsgType operator()(const DeleteRequest&) { return MsgType::kDelete; }
    MsgType operator()(const UpdateRequest&) { return MsgType::kUpdate; }
    MsgType operator()(const BatchWindowRequest&) {
      return MsgType::kBatchWindow;
    }
  };
  return std::visit(Visitor{}, request.body);
}

std::string EncodeRequestPayload(const Request& request) {
  ByteWriter w;
  struct Visitor {
    ByteWriter* w;
    const WireOptions* options;
    void operator()(const WindowRequest& q) {
      PutOptions(w, *options);
      PutRect(w, q.window);
      w->PutU8(q.contained_only ? 1 : 0);
    }
    void operator()(const PointRequest& q) {
      PutOptions(w, *options);
      PutPoint(w, q.point);
    }
    void operator()(const KnnRequest& q) {
      PutOptions(w, *options);
      PutPoint(w, q.point);
      w->PutU32(q.k);
    }
    void operator()(const JoinRequest& q) {
      PutOptions(w, *options);
      w->PutU32(q.overlay);
    }
    void operator()(const PsqlRequest& q) {
      PutOptions(w, *options);
      w->PutString(q.text);
    }
    void operator()(const PingRequest&) {}
    void operator()(const StatsRequest&) {}
    void operator()(const SetFaultsRequest& q) {
      w->PutDouble(q.transient_read_error_rate);
      w->PutDouble(q.read_bit_flip_rate);
    }
    void operator()(const InvalidateRequest&) {}
    void operator()(const InsertRequest& q) {
      PutRect(w, q.mbr);
      PutWireRid(w, q.rid);
    }
    void operator()(const DeleteRequest& q) {
      PutRect(w, q.mbr);
      PutWireRid(w, q.rid);
    }
    void operator()(const UpdateRequest& q) {
      PutRect(w, q.old_mbr);
      PutWireRid(w, q.old_rid);
      PutRect(w, q.new_mbr);
      PutWireRid(w, q.new_rid);
    }
    void operator()(const BatchWindowRequest& q) {
      PutOptions(w, *options);
      w->PutU8(q.contained_only ? 1 : 0);
      w->PutU32(static_cast<uint32_t>(q.windows.size()));
      for (const geom::Rect& win : q.windows) PutRect(w, win);
    }
  };
  std::visit(Visitor{&w, &request.options}, request.body);
  return w.Take();
}

StatusOr<Request> DecodeRequestPayload(MsgType type,
                                       std::string_view payload) {
  ByteReader r(payload);
  Request out;
  switch (type) {
    case MsgType::kWindow: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      WindowRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.window, ReadRect(&r));
      PICTDB_RETURN_IF_ERROR(CheckFiniteRect(q.window, "window"));
      PICTDB_ASSIGN_OR_RETURN(const uint8_t contained, r.U8());
      if (contained > 1) {
        return Status::InvalidArgument("contained flag must be 0 or 1");
      }
      q.contained_only = contained != 0;
      out.body = q;
      break;
    }
    case MsgType::kPoint: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      PointRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.point, ReadPoint(&r));
      PICTDB_RETURN_IF_ERROR(CheckFinitePoint(q.point, "point"));
      out.body = q;
      break;
    }
    case MsgType::kKnn: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      KnnRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.point, ReadPoint(&r));
      PICTDB_RETURN_IF_ERROR(CheckFinitePoint(q.point, "knn point"));
      PICTDB_ASSIGN_OR_RETURN(q.k, r.U32());
      if (q.k > kMaxListElements) {
        return Status::InvalidArgument("knn k exceeds limit");
      }
      out.body = q;
      break;
    }
    case MsgType::kJoin: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      JoinRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.overlay, r.U32());
      out.body = q;
      break;
    }
    case MsgType::kPsql: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      PsqlRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.text, r.String(kMaxPsqlTextBytes));
      out.body = std::move(q);
      break;
    }
    case MsgType::kPing:
      out.body = PingRequest{};
      break;
    case MsgType::kStats:
      out.body = StatsRequest{};
      break;
    case MsgType::kSetFaults: {
      SetFaultsRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.transient_read_error_rate, r.Double());
      PICTDB_ASSIGN_OR_RETURN(q.read_bit_flip_rate, r.Double());
      if (!(q.transient_read_error_rate >= 0.0 &&
            q.transient_read_error_rate <= 1.0) ||
          !(q.read_bit_flip_rate >= 0.0 && q.read_bit_flip_rate <= 1.0)) {
        return Status::InvalidArgument("fault rates must be in [0,1]");
      }
      out.body = q;
      break;
    }
    case MsgType::kInvalidate:
      out.body = InvalidateRequest{};
      break;
    case MsgType::kInsert: {
      InsertRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.mbr, ReadRect(&r));
      PICTDB_RETURN_IF_ERROR(CheckFiniteRect(q.mbr, "insert mbr"));
      PICTDB_ASSIGN_OR_RETURN(q.rid, ReadWireRid(&r));
      out.body = q;
      break;
    }
    case MsgType::kDelete: {
      DeleteRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.mbr, ReadRect(&r));
      PICTDB_RETURN_IF_ERROR(CheckFiniteRect(q.mbr, "delete mbr"));
      PICTDB_ASSIGN_OR_RETURN(q.rid, ReadWireRid(&r));
      out.body = q;
      break;
    }
    case MsgType::kUpdate: {
      UpdateRequest q;
      PICTDB_ASSIGN_OR_RETURN(q.old_mbr, ReadRect(&r));
      PICTDB_RETURN_IF_ERROR(CheckFiniteRect(q.old_mbr, "update old mbr"));
      PICTDB_ASSIGN_OR_RETURN(q.old_rid, ReadWireRid(&r));
      PICTDB_ASSIGN_OR_RETURN(q.new_mbr, ReadRect(&r));
      PICTDB_RETURN_IF_ERROR(CheckFiniteRect(q.new_mbr, "update new mbr"));
      PICTDB_ASSIGN_OR_RETURN(q.new_rid, ReadWireRid(&r));
      out.body = q;
      break;
    }
    case MsgType::kBatchWindow: {
      PICTDB_ASSIGN_OR_RETURN(out.options, ReadOptions(&r));
      BatchWindowRequest q;
      PICTDB_ASSIGN_OR_RETURN(const uint8_t contained, r.U8());
      if (contained > 1) {
        return Status::InvalidArgument("contained flag must be 0 or 1");
      }
      q.contained_only = contained != 0;
      PICTDB_ASSIGN_OR_RETURN(const uint32_t n,
                              ReadCount(&r, kMaxListElements));
      q.windows.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        geom::Rect win;
        PICTDB_ASSIGN_OR_RETURN(win, ReadRect(&r));
        PICTDB_RETURN_IF_ERROR(CheckFiniteRect(win, "batch window"));
        q.windows.push_back(win);
      }
      out.body = std::move(q);
      break;
    }
    default:
      return Status::InvalidArgument("not a request message type");
  }
  PICTDB_RETURN_IF_ERROR(r.ExpectEnd());
  // GCC 12 falsely flags the variant's inactive-alternative bytes as
  // "maybe uninitialized" when `out` is moved into the StatusOr.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  return out;
#pragma GCC diagnostic pop
}

std::string CacheKey(const Request& request) {
  const MsgType type = RequestMsgType(request);
  if (!IsQueryRequestType(type)) return std::string();
  Request canonical = request;
  canonical.options.timeout_us = 0;  // deadline does not change the answer
  std::string key(1, static_cast<char>(type));
  key += EncodeRequestPayload(canonical);
  return key;
}

Status ErrorResponse::ToStatus() const {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
  }
  return Status::Internal("unknown wire status code: " + message);
}

ErrorResponse ErrorResponse::FromStatus(const Status& status) {
  ErrorResponse e;
  e.code = static_cast<uint32_t>(status.code());
  e.message = status.message();
  return e;
}

MsgType ResponseMsgType(const Response& response) {
  struct Visitor {
    MsgType operator()(const HitsResponse&) { return MsgType::kHits; }
    MsgType operator()(const NeighborsResponse&) {
      return MsgType::kNeighbors;
    }
    MsgType operator()(const JoinResponse&) { return MsgType::kJoinResult; }
    MsgType operator()(const TableResponse&) { return MsgType::kTable; }
    MsgType operator()(const PongResponse&) { return MsgType::kPong; }
    MsgType operator()(const StatsResponse&) {
      return MsgType::kStatsResult;
    }
    MsgType operator()(const OkResponse&) { return MsgType::kOk; }
    MsgType operator()(const ErrorResponse&) { return MsgType::kError; }
    MsgType operator()(const BatchHitsResponse&) {
      return MsgType::kBatchHits;
    }
  };
  return std::visit(Visitor{}, response.body);
}

std::string EncodeResponsePayload(const Response& response) {
  ByteWriter w;
  struct Visitor {
    ByteWriter* w;
    void operator()(const HitsResponse& resp) {
      PutStats(w, resp.stats);
      w->PutU32(static_cast<uint32_t>(resp.hits.size()));
      for (const WireHit& h : resp.hits) PutHit(w, h);
    }
    void operator()(const NeighborsResponse& resp) {
      PutStats(w, resp.stats);
      w->PutU32(static_cast<uint32_t>(resp.neighbors.size()));
      for (const WireNeighbor& n : resp.neighbors) {
        PutHit(w, n.hit);
        w->PutDouble(n.distance);
      }
    }
    void operator()(const JoinResponse& resp) {
      PutStats(w, resp.stats);
      w->PutU64(resp.pairs);
    }
    void operator()(const TableResponse& resp) {
      PutStats(w, resp.stats);
      w->PutU32(static_cast<uint32_t>(resp.columns.size()));
      for (const std::string& c : resp.columns) w->PutString(c);
      w->PutU32(static_cast<uint32_t>(resp.rows.size()));
      for (size_t i = 0; i < resp.rows.size(); ++i) {
        for (const std::string& cell : resp.rows[i]) w->PutString(cell);
        const auto& rids =
            i < resp.row_rids.size() ? resp.row_rids[i]
                                     : std::vector<WireRid>{};
        w->PutU32(static_cast<uint32_t>(rids.size()));
        for (const WireRid& rid : rids) {
          w->PutU32(rid.page_id);
          w->PutU16(rid.slot);
        }
      }
    }
    void operator()(const PongResponse&) {}
    void operator()(const StatsResponse& resp) {
      w->PutU64(resp.submitted);
      w->PutU64(resp.rejected);
      w->PutU64(resp.completed);
      w->PutU64(resp.failed);
      w->PutU64(resp.deadline_exceeded);
      w->PutU64(resp.degraded);
      w->PutU32(static_cast<uint32_t>(resp.variant_latency.size()));
      for (const auto& h : resp.variant_latency) PutHistogram(w, h);
      w->PutU64(resp.cache_hits);
      w->PutU64(resp.cache_misses);
      w->PutU64(resp.cache_insertions);
      w->PutU64(resp.cache_evictions);
      w->PutU64(resp.cache_invalidations);
      w->PutU64(resp.cache_bytes);
      w->PutU64(resp.cache_entries);
      w->PutU64(resp.connections_accepted);
      w->PutU64(resp.connections_rejected);
      w->PutU64(resp.quota_rejections);
      w->PutU64(resp.backpressure_rejections);
      w->PutU64(resp.frames_received);
      w->PutU64(resp.protocol_errors);
    }
    void operator()(const OkResponse&) {}
    void operator()(const ErrorResponse& resp) {
      w->PutU32(resp.code);
      w->PutString(resp.message);
    }
    void operator()(const BatchHitsResponse& resp) {
      PutStats(w, resp.stats);
      w->PutU32(static_cast<uint32_t>(resp.per_window.size()));
      for (const BatchWindowHits& bw : resp.per_window) {
        w->PutU8(bw.degraded ? 1 : 0);
        w->PutU32(static_cast<uint32_t>(bw.hits.size()));
        for (const WireHit& h : bw.hits) PutHit(w, h);
      }
    }
  };
  std::visit(Visitor{&w}, response.body);
  return w.Take();
}

StatusOr<Response> DecodeResponsePayload(MsgType type,
                                         std::string_view payload) {
  ByteReader r(payload);
  Response out;
  switch (type) {
    case MsgType::kHits: {
      HitsResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.stats, ReadStats(&r));
      PICTDB_ASSIGN_OR_RETURN(const uint32_t n,
                              ReadCount(&r, kMaxListElements));
      resp.hits.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        PICTDB_ASSIGN_OR_RETURN(WireHit h, ReadHit(&r));
        resp.hits.push_back(h);
      }
      out.body = std::move(resp);
      break;
    }
    case MsgType::kNeighbors: {
      NeighborsResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.stats, ReadStats(&r));
      PICTDB_ASSIGN_OR_RETURN(const uint32_t n,
                              ReadCount(&r, kMaxListElements));
      resp.neighbors.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        WireNeighbor nb;
        PICTDB_ASSIGN_OR_RETURN(nb.hit, ReadHit(&r));
        PICTDB_ASSIGN_OR_RETURN(nb.distance, r.Double());
        resp.neighbors.push_back(nb);
      }
      out.body = std::move(resp);
      break;
    }
    case MsgType::kJoinResult: {
      JoinResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.stats, ReadStats(&r));
      PICTDB_ASSIGN_OR_RETURN(resp.pairs, r.U64());
      out.body = resp;
      break;
    }
    case MsgType::kTable: {
      TableResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.stats, ReadStats(&r));
      PICTDB_ASSIGN_OR_RETURN(const uint32_t ncols,
                              ReadCount(&r, kMaxListElements));
      resp.columns.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        PICTDB_ASSIGN_OR_RETURN(std::string c, r.String(kMaxStringBytes));
        resp.columns.push_back(std::move(c));
      }
      PICTDB_ASSIGN_OR_RETURN(const uint32_t nrows,
                              ReadCount(&r, kMaxListElements));
      resp.rows.reserve(nrows);
      resp.row_rids.reserve(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        std::vector<std::string> row;
        row.reserve(ncols);
        for (uint32_t c = 0; c < ncols; ++c) {
          PICTDB_ASSIGN_OR_RETURN(std::string cell,
                                  r.String(kMaxStringBytes));
          row.push_back(std::move(cell));
        }
        resp.rows.push_back(std::move(row));
        PICTDB_ASSIGN_OR_RETURN(const uint32_t nrids,
                                ReadCount(&r, kMaxListElements));
        std::vector<WireRid> rids;
        rids.reserve(nrids);
        for (uint32_t j = 0; j < nrids; ++j) {
          WireRid rid;
          PICTDB_ASSIGN_OR_RETURN(rid.page_id, r.U32());
          PICTDB_ASSIGN_OR_RETURN(rid.slot, r.U16());
          rids.push_back(rid);
        }
        resp.row_rids.push_back(std::move(rids));
      }
      out.body = std::move(resp);
      break;
    }
    case MsgType::kPong:
      out.body = PongResponse{};
      break;
    case MsgType::kStatsResult: {
      StatsResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.submitted, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.rejected, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.completed, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.failed, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.deadline_exceeded, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.degraded, r.U64());
      PICTDB_ASSIGN_OR_RETURN(const uint32_t nvariants, r.U32());
      if (nvariants != resp.variant_latency.size()) {
        return Status::InvalidArgument("variant histogram count mismatch");
      }
      for (auto& h : resp.variant_latency) {
        PICTDB_ASSIGN_OR_RETURN(h, ReadHistogram(&r));
      }
      PICTDB_ASSIGN_OR_RETURN(resp.cache_hits, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_misses, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_insertions, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_evictions, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_invalidations, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_bytes, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.cache_entries, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.connections_accepted, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.connections_rejected, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.quota_rejections, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.backpressure_rejections, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.frames_received, r.U64());
      PICTDB_ASSIGN_OR_RETURN(resp.protocol_errors, r.U64());
      out.body = resp;
      break;
    }
    case MsgType::kOk:
      out.body = OkResponse{};
      break;
    case MsgType::kError: {
      ErrorResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.code, r.U32());
      PICTDB_ASSIGN_OR_RETURN(resp.message, r.String(kMaxStringBytes));
      out.body = std::move(resp);
      break;
    }
    case MsgType::kBatchHits: {
      BatchHitsResponse resp;
      PICTDB_ASSIGN_OR_RETURN(resp.stats, ReadStats(&r));
      PICTDB_ASSIGN_OR_RETURN(const uint32_t nwin,
                              ReadCount(&r, kMaxListElements));
      resp.per_window.reserve(nwin);
      for (uint32_t i = 0; i < nwin; ++i) {
        BatchWindowHits bw;
        PICTDB_ASSIGN_OR_RETURN(const uint8_t degraded, r.U8());
        if (degraded > 1) {
          return Status::InvalidArgument("degraded flag must be 0 or 1");
        }
        bw.degraded = degraded != 0;
        PICTDB_ASSIGN_OR_RETURN(const uint32_t nhits,
                                ReadCount(&r, kMaxListElements));
        bw.hits.reserve(nhits);
        for (uint32_t j = 0; j < nhits; ++j) {
          PICTDB_ASSIGN_OR_RETURN(WireHit h, ReadHit(&r));
          bw.hits.push_back(h);
        }
        resp.per_window.push_back(std::move(bw));
      }
      out.body = std::move(resp);
      break;
    }
    default:
      return Status::InvalidArgument("not a response message type");
  }
  PICTDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

}  // namespace pictdb::net
