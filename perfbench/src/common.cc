#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <queue>

namespace perfbench {

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return (*v)[std::min(rank, v->size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

Sliced SliceMedians(const Latencies& lat, int64_t start_ns, double seconds,
                    int parity) {
  Sliced out;
  const size_t count = SliceCount(seconds);
  const double slice_ns = seconds * 1e9 / static_cast<double>(count);
  std::vector<std::vector<double>> slices(count);
  for (size_t i = 0; i < lat.us.size(); ++i) {
    const double at = static_cast<double>(lat.end_ns[i] - start_ns) / slice_ns;
    if (at < 0 || at >= static_cast<double>(count)) continue;
    const size_t slice = static_cast<size_t>(at);
    if (parity >= 0 && slice % 2 != static_cast<size_t>(parity)) continue;
    slices[slice].push_back(lat.us[i]);
    ++out.n;
  }
  std::vector<double> rate, p50, p99;
  for (size_t s = 0; s < count; ++s) {
    if (parity >= 0 && s % 2 != static_cast<size_t>(parity)) continue;
    auto& slice = slices[s];
    rate.push_back(static_cast<double>(slice.size()) / (slice_ns / 1e9));
    p50.push_back(Percentile(&slice, 0.50));
    p99.push_back(Percentile(&slice, 0.99));
  }
  out.per_s = Median(rate);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  return out;
}

GridOracle::GridOracle(const std::vector<pictdb::geom::Point>& points,
                       const pictdb::geom::Rect& frame,
                       double points_per_cell)
    : frame_(frame) {
  const double cells =
      std::max(1.0, static_cast<double>(points.size()) / points_per_cell);
  side_ = std::max<size_t>(1, static_cast<size_t>(std::sqrt(cells)));
  cell_w_ = (frame.hi.x - frame.lo.x) / static_cast<double>(side_);
  cell_h_ = (frame.hi.y - frame.lo.y) / static_cast<double>(side_);
  cell_start_.assign(side_ * side_ + 1, 0);
  std::vector<uint32_t> cell_of(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = static_cast<uint32_t>(CellY(points[i].y) * side_ +
                                       CellX(points[i].x));
    ++cell_start_[cell_of[i] + 1];
  }
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  std::vector<uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  pts_.resize(points.size());
  index_.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const uint32_t slot = fill[cell_of[i]]++;
    pts_[slot] = points[i];
    index_[slot] = static_cast<uint32_t>(i);
  }
}

size_t GridOracle::CellX(double x) const {
  const double c = std::floor((x - frame_.lo.x) / cell_w_);
  return static_cast<size_t>(std::clamp(c, 0.0, double(side_ - 1)));
}

size_t GridOracle::CellY(double y) const {
  const double c = std::floor((y - frame_.lo.y) / cell_h_);
  return static_cast<size_t>(std::clamp(c, 0.0, double(side_ - 1)));
}

Digest GridOracle::Window(const pictdb::geom::Rect& w) const {
  Digest d;
  const size_t x0 = CellX(w.lo.x), x1 = CellX(w.hi.x);
  const size_t y0 = CellY(w.lo.y), y1 = CellY(w.hi.y);
  for (size_t cy = y0; cy <= y1; ++cy) {
    for (size_t cx = x0; cx <= x1; ++cx) {
      const size_t c = cy * side_ + cx;
      for (uint32_t s = cell_start_[c]; s < cell_start_[c + 1]; ++s) {
        const pictdb::geom::Point& p = pts_[s];
        if (p.x >= w.lo.x && p.x <= w.hi.x && p.y >= w.lo.y &&
            p.y <= w.hi.y) {
          d.Add(ObjectPayload(index_[s]));
        }
      }
    }
  }
  return d;
}

std::vector<double> GridOracle::Nearest(const pictdb::geom::Point& q,
                                        size_t k) const {
  // Rings of cells around q's cell, nearest first. After ring r every
  // unseen point lies at least r * min(cell_w, cell_h) away.
  std::priority_queue<double> best;  // max-heap of the k smallest
  const long qx = static_cast<long>(CellX(q.x));
  const long qy = static_cast<long>(CellY(q.y));
  const long side = static_cast<long>(side_);
  const double step = std::min(cell_w_, cell_h_);
  for (long r = 0; r <= side; ++r) {
    for (long cy = qy - r; cy <= qy + r; ++cy) {
      if (cy < 0 || cy >= side) continue;
      for (long cx = qx - r; cx <= qx + r; ++cx) {
        if (cx < 0 || cx >= side) continue;
        if (std::max(std::labs(cx - qx), std::labs(cy - qy)) != r) continue;
        const size_t c = static_cast<size_t>(cy * side + cx);
        for (uint32_t s = cell_start_[c]; s < cell_start_[c + 1]; ++s) {
          const double dx = pts_[s].x - q.x;
          const double dy = pts_[s].y - q.y;
          const double d = std::sqrt(dx * dx + dy * dy);
          if (best.size() < k) {
            best.push(d);
          } else if (d < best.top()) {
            best.pop();
            best.push(d);
          }
        }
      }
    }
    if (best.size() == k && best.top() <= static_cast<double>(r) * step) {
      break;
    }
  }
  std::vector<double> out;
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

bool SameDistances(const std::vector<double>& got,
                   const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i] - want[i]) > 1e-9 * std::max(1.0, want[i])) {
      return false;
    }
  }
  return true;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, uint64_t n,
                    const std::string& base) {
  metrics_.push_back(Entry{name, value, unit, n, base});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_.emplace_back(key, buf);
}

void Report::Fatal(const std::string& why) {
  correct_ = false;
  fatal_.push_back(why);
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(std::FILE* out) const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(outcome.attempted);
  s += ", \"failed\": " + std::to_string(outcome.failed());
  s += ", \"wrong\": " + std::to_string(outcome.wrong);
  s += ", \"errors\": " + std::to_string(outcome.errors);
  s += ", \"refused\": " + std::to_string(outcome.refused);
  s += ", \"fatal\": [";
  for (size_t i = 0; i < fatal_.size(); ++i) {
    s += (i ? ", " : "") + Quote(fatal_[i]);
  }
  s += "], \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    s += (i ? ", " : "") + Quote(info_[i].first) + ": " +
         Quote(info_[i].second);
  }
  s += "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    s += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Number(m.value) +
         ", \"unit\": " + Quote(m.unit) + ", \"n\": " + std::to_string(m.n) +
         ", \"base\": " + Quote(m.base) + "}";
  }
  s += "}}\n";
  std::fputs(s.c_str(), out);
}

}  // namespace perfbench
