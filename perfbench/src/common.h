// Shared pieces of the perfbench harness: clocks, raw latency samples
// with exact percentiles, order-independent answer digests, a uniform
// grid oracle over point data, and the per-run report.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for page files, spill runs, the socket and the
  /// span dump; created by the caller.
  std::string data_dir = ".";
};

/// Exact percentile of raw samples by the nearest-rank rule: the
/// smallest sample with at least q of the samples at or below it.
/// Sorts `v` in place.
double Percentile(std::vector<double>* v, double q);

/// Raw latency samples of one kind of operation: each request's latency
/// in microseconds and the time it completed.
///
/// Storage is reserved up front and merged at exact size, so the
/// harness's own memory grows with the sample count instead of in
/// doubling steps that would show in peak_rss_mib.
struct Latencies {
  std::vector<double> us;
  std::vector<int64_t> end_ns;
  /// Reserves room for a thread's samples over `seconds`.
  void ReserveFor(double seconds) {
    const auto n = static_cast<size_t>(seconds * 100000);  // per second
    us.reserve(n);
    end_ns.reserve(n);
  }
  void Add(int64_t start_ns, int64_t stop_ns) {
    us.push_back(static_cast<double>(stop_ns - start_ns) / 1000.0);
    end_ns.push_back(stop_ns);
  }
  void Append(const Latencies& other) {
    us.reserve(us.size() + other.us.size());
    end_ns.reserve(end_ns.size() + other.end_ns.size());
    us.insert(us.end(), other.us.begin(), other.us.end());
    end_ns.insert(end_ns.end(), other.end_ns.begin(), other.end_ns.end());
  }
};

/// Slice length of every measured phase.
inline constexpr double kSliceSeconds = 0.5;

/// A measured phase cut into equal slices by completion time. Each
/// statistic is the median over slices of that slice's value, so a
/// transient stall from outside the program moves it little.
struct Sliced {
  double per_s = 0;  // completions per second
  double p50_us = 0;
  double p99_us = 0;
  uint64_t n = 0;  // samples inside the slices
};
/// `parity` 0 or 1 keeps only the even or odd slices.
Sliced SliceMedians(const Latencies& lat, int64_t start_ns, double seconds,
                    int parity = -1);

/// Number of slices in a phase of `seconds`.
inline size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds));
}


/// splitmix64 finalizer: spreads a payload over 64 bits so that a sum of
/// mixed payloads identifies a set of rids.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of a set of rid payloads. Two digests are
/// equal iff the multisets match (up to a 2^-64 collision), so a missing
/// hit, an extra hit and a duplicated hit all change it.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint64_t payload) {
    ++count;
    sum += Mix(payload);
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Payload of the i-th generated object: Rid{i + 1, slot} packed the way
/// rtree::Entry::PayloadFromRid packs it.
inline uint64_t ObjectPayload(size_t i, uint16_t slot = 0) {
  return (static_cast<uint64_t>(i + 1) << 16) | slot;
}

/// Answers window, point and k-nearest queries over a point set without
/// any tree: points are bucketed into a uniform grid over the frame.
class GridOracle {
 public:
  GridOracle(const std::vector<pictdb::geom::Point>& points,
             const pictdb::geom::Rect& frame, double points_per_cell);

  /// Digest of the payloads of every point inside the closed `window`
  /// (the same closed-boundary rule as geom::Rect::Intersects).
  Digest Window(const pictdb::geom::Rect& window) const;

  /// Ascending distances from `q` to its k nearest points.
  std::vector<double> Nearest(const pictdb::geom::Point& q, size_t k) const;

 private:
  size_t CellX(double x) const;
  size_t CellY(double y) const;

  pictdb::geom::Rect frame_;
  size_t side_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<uint32_t> cell_start_;  // side_*side_ + 1 offsets
  std::vector<pictdb::geom::Point> pts_;  // grouped by cell
  std::vector<uint32_t> index_;           // original index per pts_ slot
};

/// True when two ascending distance lists agree to rounding.
bool SameDistances(const std::vector<double>& got,
                   const std::vector<double>& want);

/// Pins the calling thread, and so every thread it starts afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU, or -1
/// when the affinity could not be set.
int PinToOneCpu();

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMiB();

/// Outcome counts of one run. A wrong answer, an error and a refusal
/// each count as one failed operation.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t errors = 0;
  uint64_t refused = 0;
  uint64_t failed() const { return wrong + errors + refused; }
  void Add(const Outcome& o) {
    attempted += o.attempted;
    wrong += o.wrong;
    errors += o.errors;
    refused += o.refused;
  }
};

/// Everything one run prints: metrics with units and bases, identifying
/// facts, outcome counts and whether the correctness checks passed.
class Report {
 public:
  /// `n` is the sample count or ratio base behind the value (0 = none).
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t n = 0, const std::string& base = "");
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// A failure that must fail the run (oracle or durability mismatch).
  void Fatal(const std::string& why);

  Outcome outcome;
  bool correct() const { return correct_; }

  void Print(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t n;
    std::string base;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> fatal_;
  bool correct_ = true;
};

/// Ratio helper: 0 when the base is empty.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of a small sample (copies).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
