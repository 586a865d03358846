// The perfbench workloads. Each builds its inputs from the seed,
// runs a closed loop for the requested time, checks every answer, and
// fills the report with end-to-end metrics (untraced run) or per-layer
// metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "probe.h"
#include "trace.h"

namespace perfbench {

void RunHotCold(const Args& args, bool cold, Report* report);
void RunServe(const Args& args, Report* report);
/// `concurrent` runs the writer and reader on two threads (churn-race).
void RunChurn(const Args& args, bool concurrent, Report* report);

/// Per-node pin, decode and kernel costs from the replay probes, and the
/// descent self time they leave of the `search` spans that visited
/// `search_nodes` nodes in total.
void ReportProbeSpans(Report* report,
                      const std::map<std::string, trace::Totals>& spans,
                      const trace::Totals& search, double search_nodes);

/// Traced against untraced read_qps, and the span dump.
void ReportTraceOverhead(Report* report, double untraced_qps,
                         double traced_qps, const Args& args);

/// Runs `body(thread_index)` on `threads` threads started together, plus
/// `toggler` (when given) over the same `seconds`, and returns when all
/// have finished. `*start_ns` gets the release time.
template <typename Body>
void RunThreads(size_t threads, double seconds, TraceToggler* toggler,
                int64_t* start_ns, Body body) {
  std::vector<std::thread> pool;
  *start_ns = NowNs();
  const int64_t start = *start_ns;
  if (toggler != nullptr) {
    pool.emplace_back([=] { toggler->Run(start, seconds); });
  }
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (auto& th : pool) th.join();
}

/// The pool and disk read counters of a traced run's untraced slices,
/// per request completed in those slices (`base` names the requests).
void ReportPoolCounters(Report* report, const TraceToggler::Quiet& quiet,
                        uint64_t requests, const std::string& base);

/// Median of a set-up step timed `reps` times; `step()` returns the
/// seconds its program calls took.
template <typename Step>
double MedianSetup(int reps, Step step) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) times.push_back(step());
  return Median(times);
}

/// Latency metrics of one operation type: slice medians of the p50 (and
/// p99), with the sample count.
inline void LatencyMetrics(Report* report, const std::string& prefix,
                           const Latencies& lat, int64_t start_ns,
                           double seconds, bool with_p99) {
  const Sliced s = SliceMedians(lat, start_ns, seconds);
  report->Metric(prefix + "_p50_us", s.p50_us, "us", s.n, "samples");
  if (with_p99) {
    report->Metric(prefix + "_p99_us", s.p99_us, "us", s.n, "samples");
  }
}

/// Set-up steps are timed this many times per run; the median is
/// reported and the last build is the one measured.
inline constexpr int kSetupReps = 3;

/// Closed-loop warm-up before measuring, so lazy set-up and cache fill
/// are not timed.
inline constexpr double kWarmupSeconds = 0.5;

/// One request in this many is probed layer by layer in a traced run
/// (replayed descent, codec, PSQL parse and execute). A multiple of
/// trace::kTraceEvery, so every probed request is also traced.
inline constexpr uint64_t kProbeEvery = 64;
static_assert(kProbeEvery % trace::kTraceEvery == 0);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
