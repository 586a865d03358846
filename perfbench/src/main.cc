// perfbench: pictdb's benchmark harness. One run = one workload, one
// seed, one duration; prints a single JSON object on stdout.
//
//   perfbench --workload hot|cold|serve|churn|churn-race --seed N
//             --seconds S --trace 0|1 --data-dir DIR [--source-id ID]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "simd/dispatch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void ReportProbeSpans(Report* report,
                      const std::map<std::string, trace::Totals>& spans,
                      const trace::Totals& search, double search_nodes) {
  auto get = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? trace::Totals{} : it->second;
  };
  const trace::Totals pin = get("storage.pin");
  const trace::Totals decode = get("rtree.decode");
  const trace::Totals kernel = get("simd.kernel");
  report->Metric("storage.pin_ns", pin.mean_ns(), "ns", pin.count, "pins");
  report->Metric("rtree.decode_ns_per_node", decode.mean_ns(), "ns",
                 decode.count, "nodes");
  report->Metric("simd.kernel_ns_per_node", kernel.mean_ns(), "ns",
                 kernel.count, "nodes");
  // ReadNodePageSoa pins the page itself, so decode already covers the
  // pin inside each node visit.
  const double explained =
      search_nodes * (decode.mean_ns() + kernel.mean_ns());
  report->Metric("rtree.descent_self_us",
                 Ratio(search.self_ns - explained, search.count) / 1000.0,
                 "us", search.count, "searches");
}

void ReportPoolCounters(Report* report, const TraceToggler::Quiet& quiet,
                        uint64_t requests, const std::string& base) {
  const double n = static_cast<double>(requests);
  report->Metric("storage.fetches_per_read",
                 Ratio(static_cast<double>(quiet.fetches), n), "count",
                 requests, base);
  report->Metric("storage.miss_ratio",
                 Ratio(static_cast<double>(quiet.misses),
                       static_cast<double>(quiet.fetches)),
                 "ratio", quiet.fetches, "fetches");
  report->Metric("storage.evictions_per_read",
                 Ratio(static_cast<double>(quiet.evictions), n), "count",
                 requests, base);
  report->Metric("storage.disk_reads_per_read",
                 Ratio(static_cast<double>(quiet.disk_reads), n), "count",
                 requests, base);
  report->Metric("storage.disk_read_us",
                 Ratio(static_cast<double>(quiet.disk_read_ns) / 1000.0,
                       static_cast<double>(quiet.disk_reads)),
                 "us", quiet.disk_reads, "disk reads");
}

void ReportTraceOverhead(Report* report, double untraced_qps,
                         double traced_qps, const Args& args) {
  // Traced and untraced slices alternate within one phase.
  report->Metric("trace.overhead_pct",
                 100.0 * (1.0 - Ratio(traced_qps, untraced_qps)), "%");
  report->Info("untraced_read_qps", untraced_qps);
  report->Info("traced_read_qps", traced_qps);
  report->Info("spans", static_cast<double>(trace::SpanCount()));
  const std::string path = args.data_dir + "/trace-" + args.workload + ".tsv";
  if (trace::WriteTsv(path)) report->Info("span_file", path);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot|cold|serve|churn|churn-race "
               "--seed N --seconds S --trace 0|1 --data-dir DIR "
               "[--source-id ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Report report;
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("traced", args.trace ? "1" : "0");
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("kernel", pictdb::simd::ActiveKernels().name);
  report.Info("source", source_id);

  // serve and churn run the whole process on one CPU. Each serve request
  // hands off between the client, the server's poll loop and a worker;
  // spread over several CPUs every hand-off waits for an idle CPU to
  // wake, and on a shared host that wake-up time changes read_qps
  // several-fold between runs. On one CPU a hand-off is a context switch.
  // churn's single thread otherwise migrates between CPUs whose speed
  // differs with the host's other load. Pinned before any thread starts,
  // so every thread inherits it.
  if (args.workload == "serve" || args.workload == "churn") {
    report.Info("pinned_cpu", static_cast<double>(perfbench::PinToOneCpu()));
  }

  if (args.workload == "hot" || args.workload == "cold") {
    perfbench::RunHotCold(args, args.workload == "cold", &report);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, &report);
  } else if (args.workload == "churn" || args.workload == "churn-race") {
    perfbench::RunChurn(args, args.workload == "churn-race", &report);
  } else {
    return Usage();
  }

  // Any wrong answer or error fails the run, except churn-race's wrong
  // reads: reads concurrent with writes are a known defect, counted as
  // failed operations and reported rather than hidden.
  const perfbench::Outcome& o = report.outcome;
  if (o.errors > 0) report.Fatal(std::to_string(o.errors) + " errors");
  if (args.workload != "churn-race" && o.wrong > 0) {
    report.Fatal(std::to_string(o.wrong) + " wrong answers");
  }
  report.Print(stdout);
  return report.correct() ? 0 : 1;
}
