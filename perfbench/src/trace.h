// In-memory span tracing for the traced run. Spans are recorded by the
// benchmark's own code around calls into each pictdb layer (and by the
// timing disk decorator around page I/O), kept in per-thread buffers,
// written out once when the run ends, and reduced to per-layer totals
// and self times (a span's duration minus the time its children cover).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name;  // string literal
  uint64_t request;
  uint32_t parent;  // index in the same thread's buffer, or kNoParent
  int64_t start_ns;
  int64_t end_ns;
};

/// Turns span recording on or off for every thread. Off costs one
/// relaxed load per would-be span.
void SetEnabled(bool on);
bool Enabled();

/// One request in this many is traced while tracing is on.
inline constexpr uint64_t kTraceEvery = 8;

/// `request` when tracing is on and the request is sampled, else 0 (an
/// id that opens no root span).
inline uint64_t Sample(uint64_t request) {
  return Enabled() && request % kTraceEvery == 0 ? request : 0;
}

/// Opens a span as a child of the calling thread's innermost open span,
/// or as a root span for `request` when none is open. Request 0 opens
/// no root span, so children of an unsampled request are not recorded.
/// Children inherit their parent's request.
class Scoped {
 public:
  explicit Scoped(const char* name, uint64_t request = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  /// Renames the span once its outcome decides which layer it belongs to.
  void Rename(const char* name);

 private:
  uint32_t index_ = kNoParent;
  uint32_t saved_parent_ = kNoParent;
};

/// Records an already-finished span (for durations measured elsewhere,
/// such as the server-reported execution time) as a child of the
/// calling thread's innermost open span, if there is one.
void Record(const char* name, int64_t start_ns, int64_t end_ns);

/// Per-name reduction over every recorded span.
struct Totals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double mean_ns() const { return count ? total_ns / count : 0; }
  double mean_self_ns() const { return count ? self_ns / count : 0; }
};
std::map<std::string, Totals> Reduce();

/// Total number of spans recorded so far.
uint64_t SpanCount();

/// Writes every span as tab-separated
/// `thread request span parent name start_ns end_ns` lines.
bool WriteTsv(const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
