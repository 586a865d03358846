#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common.h"

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  std::vector<Span> spans;
  uint32_t open = kNoParent;  // innermost open span
};

std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>>& Buffers() {
  static std::vector<std::unique_ptr<Buffer>> buffers;
  return buffers;
}

Buffer& Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    local = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    Buffers().push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scoped::Scoped(const char* name, uint64_t request) {
  if (!Enabled()) return;
  Buffer& b = Local();
  if (b.open == kNoParent && request == 0) return;
  saved_parent_ = b.open;
  if (b.open != kNoParent) request = b.spans[b.open].request;
  index_ = static_cast<uint32_t>(b.spans.size());
  b.spans.push_back(Span{name, request, b.open, NowNs(), 0});
  b.open = index_;
}

Scoped::~Scoped() {
  if (index_ == kNoParent) return;
  Buffer& b = Local();
  b.spans[index_].end_ns = NowNs();
  b.open = saved_parent_;
}

void Scoped::Rename(const char* name) {
  if (index_ != kNoParent) Local().spans[index_].name = name;
}

void Record(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!Enabled()) return;
  Buffer& b = Local();
  if (b.open == kNoParent) return;
  b.spans.push_back(
      Span{name, b.spans[b.open].request, b.open, start_ns, end_ns});
}

std::map<std::string, Totals> Reduce() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& buffer : Buffers()) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].end_ns -
                                             spans[i].start_ns);
      Totals& t = out[spans[i].name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += std::max(0.0, dur - covered[i]);
    }
  }
  return out;
}

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& buffer : Buffers()) n += buffer->spans.size();
  return n;
}

bool WriteTsv(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread\trequest\tspan\tparent\tname\tstart_ns\tend_ns\n", f);
  for (size_t t = 0; t < Buffers().size(); ++t) {
    const std::vector<Span>& spans = Buffers()[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%zu\t%lld\t%s\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.request), i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
