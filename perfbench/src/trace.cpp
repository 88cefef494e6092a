#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

std::int64_t since_epoch_ns(std::chrono::steady_clock::time_point at) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(at - g_epoch).count();
}

std::int64_t now_ns() { return since_epoch_ns(std::chrono::steady_clock::now()); }

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t next_local = 0;
  std::vector<SpanRecord> spans;
};

// Buffers outlive the threads that fill them (campaign pool threads exit
// after each pass), so the registry owns them.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_registry.size());
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

thread_local std::uint64_t t_current_span = 0;

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t item, std::uint64_t parent) {
  if (!tracing()) return;
  ThreadBuffer& buffer = this_thread_buffer();
  active_ = true;
  record_.name = name;
  record_.item = item;
  record_.thread = buffer.thread;
  record_.id = (std::uint64_t{buffer.thread} << 40) | ++buffer.next_local;
  record_.parent = parent == kInheritParent ? t_current_span : parent;
  previous_ = t_current_span;
  t_current_span = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  this_thread_buffer().spans.push_back(record_);
  t_current_span = previous_;
}

void record_span(const char* name, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end, std::uint64_t item,
                 std::uint64_t parent) {
  if (!tracing()) return;
  ThreadBuffer& buffer = this_thread_buffer();
  SpanRecord record;
  record.name = name;
  record.start_ns = since_epoch_ns(start);
  record.end_ns = since_epoch_ns(end);
  record.id = (std::uint64_t{buffer.thread} << 40) | ++buffer.next_local;
  record.parent = parent;
  record.item = item;
  record.thread = buffer.thread;
  buffer.spans.push_back(record);
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_registry)
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::vector<SpanRecord> spans_named(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<SpanRecord> out;
  const std::string wanted = name;
  for (const SpanRecord& span : spans)
    if (wanted == span.name) out.push_back(span);
  return out;
}

std::vector<double> durations_us(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans_named(spans, name)) out.push_back(span.duration_us());
  return out;
}

double self_time_us(const std::vector<SpanRecord>& spans, const char* name) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& span : spans)
    if (span.parent != 0) children[span.parent].emplace_back(span.start_ns, span.end_ns);
  double total_ns = 0.0;
  for (const SpanRecord& span : spans_named(spans, name)) {
    std::int64_t covered = 0;
    const auto found = children.find(span.id);
    if (found != children.end()) {
      auto intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_start = 0, run_end = -1;
      for (const auto& [start, end] : intervals) {
        const std::int64_t lo = std::max(start, span.start_ns);
        const std::int64_t hi = std::min(end, span.end_ns);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    total_ns += static_cast<double>(span.end_ns - span.start_ns - covered);
  }
  return total_ns / 1e3;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        std::size_t max_events) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::size_t written = std::min(max_events, spans.size());
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,\"written\":%zu},"
                    "\"traceEvents\":[\n",
               spans.size(), written);
  for (std::size_t i = 0; i < written; ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"item\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, static_cast<double>(s.start_ns) / 1e3,
                 s.duration_us(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.item));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
