// In-memory spans around the benchmark's calls into the library's layers.
//
// A span records its name, start, end, parent span and item id. Spans are
// appended to a per-thread buffer (no lock on the hot path) and only read
// back once every traced thread is quiescent: after a pass, when the
// campaign pool and the server workers have finished. write_chrome_trace()
// writes them as Chrome trace-event JSON ("X" complete events), the format
// Perfetto and chrome://tracing open.
//
// Tracing is off unless set_tracing(true): a disabled Span reads no clock and
// records nothing, so untraced runs pay one relaxed load per call.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";     ///< string literal, e.g. "core.analyze"
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t item = 0;    ///< workload item (or request) index
  std::uint32_t thread = 0;  ///< tracer-assigned thread number
  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// RAII span. The parent is the innermost open span of this thread unless
/// given explicitly (a campaign item running on a pool thread names the
/// pass span of the thread that started the campaign).
class Span {
 public:
  static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

  Span(const char* name, std::uint64_t item, std::uint64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t previous_ = 0;
  bool active_ = false;
};

/// Records a span whose interval the caller timed itself, for work that does
/// not nest on one thread (a request in flight while the client submits the
/// next). No-op while tracing is off.
void record_span(const char* name, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end, std::uint64_t item,
                 std::uint64_t parent = 0);

/// Every span recorded so far, ordered by start time. Call only while no
/// traced work is running.
[[nodiscard]] std::vector<SpanRecord> collect_spans();

/// Spans named `name`.
[[nodiscard]] std::vector<SpanRecord> spans_named(const std::vector<SpanRecord>& spans,
                                                  const char* name);

/// Durations in microseconds of the spans named `name`.
[[nodiscard]] std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                               const char* name);

/// Self time of every span named `name`, summed, in microseconds: each
/// span's duration minus the part of it that its child spans cover (children
/// on other threads may overlap each other; their union is subtracted).
[[nodiscard]] double self_time_us(const std::vector<SpanRecord>& spans, const char* name);

/// Writes up to `max_events` spans as Chrome trace-event JSON; the rest are
/// counted in the file's metadata. Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        std::size_t max_events);

}  // namespace perfbench
