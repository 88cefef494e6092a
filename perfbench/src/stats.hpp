// Latency statistics and result digests shared by every workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

/// A tail latency together with the percentile it was read at and how many
/// samples lie beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 50, 90, 99, 99.9, ...
  std::size_t beyond = 0;   ///< samples ranked strictly above `value`
  std::size_t samples = 0;
};

/// The tail rule: the highest percentile of the ladder 50, 90, 99, 99.9, ...
/// that still has at least `min_beyond` samples ranked above it. Percentile
/// 1 - 1/d of n samples is read by nearest rank, so floor(n / d) samples lie
/// beyond it; the rule picks the largest d = 2, 10, 100, ... with
/// floor(n / d) >= min_beyond. Fewer than 2 * min_beyond samples give the
/// median with the (short) count beyond it.
inline Tail tail(std::vector<double> samples, std::size_t min_beyond = 10) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t d = 2;
  for (std::size_t next = 10; n / next >= min_beyond; next *= 10) d = next;
  out.beyond = n / d;
  out.value = samples[n - out.beyond - 1];
  out.percentile = 100.0 - 100.0 / static_cast<double>(d);
  return out;
}

/// FNV-1a over the per-item result lines, each terminated by '\n', so the
/// digest fixes both the lines and their order.
class Digest {
 public:
  void add_line(std::string_view line) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  [[nodiscard]] std::string hex() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = 0; i < 16; ++i) out[i] = kHex[(state_ >> (60 - 4 * i)) & 0xf];
    return out;
  }

 private:
  void mix(unsigned char byte) {
    state_ ^= byte;
    state_ *= 0x100000001b3ULL;
  }
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
