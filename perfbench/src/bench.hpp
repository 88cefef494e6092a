// The harness every workload shares: repeated set-up, the timed passes, the
// end-to-end summary and the per-layer metric table.
//
// A workload owns a fixed list of inputs generated from the seed. One *pass*
// runs the next fixed-size slice of the list; the timed phase cycles through
// the list, completes at least one full cycle, and stops before a pass would
// end past --seconds. Throughput is the median over passes and latencies are
// medians over fixed-size windows of items, so a slow moment of a shared
// host, or one pathological input, moves one pass instead of the result.
// Work counters and the result digest come from the first cycle, which is
// the same fixed work on every run of a seed; later cycles must reproduce
// its results exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch files: WAL, journal, spans
  Clock::time_point process_start;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The per-layer metric table. Every traced run reports every entry; a
/// layer the workload bypasses keeps its zeros.
class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets a known metric; an unknown name is a programming error (throws).
  void set(const std::string& name, double value);
  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Deterministic work of one pass: the same on every run of a seed.
struct Counters {
  std::uint64_t core_breakpoints = 0;  ///< fused + LO breakpoints
  std::uint64_t multi_analyzer_calls = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t service_cache_misses = 0;
  std::uint64_t campaign_journal_bytes = 0;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  Counters counters;
  std::string digest;
  std::vector<std::pair<std::string, std::string>> info;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<double> latency_ms;     ///< one per item, input order
  std::vector<double> hi_latency_ms;  ///< HI-criticality requests only
};

/// Runs passes until the next one would end past `seconds`, and at least
/// `min_passes` of them (one cycle over the workload's input list, so the
/// first cycle's results and counters are complete).
std::vector<PassResult> run_passes(double seconds, std::size_t min_passes,
                                   const std::function<PassResult()>& pass);

/// Median over passes of the ok items completed per second.
double items_per_s(const std::vector<PassResult>& passes);

/// Latency statistics over windows of consecutive passes, each window
/// holding at least kWindowItems samples (a trailing short window is
/// dropped unless it is the only one). Fixed windows keep the tail
/// percentile the same on every run.
struct WindowStats {
  double p50 = 0.0;   ///< median over windows of the window median
  double tail = 0.0;  ///< median over windows of the window tail (tail rule)
  Tail last;          ///< the last window's tail, for its percentile and count
  std::size_t windows = 0;
};
WindowStats window_stats(const std::vector<PassResult>& passes,
                         std::vector<double> PassResult::*samples);

/// Items per latency window. 100 samples put the tail at p90 with 10
/// samples beyond it; a p99 read off 1000 samples moved by a third between
/// runs on a shared host, with the code unchanged.
inline constexpr std::size_t kWindowItems = 100;

/// Runs `setup` `repeats` times; returns the seconds each took. The first
/// is timed from process start, so loading and first-touch costs count.
template <typename State>
std::vector<double> repeat_setup(int repeats, Clock::time_point process_start,
                                 const std::function<std::unique_ptr<State>()>& setup,
                                 std::unique_ptr<State>& kept) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = r == 0 ? process_start : Clock::now();
    kept.reset();
    kept = setup();
    times.push_back(seconds_between(start, Clock::now()));
  }
  return times;
}

/// Times each setup repeats; the median is setup_s.
inline constexpr int kSetupRepeats = 3;

/// Fills the end-to-end metrics, attempted/failed and the tail info.
void summarize_end_to_end(Report& report, const std::vector<double>& setup_s,
                          const std::vector<PassResult>& passes);

/// Adds the attempted/failed counts of `passes` to the report.
void count_items(Report& report, const std::vector<PassResult>& passes);

/// Adds the overhead rows comparing an untraced and a traced phase.
void summarize_trace_overhead(LayerMetrics& layers, const std::vector<PassResult>& untraced,
                              const std::vector<PassResult>& traced, std::size_t spans);

/// Per-pass deterministic totals of a list of analysis reports.
struct CoreWork {
  std::uint64_t fused = 0, speedup = 0, reset = 0, lo = 0, inexact = 0;
  void add(const rbs::AnalysisReport& report);
  [[nodiscard]] std::uint64_t breakpoints() const { return fused + lo; }
};

/// Fills the core.* rows from the "core.analyze" spans. `set_size` and
/// `breakpoints` map a span's item id to its set's task count and to the
/// fused + LO breakpoints of its analysis.
void summarize_core(LayerMetrics& layers, const std::vector<SpanRecord>& spans,
                    const CoreWork& per_pass,
                    const std::function<std::size_t(std::uint64_t)>& set_size,
                    const std::function<std::uint64_t(std::uint64_t)>& breakpoints);

/// The result fields of serialize_report(): everything but the trailing
/// breakpoint counters, which measure work, not the answer. A change that
/// keeps every result bit for bit keeps these lines.
std::string result_line(const rbs::AnalysisReport& report);

/// How generated periods are spread over [2 ms, 2 s]. The snapped models
/// move each drawn period to the nearest menu value and keep the task's
/// utilizations.
enum class Periods {
  kDrawn,    ///< as the Fig. 6 generator draws them (uniform or log-uniform)
  kDecimal,  ///< snapped to 2, 5, 10, 20, ... 2000 ms: every hyperperiod
             ///< divides 2 s (4 s in HI mode, where y = 2 doubles LO periods)
  kDivisors, ///< snapped to a divisor of 10.08 s: hyperperiods stay bounded,
             ///< and a sum of utilizations seldom lands on exactly 1
};

/// One task set from the paper's Fig. 6 generator at `params.u_bound`,
/// materialised at the EDF-VD utilization x (nudged up until LO mode is
/// schedulable) with degradation y = 2, as bench_fig6_sim and
/// bench_multicore do. Draws until a set is accepted; throws after 1000
/// rejected draws.
rbs::TaskSet generate_set(const rbs::GenParams& params, rbs::Rng& rng,
                          Periods periods = Periods::kDrawn);

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Writes the spans file and reports where it went.
void write_spans(Report& report, const Options& options, const std::vector<SpanRecord>& spans);

/// The three workloads.
void run_certify_sweep(const Options& options, Report& report);
void run_multicore_resilience(const Options& options, Report& report);
void run_service_mixed(const Options& options, Report& report);

}  // namespace perfbench
