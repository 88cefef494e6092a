// certify_sweep: one caller certifying single-core sets back to back.
//
// Each item is a serial Analyzer::analyze(set, speed = 2.0, all parts) on a
// set from the paper's Fig. 6 generator. u_bound cycles through 0.50 ... 0.95
// and every other block of ten items draws log-uniform periods, which spread
// the three period decades evenly and so give the sweeps more breakpoints.
// The demand kernels, breakpoint mergers, fused sweep and LO test do almost
// all the work; partition, multi, campaign, service and sim are bypassed.
#include <memory>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "service/cache.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kItems = 8000;      ///< the input list
constexpr std::size_t kPassItems = 1000;  ///< items per pass
constexpr std::size_t kWarmItems = 200;   ///< warm-up prefix in set-up
constexpr double kSpeed = 2.0;

struct State {
  std::vector<rbs::TaskSet> sets;
  /// serialize_report of each item's first-cycle analysis; later cycles
  /// must reproduce it byte for byte.
  std::vector<std::string> expected;
  std::vector<std::uint64_t> breakpoints;  ///< fused + LO, first cycle
  CoreWork work;                           ///< first cycle
  Digest digest;
  std::size_t next_pass = 0;
};

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  state->sets.reserve(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    rbs::Rng rng(rbs::campaign::item_seed(seed, i));
    rbs::GenParams params;
    params.u_bound = 0.50 + 0.05 * static_cast<double>(i % 10);
    params.log_uniform_periods = (i / 10) % 2 == 1;
    state->sets.push_back(generate_set(params, rng));
  }
  state->expected.resize(kItems);
  state->breakpoints.resize(kItems);
  const rbs::Analyzer analyzer;
  for (std::size_t i = 0; i < kWarmItems; ++i)
    if (!analyzer.analyze(state->sets[i], kSpeed).is_ok())
      throw std::runtime_error("warm-up analysis failed on item " + std::to_string(i));
  return state;
}

/// Runs the next slice of the list, then checks it outside the timing: the
/// first cycle records results, counters and the digest; later cycles must
/// reproduce them.
PassResult run_pass(State& state, std::vector<rbs::Expected<rbs::AnalysisReport>>& out,
                    Report& report) {
  const rbs::Analyzer analyzer;
  const std::size_t first = (state.next_pass++ * kPassItems) % kItems;
  const bool first_cycle = state.next_pass <= kItems / kPassItems;
  PassResult pass;
  pass.latency_ms.resize(kPassItems);
  out.clear();
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t k = 0; k < kPassItems; ++k) {
    const Clock::time_point start = Clock::now();
    {
      const Span span("core.analyze", first + k);
      out.push_back(analyzer.analyze(state.sets[first + k], kSpeed));
    }
    pass.latency_ms[k] = seconds_between(start, Clock::now()) * 1e3;
  }
  pass.wall_s = seconds_between(pass_start, Clock::now());
  pass.attempted = kPassItems;

  for (std::size_t k = 0; k < kPassItems; ++k) {
    const std::size_t i = first + k;
    if (!out[k].is_ok()) {
      report.fail("item " + std::to_string(i) + ": " + out[k].status().message());
      continue;
    }
    std::string serialized = rbs::service::serialize_report(*out[k]);
    if (first_cycle) {
      state.expected[i] = std::move(serialized);
      state.breakpoints[i] = out[k]->fused_breakpoints + out[k]->lo_breakpoints;
      state.work.add(*out[k]);
      state.digest.add_line(result_line(*out[k]));
    } else if (serialized != state.expected[i]) {
      report.fail("item " + std::to_string(i) + ": report differs from the first cycle");
      continue;
    }
    ++pass.ok;
  }
  return pass;
}

}  // namespace

void run_certify_sweep(const Options& options, Report& report) {
  std::unique_ptr<State> state;
  const std::vector<double> setup_s = repeat_setup<State>(
      kSetupRepeats, options.process_start, [&] { return setup(options.seed); }, state);
  report.info.emplace_back("config", "items=8000 pass=1000 speed=2.0 "
                                     "u_bound=0.50..0.95 periods=uniform|log-uniform callers=1");

  std::vector<rbs::Expected<rbs::AnalysisReport>> out;
  out.reserve(kPassItems);
  const auto pass = [&] { return run_pass(*state, out, report); };
  const std::size_t cycle = kItems / kPassItems;
  const auto finish_counters = [&] {
    report.digest = state->digest.hex();
    report.counters.core_breakpoints = state->work.breakpoints();
  };
  if (!options.trace) {
    summarize_end_to_end(report, setup_s, run_passes(options.seconds, cycle, pass));
    finish_counters();
    return;
  }
  const std::vector<PassResult> untraced = run_passes(options.seconds / 2, cycle, pass);
  set_tracing(true);
  const std::vector<PassResult> traced = run_passes(options.seconds / 2, 1, pass);
  set_tracing(false);
  finish_counters();
  count_items(report, untraced);
  count_items(report, traced);

  const std::vector<SpanRecord> spans = collect_spans();
  LayerMetrics layers;
  summarize_core(
      layers, spans, state->work, [&](std::uint64_t i) { return state->sets[i].size(); },
      [&](std::uint64_t i) { return state->breakpoints[i]; });
  summarize_trace_overhead(layers, untraced, traced, spans.size());
  report.metrics = layers.entries();
  write_spans(report, options, spans);
}

}  // namespace perfbench
