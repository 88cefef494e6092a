#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/edf.hpp"
#include "core/tuning.hpp"
#include "service/cache.hpp"
#include "support/tolerance.hpp"

namespace perfbench {
namespace {

// name, unit. The order is the output order; run.py checks the names and
// units against BENCHMARK.json's per_layer list.
const std::vector<std::pair<const char*, const char*>>& layer_table() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"core.analyze_calls", "count"},
      {"core.analyze_busy_ms", "ms"},
      {"core.analyze_p50_us", "us"},
      {"core.analyze_tail_us", "us"},
      {"core.analyze_p50_us.small", "us"},
      {"core.analyze_p50_us.medium", "us"},
      {"core.analyze_p50_us.large", "us"},
      {"core.breakpoints", "count"},
      {"core.speedup_breakpoints", "count"},
      {"core.reset_breakpoints", "count"},
      {"core.lo_breakpoints", "count"},
      {"core.ns_per_breakpoint", "ns"},
      {"core.inexact", "count"},
      {"partition.calls", "count"},
      {"partition.busy_ms", "ms"},
      {"partition.p50_ms", "ms"},
      {"partition.feasible_frac", "frac"},
      {"multi.calls", "count"},
      {"multi.busy_ms", "ms"},
      {"multi.p50_ms", "ms"},
      {"multi.analyzer_calls", "count"},
      {"multi.scenarios", "count"},
      {"multi.us_per_analyzer_call", "us"},
      {"sim.calls", "count"},
      {"sim.busy_ms", "ms"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.stale_events", "count"},
      {"sim.migrations", "count"},
      {"sim.hi_misses", "count"},
      {"campaign.wall_ms", "ms"},
      {"campaign.item_busy_ms", "ms"},
      {"campaign.run_self_ms", "ms"},
      {"campaign.efficiency", "frac"},
      {"campaign.journal_bytes", "B"},
      {"campaign.retried", "count"},
      {"campaign.quarantined", "count"},
      {"service.submit_p50_us", "us"},
      {"service.submit_tail_us", "us"},
      {"service.hi_tail_ms", "ms"},
      {"service.cache_hit_ratio", "frac"},
      {"service.cache_misses", "count"},
      {"service.coalesced", "count"},
      {"service.shed_lo", "count"},
      {"service.degraded", "count"},
      {"service.mode_switches_to_hi", "count"},
      {"service.cache_key_us", "us"},
      {"service.lookup_us", "us"},
      {"service.analyze_us", "us"},
      {"service.serialize_us", "us"},
      {"service.publish_us", "us"},
      {"service.wal_publish_us", "us"},
      {"service.coord_us", "us"},
      {"admission.shed_lo", "count"},
      {"admission.degraded", "count"},
      {"admission.mode_switches", "count"},
      {"admission.hi_shed", "count"},
      {"trace.items_per_s", "1/s"},
      {"trace.untraced_items_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return table;
}

double ms_sum(const std::vector<double>& us) {
  return std::accumulate(us.begin(), us.end(), 0.0) / 1e3;
}

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : layer_table()) {
    index_[name] = entries_.size();
    entries_.push_back({name, Metric{0.0, unit}});
  }
}

void LayerMetrics::set(const std::string& name, double value) {
  const auto found = index_.find(name);
  if (found == index_.end()) throw std::logic_error("unknown per-layer metric " + name);
  entries_[found->second].second.value = value;
}

std::vector<PassResult> run_passes(double seconds, std::size_t min_passes,
                                   const std::function<PassResult()>& pass) {
  std::vector<PassResult> passes;
  double elapsed = 0.0;
  for (;;) {
    passes.push_back(pass());
    elapsed += passes.back().wall_s;
    if (passes.size() >= min_passes && elapsed + passes.back().wall_s > seconds) break;
  }
  return passes;
}

double items_per_s(const std::vector<PassResult>& passes) {
  std::vector<double> rates;
  for (const PassResult& pass : passes)
    rates.push_back(pass.wall_s > 0.0 ? static_cast<double>(pass.ok) / pass.wall_s : 0.0);
  return median(rates);
}

WindowStats window_stats(const std::vector<PassResult>& passes,
                         std::vector<double> PassResult::*samples) {
  std::vector<std::vector<double>> windows(1);
  for (const PassResult& pass : passes) {
    if (windows.back().size() >= kWindowItems) windows.emplace_back();
    const std::vector<double>& add = pass.*samples;
    windows.back().insert(windows.back().end(), add.begin(), add.end());
  }
  if (windows.size() > 1 && windows.back().size() < kWindowItems) windows.pop_back();
  WindowStats out;
  std::vector<double> p50s, tails;
  for (const std::vector<double>& window : windows) {
    p50s.push_back(median(window));
    out.last = tail(window);
    tails.push_back(out.last.value);
  }
  out.p50 = median(p50s);
  out.tail = median(tails);
  out.windows = windows.size();
  return out;
}

void count_items(Report& report, const std::vector<PassResult>& passes) {
  for (const PassResult& pass : passes) {
    report.attempted += pass.attempted;
    report.failed += pass.attempted - pass.ok;
  }
}

void summarize_end_to_end(Report& report, const std::vector<double>& setup_s,
                          const std::vector<PassResult>& passes) {
  count_items(report, passes);
  std::uint64_t attempted = 0, ok = 0;
  for (const PassResult& pass : passes) {
    attempted += pass.attempted;
    ok += pass.ok;
  }
  const WindowStats latency = window_stats(passes, &PassResult::latency_ms);
  report.metrics = {
      {"setup_s", {median(setup_s), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"ok_frac", {attempted ? static_cast<double>(ok) / static_cast<double>(attempted) : 0.0,
                   "frac"}},
      {"items_per_s", {items_per_s(passes), "1/s"}},
      {"item_p50_ms", {latency.p50, "ms"}},
      {"item_tail_ms", {latency.tail, "ms"}},
  };
  std::string rates;
  for (const PassResult& pass : passes) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%s%.1f", rates.empty() ? "" : " ",
                  static_cast<double>(pass.ok) / pass.wall_s);
    rates += buffer;
  }
  std::string each;
  for (double s : setup_s) {
    if (!each.empty()) each += ' ';
    each += std::to_string(s);
  }
  report.info.emplace_back("setup_s_each", each);
  report.info.emplace_back("pass_items_per_s", rates);
  report.info.emplace_back("passes", std::to_string(passes.size()));
  report.info.emplace_back("latency_windows", std::to_string(latency.windows));
  report.info.emplace_back("items_per_window", std::to_string(latency.last.samples));
  report.info.emplace_back("item_tail_percentile", std::to_string(latency.last.percentile));
  report.info.emplace_back("item_tail_beyond", std::to_string(latency.last.beyond));
}

void summarize_trace_overhead(LayerMetrics& layers, const std::vector<PassResult>& untraced,
                              const std::vector<PassResult>& traced, std::size_t spans) {
  const double base = items_per_s(untraced);
  const double with = items_per_s(traced);
  layers.set("trace.untraced_items_per_s", base);
  layers.set("trace.items_per_s", with);
  layers.set("trace.overhead_pct", base > 0.0 ? 100.0 * (1.0 - with / base) : 0.0);
  layers.set("trace.spans", static_cast<double>(spans));
}

void CoreWork::add(const rbs::AnalysisReport& report) {
  fused += report.fused_breakpoints;
  speedup += report.speedup_breakpoints;
  reset += report.reset_breakpoints;
  lo += report.lo_breakpoints;
  inexact += (!report.s_min_exact || !report.delta_r_exact) ? 1 : 0;
}

void summarize_core(LayerMetrics& layers, const std::vector<SpanRecord>& spans,
                    const CoreWork& per_pass,
                    const std::function<std::size_t(std::uint64_t)>& set_size,
                    const std::function<std::uint64_t(std::uint64_t)>& breakpoints) {
  std::vector<double> all, small, medium, large;
  double traced_breakpoints = 0.0;
  for (const SpanRecord& span : spans_named(spans, "core.analyze")) {
    const double us = span.duration_us();
    all.push_back(us);
    const std::size_t n = set_size(span.item);
    (n <= 10 ? small : n <= 20 ? medium : large).push_back(us);
    traced_breakpoints += static_cast<double>(breakpoints(span.item));
  }
  const double busy_ms = ms_sum(all);
  layers.set("core.analyze_calls", static_cast<double>(all.size()));
  layers.set("core.analyze_busy_ms", busy_ms);
  layers.set("core.analyze_p50_us", median(all));
  layers.set("core.analyze_tail_us", tail(all).value);
  layers.set("core.analyze_p50_us.small", median(small));
  layers.set("core.analyze_p50_us.medium", median(medium));
  layers.set("core.analyze_p50_us.large", median(large));
  layers.set("core.breakpoints", static_cast<double>(per_pass.breakpoints()));
  layers.set("core.speedup_breakpoints", static_cast<double>(per_pass.speedup));
  layers.set("core.reset_breakpoints", static_cast<double>(per_pass.reset));
  layers.set("core.lo_breakpoints", static_cast<double>(per_pass.lo));
  layers.set("core.ns_per_breakpoint",
             traced_breakpoints > 0.0 ? busy_ms * 1e6 / traced_breakpoints : 0.0);
  layers.set("core.inexact", static_cast<double>(per_pass.inexact));
}

std::string result_line(const rbs::AnalysisReport& report) {
  // serialize_report ends with four breakpoint counters.
  std::string line = rbs::service::serialize_report(report);
  for (int field = 0; field < 4; ++field) line.erase(line.rfind(','));
  return line;
}

namespace {

/// Periods on the 2-5-10 series from 2 ms to 2 s, in ticks.
const std::vector<rbs::Ticks>& decimal_menu() {
  static const std::vector<rbs::Ticks> menu = {20,   50,   100,  200,   500,
                                               1000, 2000, 5000, 10000, 20000};
  return menu;
}

/// Divisors of 10.08 s (100800 ticks = 2^6 * 3^2 * 5^2 * 7) in [2 ms, 2 s],
/// ascending.
const std::vector<rbs::Ticks>& divisor_menu() {
  static const std::vector<rbs::Ticks> menu = [] {
    std::vector<rbs::Ticks> divisors;
    for (rbs::Ticks d = 20; d <= 20000; ++d)
      if (100800 % d == 0) divisors.push_back(d);
    return divisors;
  }();
  return menu;
}

/// Moves every period to the nearest value of `menu` (ascending), keeping
/// each task's utilizations.
rbs::ImplicitSet snap_periods(const rbs::ImplicitSet& skeleton,
                              const std::vector<rbs::Ticks>& menu) {
  std::vector<rbs::ImplicitTask> tasks;
  for (rbs::ImplicitTask task : skeleton.tasks()) {
    const auto above = std::lower_bound(menu.begin(), menu.end(), task.period);
    rbs::Ticks snapped = above == menu.end() ? menu.back() : *above;
    if (above != menu.begin() &&
        (above == menu.end() || task.period - above[-1] < *above - task.period))
      snapped = above[-1];
    const double u_lo = task.u_lo(), u_hi = task.u_hi();
    task.period = snapped;
    task.c_lo = std::max<rbs::Ticks>(1, std::llround(u_lo * static_cast<double>(snapped)));
    task.c_hi = std::max(task.c_lo, static_cast<rbs::Ticks>(
                                        std::llround(u_hi * static_cast<double>(snapped))));
    tasks.push_back(std::move(task));
  }
  return rbs::ImplicitSet(std::move(tasks));
}

}  // namespace

rbs::TaskSet generate_set(const rbs::GenParams& params, rbs::Rng& rng, Periods periods) {
  for (int draw = 0; draw < 1000; ++draw) {
    std::optional<rbs::ImplicitSet> skeleton = rbs::generate_task_set(params, rng);
    if (!skeleton) continue;
    if (periods == Periods::kDecimal) skeleton = snap_periods(*skeleton, decimal_menu());
    if (periods == Periods::kDivisors) skeleton = snap_periods(*skeleton, divisor_menu());
    const rbs::MinXResult mx = rbs::utilization_min_x(*skeleton);
    if (!mx.feasible) continue;
    for (double x = mx.x; rbs::approx_le(x, 1.0, rbs::kSpeedTol); x += 0.005) {
      const double clamped = std::min(x, 1.0);
      rbs::TaskSet set = skeleton->materialize(clamped, 2.0);
      if (rbs::lo_mode_schedulable(set)) return set;
      if (clamped >= 1.0) break;
    }
  }
  throw std::runtime_error("task-set generator rejected 1000 draws at u_bound " +
                           std::to_string(params.u_bound));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a child
  // of a larger process would report its parent's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

void write_spans(Report& report, const Options& options, const std::vector<SpanRecord>& spans) {
  const std::string path = options.out_dir + "/" + options.workload + ".trace.json";
  // Capped so a fast workload's spans file stays a few tens of MB.
  if (write_chrome_trace(path, spans, 200'000))
    report.info.emplace_back("spans_file", path);
  else
    report.fail("cannot write spans file " + path);
}

}  // namespace perfbench
