// multicore_resilience: partitioned systems certified and replayed as the
// items of a supervised campaign.
//
// Each item is a system of 4 or 8 cores (alternating), built like
// bench_multicore's: per-core workloads at u = 0.35 from the Fig. 6
// generator, concatenated, except that periods are snapped to divisors of
// 10.08 s (Periods::kDivisors). First-fit probes sit on the feasibility
// boundary: with freely drawn periods some of them ran the Theorem 2 sweep,
// and with a 2-5-10 ms period menu the LO test at U = 1 exactly, to the
// 20M-breakpoint cap, so single items took 1 to 15 s and no run was
// representative of its seed (perfbench/README.md). The item runs three
// steps:
//   1. partition_first_fit (first-fit decreasing, uniform 2x budget);
//   2. multi::analyze_resilience (k = 1, fail-stop and boost denial);
//   3. for a tolerant system, sim::MulticoreSim::run replays one seeded
//      fail-stop fault at mid-horizon using the resilience plan.
// A pass is one campaign::Supervisor run over the next kPassItems systems
// with jobs = 2 and a JournalWriter, so the campaign engine and its fsynced
// journal are measured too. Most time goes to many small analyses inside
// the partition and resilience callers, which is where per-core memoization
// would show.
#include <sys/stat.h>

#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "campaign/supervisor.hpp"
#include "core/partition.hpp"
#include "multi/resilience.hpp"
#include "sim/multicore.hpp"

namespace perfbench {
namespace {

namespace campaign = rbs::campaign;

constexpr std::size_t kItems = 1200;      ///< the input list
constexpr std::size_t kPassItems = 20;    ///< systems per campaign (pass)
constexpr unsigned kJobs = 2;
constexpr double kUPerCore = 0.35;
constexpr double kSpeedup = 2.0;
constexpr double kHorizon = 200'000.0;  ///< 20 s of simulated time (0.1 ms ticks)

struct System {
  rbs::TaskSet set;
  std::size_t cores = 0;
  std::uint64_t sim_seed = 0;
  std::size_t failing_core = 0;
};

/// Deterministic work and per-layer facts of one item.
struct ItemWork {
  bool partitioned = false;
  std::uint64_t analyzer_calls = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t events = 0;
  std::uint64_t stale_events = 0;
  std::uint64_t migrations = 0;
  std::uint64_t hi_misses = 0;
  double latency_ms = 0.0;
};

struct State {
  std::vector<System> systems;
  std::vector<std::string> expected;  ///< item payloads of the first cycle
  std::vector<ItemWork> work;         ///< first cycle
  std::uint64_t journal_bytes = 0;    ///< first cycle, summed over passes
  std::string journal_path;
  Digest digest;
  std::size_t next_pass = 0;
};

System make_system(std::uint64_t seed, std::size_t index) {
  rbs::Rng rng(campaign::item_seed(seed, index));
  System system;
  system.cores = index % 2 == 0 ? 4 : 8;
  std::vector<rbs::McTask> tasks;
  for (std::size_t c = 0; c < system.cores; ++c) {
    rbs::GenParams params;
    params.u_bound = kUPerCore;
    const rbs::TaskSet core_set = generate_set(params, rng, Periods::kDivisors);
    tasks.insert(tasks.end(), core_set.begin(), core_set.end());
  }
  system.set = rbs::TaskSet(std::move(tasks));
  system.sim_seed = rng.fork_seed();
  system.failing_core = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(system.cores) - 1));
  return system;
}

std::string format(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One campaign item. The payload holds results only (verdicts, margins,
/// spare assignments, the replay's outcome); work counters go to `work`.
std::string run_item(const System& system, std::uint64_t index, ItemWork& work) {
  thread_local rbs::sim::MulticoreSim sim;
  std::string payload;

  rbs::PartitionOptions popts;
  popts.hi_speedup = kSpeedup;
  rbs::PartitionResult partition;
  {
    const Span span("partition.first_fit", index);
    partition = rbs::partition_first_fit(system.set, system.cores, popts);
  }
  work.partitioned = partition.feasible;
  payload += partition.feasible ? "P1" : "P0";
  for (std::size_t c = 0; c < partition.core_s_min.size(); ++c)
    payload += ";" + format(partition.core_s_min[c]) + "/" + format(partition.core_delta_r[c]);
  if (!partition.feasible) return payload;

  rbs::multi::MultiRequest request;
  request.set = system.set;
  request.assignment = partition.assignment;
  rbs::CoreBudget budget;
  budget.hi_speedup = kSpeedup;
  request.budgets.assign(system.cores, budget);
  request.tolerance = 1;
  rbs::Expected<rbs::multi::MultiReport> plan = rbs::Status::error("not run");
  {
    const Span span("multi.analyze_resilience", index);
    plan = rbs::multi::analyze_resilience(request);
  }
  if (!plan.is_ok()) throw std::runtime_error("analyze_resilience: " + plan.status().message());
  work.analyzer_calls = plan->analyzer_calls;
  work.scenarios = plan->scenarios_checked;
  payload += plan->tolerant ? "|T1" : "|T0";
  for (const rbs::multi::FailureScenario& scenario : plan->scenarios) {
    payload += scenario.feasible ? ";F1" : ";F0";
    for (const rbs::multi::MigrationStep& step : scenario.migrations)
      payload += "," + std::to_string(step.task) + ">" + std::to_string(step.to_core);
    for (const rbs::multi::ShedStep& step : scenario.degraded_lo)
      payload += ",s" + std::to_string(step.task);
  }
  if (!plan->tolerant) return payload;

  rbs::sim::MulticoreRequest replay;
  replay.set = system.set;
  replay.assignment = partition.assignment;
  replay.config.horizon = kHorizon;
  replay.config.hi_speed = kSpeedup;
  replay.config.demand.overrun_probability = 0.3;
  replay.config.seed = system.sim_seed;
  replay.core_faults.resize(system.cores);
  replay.core_faults[system.failing_core].core_fail_at = kHorizon / 2;
  replay.plan = &*plan;
  rbs::Expected<rbs::sim::MulticoreReport> run = rbs::Status::error("not run");
  {
    const Span span("sim.run", index);
    run = sim.run(replay);
  }
  if (!run.is_ok()) throw std::runtime_error("MulticoreSim::run: " + run.status().message());
  for (const rbs::sim::SimReport& core : run->cores) {
    work.events += core.counters.events_processed;
    work.stale_events += core.counters.stale_events_dropped;
  }
  work.migrations = run->migrations_applied;
  for (const rbs::sim::DeadlineMiss& miss : run->combined.misses)
    work.hi_misses += system.set[miss.task_index].is_hi() ? 1 : 0;
  const rbs::sim::SimMetrics& m = run->combined;
  payload += "|S" + std::to_string(m.jobs_released) + "," + std::to_string(m.jobs_completed) +
             "," + std::to_string(m.misses.size()) + "," + std::to_string(work.hi_misses) +
             "," + std::to_string(m.jobs_lost_to_fault) + "," + std::to_string(m.mode_switches) +
             "," + std::to_string(run->migrations_applied) + (run->used_plan ? ",plan" : ",noplan");
  return payload;
}

struct CampaignPass {
  campaign::CampaignReport report;
  std::vector<ItemWork> work;
  double wall_s = 0.0;
  std::uint64_t journal_bytes = 0;
};

/// One campaign over systems [first, first + kPassItems).
CampaignPass run_campaign(const State& state, std::uint64_t seed, std::size_t first) {
  CampaignPass pass;
  pass.work.resize(kPassItems);
  const Clock::time_point start = Clock::now();
  const Span span("campaign.run", 0);
  campaign::JournalHeader header;
  header.seed = seed;
  header.items = kPassItems;
  header.tag = "perfbench-multicore_resilience";
  auto journal = campaign::JournalWriter::create(state.journal_path, header);
  if (!journal.is_ok()) throw std::runtime_error("journal: " + journal.status().message());
  campaign::SupervisorOptions options;
  options.campaign.jobs = kJobs;
  options.campaign.seed = seed;
  options.max_attempts = 1;
  options.journal = &journal.value();
  const std::uint64_t parent = span.id();
  pass.report = campaign::Supervisor(options).run(
      kPassItems, [&](std::size_t k, rbs::Rng&, const campaign::CancelToken&) {
        const Clock::time_point item_start = Clock::now();
        std::string payload;
        {
          const Span item("campaign.item", first + k, parent);
          payload = run_item(state.systems[first + k], first + k, pass.work[k]);
        }
        pass.work[k].latency_ms = seconds_between(item_start, Clock::now()) * 1e3;
        return payload;
      });
  pass.wall_s = seconds_between(start, Clock::now());
  struct stat info {};
  if (::stat(state.journal_path.c_str(), &info) == 0)
    pass.journal_bytes = static_cast<std::uint64_t>(info.st_size);
  return pass;
}

std::unique_ptr<State> setup(const Options& options) {
  auto state = std::make_unique<State>();
  state->journal_path = options.out_dir + "/multicore_resilience.journal";
  for (std::size_t i = 0; i < kItems; ++i) state->systems.push_back(make_system(options.seed, i));
  state->expected.resize(kItems);
  state->work.resize(kItems);
  // Warm-up: one campaign over the first slice starts the pool and the
  // journal once before timing.
  const CampaignPass warm = run_campaign(*state, options.seed, 0);
  if (!warm.report.all_completed()) throw std::runtime_error("warm-up campaign failed");
  return state;
}

/// Runs the next campaign, then checks it outside the timing: the first
/// cycle records payloads, counters and the digest; later cycles must
/// reproduce the payloads. Every tolerant replay must miss no HI deadline.
PassResult run_pass(State& state, std::uint64_t seed, Report& report,
                    std::vector<CampaignPass>* keep) {
  const std::size_t first = (state.next_pass++ * kPassItems) % kItems;
  const bool first_cycle = state.next_pass <= kItems / kPassItems;
  CampaignPass run = run_campaign(state, seed, first);
  PassResult pass;
  pass.wall_s = run.wall_s;
  pass.attempted = kPassItems;
  for (std::size_t k = 0; k < kPassItems; ++k) {
    const std::size_t i = first + k;
    const campaign::ItemOutcome& outcome = run.report.items[k];
    pass.latency_ms.push_back(run.work[k].latency_ms);
    if (outcome.state != campaign::ItemOutcome::State::kOk) {
      report.fail("item " + std::to_string(i) + " failed: " + outcome.payload);
      continue;
    }
    if (run.work[k].hi_misses != 0) {
      report.fail("item " + std::to_string(i) + ": tolerant replay missed a HI deadline");
      continue;
    }
    if (first_cycle) {
      state.expected[i] = outcome.payload;
      state.work[i] = run.work[k];
      state.digest.add_line(outcome.payload);
    } else if (outcome.payload != state.expected[i]) {
      report.fail("item " + std::to_string(i) + ": payload differs from the first cycle");
      continue;
    }
    ++pass.ok;
  }
  if (first_cycle) state.journal_bytes += run.journal_bytes;
  if (!run.report.journal_error.empty()) report.fail("journal: " + run.report.journal_error);
  if (keep != nullptr) keep->push_back(std::move(run));
  return pass;
}

void summarize_layers(LayerMetrics& layers, const State& state,
                      const std::vector<SpanRecord>& spans,
                      const std::vector<CampaignPass>& traced_runs) {
  std::uint64_t partitioned = 0, analyzer_calls = 0, scenarios = 0, events = 0, stale = 0,
                migrations = 0, hi_misses = 0;
  for (const ItemWork& w : state.work) {
    partitioned += w.partitioned;
    analyzer_calls += w.analyzer_calls;
    scenarios += w.scenarios;
    events += w.events;
    stale += w.stale_events;
    migrations += w.migrations;
    hi_misses += w.hi_misses;
  }
  const auto busy_ms = [&](const char* name) {
    double total = 0.0;
    for (double us : durations_us(spans, name)) total += us;
    return total / 1e3;
  };
  const auto p50_ms = [&](const char* name) { return median(durations_us(spans, name)) / 1e3; };
  const auto calls = [&](const char* name) {
    return static_cast<double>(durations_us(spans, name).size());
  };
  layers.set("partition.calls", calls("partition.first_fit"));
  layers.set("partition.busy_ms", busy_ms("partition.first_fit"));
  layers.set("partition.p50_ms", p50_ms("partition.first_fit"));
  layers.set("partition.feasible_frac", static_cast<double>(partitioned) / kItems);

  // Analyzer calls made inside the traced resilience spans, for the rate.
  double traced_analyzer_calls = 0.0;
  for (const SpanRecord& span : spans_named(spans, "multi.analyze_resilience"))
    traced_analyzer_calls += static_cast<double>(state.work[span.item].analyzer_calls);
  layers.set("multi.calls", calls("multi.analyze_resilience"));
  layers.set("multi.busy_ms", busy_ms("multi.analyze_resilience"));
  layers.set("multi.p50_ms", p50_ms("multi.analyze_resilience"));
  layers.set("multi.analyzer_calls", static_cast<double>(analyzer_calls));
  layers.set("multi.scenarios", static_cast<double>(scenarios));
  layers.set("multi.us_per_analyzer_call",
             traced_analyzer_calls > 0.0
                 ? busy_ms("multi.analyze_resilience") * 1e3 / traced_analyzer_calls
                 : 0.0);

  double traced_events = 0.0;
  for (const SpanRecord& span : spans_named(spans, "sim.run"))
    traced_events += static_cast<double>(state.work[span.item].events);
  const double sim_ms = busy_ms("sim.run");
  layers.set("sim.calls", calls("sim.run"));
  layers.set("sim.busy_ms", sim_ms);
  layers.set("sim.events", static_cast<double>(events));
  layers.set("sim.events_per_s", sim_ms > 0.0 ? traced_events / (sim_ms / 1e3) : 0.0);
  layers.set("sim.stale_events", static_cast<double>(stale));
  layers.set("sim.migrations", static_cast<double>(migrations));
  layers.set("sim.hi_misses", static_cast<double>(hi_misses));

  // Campaign figures are medians over the traced passes.
  std::vector<double> wall_ms, item_busy_ms, efficiency;
  std::uint64_t retried = 0, quarantined = 0;
  for (const CampaignPass& run : traced_runs) {
    double busy = 0.0;
    for (const ItemWork& w : run.work) busy += w.latency_ms;
    wall_ms.push_back(run.wall_s * 1e3);
    item_busy_ms.push_back(busy);
    efficiency.push_back(busy / (run.wall_s * 1e3 * kJobs));
    retried += run.report.retried;
    quarantined += run.report.quarantined.size();
  }
  layers.set("campaign.wall_ms", median(wall_ms));
  layers.set("campaign.item_busy_ms", median(item_busy_ms));
  // Pass time not covered by any item: journal creation, pool start and
  // join, and the tail where one worker idles.
  layers.set("campaign.run_self_ms",
             traced_runs.empty() ? 0.0
                                 : self_time_us(spans, "campaign.run") / 1e3 /
                                       static_cast<double>(traced_runs.size()));
  layers.set("campaign.efficiency", median(efficiency));
  layers.set("campaign.journal_bytes", static_cast<double>(state.journal_bytes));
  layers.set("campaign.retried", static_cast<double>(retried));
  layers.set("campaign.quarantined", static_cast<double>(quarantined));
}

}  // namespace

void run_multicore_resilience(const Options& options, Report& report) {
  std::unique_ptr<State> state;
  const std::vector<double> setup_s = repeat_setup<State>(
      kSetupRepeats, options.process_start, [&] { return setup(options); }, state);
  report.info.emplace_back("config", "items=1200 pass=20 cores=4|8 u_per_core=0.35 "
                                     "periods=divisors-of-10.08s speedup=2.0 k=1 jobs=2 "
                                     "horizon=200000 overrun_p=0.3");
  const auto finish_counters = [&] {
    report.digest = state->digest.hex();
    for (const ItemWork& w : state->work) {
      report.counters.multi_analyzer_calls += w.analyzer_calls;
      report.counters.sim_events += w.events;
    }
    report.counters.campaign_journal_bytes = state->journal_bytes;
  };
  const std::size_t cycle = kItems / kPassItems;
  std::vector<CampaignPass> traced_runs;
  bool keep_runs = false;
  const auto pass = [&] {
    return run_pass(*state, options.seed, report, keep_runs ? &traced_runs : nullptr);
  };
  if (!options.trace) {
    summarize_end_to_end(report, setup_s, run_passes(options.seconds, cycle, pass));
    finish_counters();
    return;
  }
  const std::vector<PassResult> untraced = run_passes(options.seconds / 2, cycle, pass);
  keep_runs = true;
  set_tracing(true);
  const std::vector<PassResult> traced = run_passes(options.seconds / 2, 1, pass);
  set_tracing(false);
  finish_counters();
  count_items(report, untraced);
  count_items(report, traced);
  const std::vector<SpanRecord> spans = collect_spans();
  LayerMetrics layers;
  summarize_layers(layers, *state, spans, traced_runs);
  summarize_trace_overhead(layers, untraced, traced, spans.size());
  report.metrics = layers.entries();
  write_spans(report, options, spans);
}

}  // namespace perfbench
