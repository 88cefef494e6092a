// service_mixed: an in-process AnalysisServer driven as a closed loop.
//
// One client thread keeps kWindow requests in flight against a server with
// two workers: it submits until kWindow are outstanding, then waits for the
// oldest before submitting the next. A closed loop measures the server's
// speed instead of the outcome of a shed race: the backlog never exceeds
// kWindow, which is below the admission threshold (hi_enter_depth = 64), so
// nothing is shed and ok_frac stays 1 unless something really fails. An
// open-loop generator on a shared host is itself descheduled for tens of
// milliseconds at a time, which turns into latency and shedding that belong
// to the generator, not the server.
//
// Requests draw their task set (u = 0.7, periods snapped to the 2-5-10 ms
// series, about 0.1 ms of analysis each)
// from a working set four times the cache's LRU capacity, so about a
// quarter hit the cache and duplicates in flight coalesce; 30% are
// HI-criticality, striped as in tools/service_load.cpp.
// Cache hits (reads) run beside misses that install entries (writes).
//
// The closed loop's cache has no WAL. The benchmark may write only inside
// its checkout, and on an ext4 checkout the fsync per publish (made under
// the cache lock) made pass throughput swing 3.5x within one run. A traced
// run times WAL publishes separately (service.wal_publish_us), on the same
// filesystem.
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

namespace service = rbs::service;

constexpr std::size_t kWorkingSet = 4096;            ///< distinct task sets
constexpr std::size_t kCapacity = kWorkingSet / 4;  ///< LRU entries
constexpr std::size_t kRequests = 8000;             ///< the request sequence
constexpr std::size_t kPassRequests = 100;          ///< requests per pass
constexpr std::size_t kWindow = 8;                  ///< requests in flight
constexpr unsigned kWorkers = 2;
constexpr std::size_t kBurst = 160;  ///< admission probe: > hi_enter_depth
constexpr std::size_t kWalPublishes = 1000;
constexpr double kSpeed = 2.0;

bool is_hi(std::size_t index) { return index % 100 < 30; }

struct ReplayResult {
  std::vector<std::string> values;  ///< response bytes per request
  std::vector<std::uint64_t> breakpoints;  ///< per request; 0 on a hit
  CoreWork work;                    ///< analyses actually run
  std::uint64_t misses = 0;
};

struct State {
  std::vector<rbs::TaskSet> sets;
  std::vector<std::size_t> set_of;  ///< request -> working-set index
  std::vector<rbs::AnalysisRequest> requests;
  ReplayResult replay;  ///< the deterministic single-threaded pass
  std::string digest;
  std::string wal_path;  ///< WAL of the traced run's publish probe
  std::optional<service::AnalysisServer> server;
  std::uint64_t next_id = 0;
  std::size_t next_pass = 0;
};

/// An LRU cache of kCapacity entries; with a non-empty `wal_path` it starts
/// a fresh WAL there.
service::ResultCache open_cache(const std::string& wal_path) {
  if (!wal_path.empty()) std::remove(wal_path.c_str());
  service::ResultCache::Options options;
  options.capacity = kCapacity;
  options.journal_path = wal_path;
  auto cache = service::ResultCache::open(options);
  if (!cache.is_ok()) throw std::runtime_error("cache: " + cache.status().message());
  return std::move(cache).value();
}

/// The server's per-request pipeline, replayed in request order on one
/// thread: cache_key -> lookup_or_begin -> analyze -> serialize_report ->
/// publish. Its hits and misses depend only on the request sequence.
ReplayResult replay(const State& state) {
  service::ResultCache cache = open_cache("");
  const rbs::Analyzer analyzer;
  ReplayResult out;
  for (std::size_t r = 0; r < state.requests.size(); ++r) {
    const Span request_span("service.replay", r);
    std::string key;
    {
      const Span span("service.cache_key", r);
      key = service::cache_key(state.requests[r]);
    }
    service::ResultCache::Lookup lookup;
    {
      const Span span("service.lookup", r);
      lookup = cache.lookup_or_begin(key);
    }
    out.breakpoints.push_back(0);
    if (lookup.hit) {
      out.values.push_back(std::move(lookup.value));
      continue;
    }
    rbs::Expected<rbs::AnalysisReport> report = rbs::Status::error("not run");
    {
      const Span span("core.analyze", r);
      report = analyzer.analyze(state.requests[r]);
    }
    if (!report.is_ok()) throw std::runtime_error("replay: " + report.status().message());
    ++out.misses;
    out.work.add(*report);
    out.breakpoints.back() = report->fused_breakpoints + report->lo_breakpoints;
    std::string value;
    {
      const Span span("service.serialize", r);
      value = service::serialize_report(*report);
    }
    {
      const Span span("service.publish", r);
      const rbs::Status wal = cache.publish(key, value);
      if (!wal.is_ok()) throw std::runtime_error("replay publish: " + wal.message());
    }
    out.values.push_back(std::move(value));
  }
  return out;
}

/// Publishes the first kWalPublishes distinct results into a cache with a
/// WAL, one "service.wal_publish" span each: an append and an fsync under
/// the cache lock, on the checkout's filesystem.
void wal_probe(const State& state) {
  service::ResultCache cache = open_cache(state.wal_path);
  std::size_t published = 0;
  for (std::size_t r = 0; r < state.requests.size() && published < kWalPublishes; ++r) {
    const std::string key = service::cache_key(state.requests[r]);
    if (!cache.lookup_or_begin(key).leader) continue;
    const Span span("service.wal_publish", r);
    const rbs::Status wal = cache.publish(key, state.replay.values[r]);
    if (!wal.is_ok()) throw std::runtime_error("WAL publish: " + wal.message());
    ++published;
  }
}

struct ClosedLoopPass {
  std::size_t first = 0;  ///< index of the pass's first request
  PassResult pass;
  std::vector<service::Response> responses;
};

/// One pass of the closed loop over the next kPassRequests requests.
ClosedLoopPass closed_loop(State& state) {
  struct InFlight {
    std::size_t index = 0;
    Clock::time_point start;
    std::future<service::Response> future;
  };
  ClosedLoopPass out;
  out.first = (state.next_pass++ * kPassRequests) % kRequests;
  out.pass.latency_ms.resize(kPassRequests);
  out.responses.resize(kPassRequests);
  std::deque<InFlight> window;
  const auto complete_oldest = [&] {
    InFlight& oldest = window.front();
    out.responses[oldest.index - out.first] = oldest.future.get();
    const Clock::time_point end = Clock::now();
    const double ms = seconds_between(oldest.start, end) * 1e3;
    out.pass.latency_ms[oldest.index - out.first] = ms;
    if (is_hi(oldest.index)) out.pass.hi_latency_ms.push_back(ms);
    record_span("service.request", oldest.start, end, oldest.index);
    window.pop_front();
  };
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t r = out.first; r < out.first + kPassRequests; ++r) {
    if (window.size() >= kWindow) complete_oldest();
    InFlight entry;
    entry.index = r;
    entry.start = Clock::now();
    entry.future = state.server->submit(state.next_id++, state.requests[r]);
    window.push_back(std::move(entry));
  }
  while (!window.empty()) complete_oldest();
  out.pass.wall_s = seconds_between(pass_start, Clock::now());
  out.pass.attempted = kPassRequests;
  return out;
}

/// Checks every response against the replay, outside the timing.
void verify(const State& state, ClosedLoopPass& run, Report& report) {
  for (std::size_t k = 0; k < kPassRequests; ++k) {
    const std::size_t r = run.first + k;
    const service::Response& response = run.responses[k];
    if (!response.status.is_ok())
      report.fail("request " + std::to_string(r) + ": " + response.status.message());
    else if (response.degraded)
      report.fail("request " + std::to_string(r) + ": served degraded");
    else if (response.serialized != state.replay.values[r])
      report.fail("request " + std::to_string(r) +
                  ": response differs from serialize_report(analyze(request))");
    else
      ++run.pass.ok;
  }
}

std::unique_ptr<State> setup(const Options& options) {
  auto state = std::make_unique<State>();
  state->wal_path = options.out_dir + "/service_mixed.wal";
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    rbs::Rng rng(rbs::campaign::item_seed(options.seed, i));
    rbs::GenParams params;
    params.u_bound = 0.7;
    state->sets.push_back(generate_set(params, rng, Periods::kDecimal));
  }
  rbs::Rng pick(rbs::campaign::item_seed(options.seed, kWorkingSet));
  for (std::size_t r = 0; r < kRequests; ++r) {
    const auto index = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(kWorkingSet) - 1));
    state->set_of.push_back(index);
    rbs::AnalysisRequest request;
    request.set = state->sets[index];
    request.speed = kSpeed;
    request.priority = is_hi(r) ? rbs::Criticality::HI : rbs::Criticality::LO;
    state->requests.push_back(std::move(request));
  }
  state->replay = replay(*state);
  Digest digest;
  for (const std::string& value : state->replay.values) {
    const auto parsed = service::parse_report(value);
    if (!parsed.is_ok()) throw std::runtime_error("replay value does not parse");
    digest.add_line(result_line(*parsed));
  }
  state->digest = digest.hex();

  service::ServerOptions server_options;
  server_options.workers = kWorkers;
  server_options.cache.capacity = kCapacity;
  auto server = service::AnalysisServer::open(server_options);
  if (!server.is_ok()) throw std::runtime_error("server: " + server.status().message());
  state->server.emplace(std::move(server).value());
  // Warm-up: one closed-loop pass starts the workers and the cache.
  Report scratch;
  ClosedLoopPass warm = closed_loop(*state);
  verify(*state, warm, scratch);
  if (!scratch.correct) throw std::runtime_error("warm-up pass: " + scratch.errors.front());
  return state;
}

/// Admission probe: a paused server takes a fixed burst larger than
/// hi_enter_depth before its workers start, so every admission decision
/// depends only on the burst, never on timing.
void admission_probe(const State& state, LayerMetrics& layers, Report& report) {
  service::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = kBurst + 1;  // HI submits must never block here
  options.cache.capacity = kCapacity;
  options.start_paused = true;
  auto server = service::AnalysisServer::open(options);
  if (!server.is_ok()) throw std::runtime_error("probe server: " + server.status().message());
  std::vector<std::future<service::Response>> futures;
  for (std::size_t r = 0; r < kBurst; ++r) futures.push_back(server->submit(r, state.requests[r]));
  server->start();
  server->drain();
  std::uint64_t hi_shed = 0;
  for (std::size_t r = 0; r < kBurst; ++r) {
    const service::Response response = futures[r].get();
    if (response.status.is_overloaded() && is_hi(r)) ++hi_shed;
  }
  const service::ServiceStats stats = server->stats();
  layers.set("admission.shed_lo", static_cast<double>(stats.shed_lo));
  layers.set("admission.degraded", static_cast<double>(stats.degraded));
  layers.set("admission.mode_switches", static_cast<double>(stats.mode_switches_to_hi));
  layers.set("admission.hi_shed", static_cast<double>(hi_shed));
  if (hi_shed != 0) report.fail("admission probe shed " + std::to_string(hi_shed) + " HI requests");
  if (stats.mode_switches_to_hi == 0) report.fail("admission probe never switched to HI");
}

double mean_us(const std::vector<SpanRecord>& spans, const char* name, double per) {
  double total = 0.0;
  for (double us : durations_us(spans, name)) total += us;
  return per > 0.0 ? total / per : 0.0;
}

}  // namespace

void run_service_mixed(const Options& options, Report& report) {
  std::unique_ptr<State> state;
  const std::vector<double> setup_s = repeat_setup<State>(
      kSetupRepeats, options.process_start, [&] { return setup(options); }, state);
  report.digest = state->digest;
  report.counters.core_breakpoints = state->replay.work.breakpoints();
  report.counters.service_cache_misses = state->replay.misses;
  report.info.emplace_back("config", "requests=8000 pass=100 working_set=4096 "
                                     "lru=1024 in_flight=8 workers=2 hi_percent=30 u_bound=0.7 "
                                     "periods=2-5-10ms speed=2.0 wal=none");

  const auto pass = [&] {
    ClosedLoopPass run = closed_loop(*state);
    verify(*state, run, report);
    return run.pass;
  };
  if (!options.trace) {
    const std::vector<PassResult> passes = run_passes(options.seconds, 1, pass);
    summarize_end_to_end(report, setup_s, passes);
    const WindowStats hi = window_stats(passes, &PassResult::hi_latency_ms);
    report.info.emplace_back("hi_tail_ms", std::to_string(hi.tail));
    report.info.emplace_back("hi_tail_percentile", std::to_string(hi.last.percentile));
    return;
  }
  const std::vector<PassResult> untraced = run_passes(options.seconds / 2, 1, pass);
  const service::ServiceStats before = state->server->stats();
  set_tracing(true);
  const std::vector<PassResult> traced = run_passes(options.seconds / 2, 1, pass);
  const service::ServiceStats after = state->server->stats();
  const ReplayResult traced_replay = replay(*state);
  if (traced_replay.values != state->replay.values) report.fail("traced replay differs");
  wal_probe(*state);
  LayerMetrics layers;
  admission_probe(*state, layers, report);
  set_tracing(false);
  count_items(report, untraced);
  count_items(report, traced);

  const std::vector<SpanRecord> spans = collect_spans();
  summarize_core(
      layers, spans, state->replay.work,
      [&](std::uint64_t r) { return state->sets[state->set_of[r]].size(); },
      [&](std::uint64_t r) { return state->replay.breakpoints[r]; });

  const std::vector<double> request_us = durations_us(spans, "service.request");
  layers.set("service.submit_p50_us", median(request_us));
  layers.set("service.submit_tail_us", tail(request_us).value);
  layers.set("service.hi_tail_ms",
             window_stats(untraced, &PassResult::hi_latency_ms).tail);
  const std::uint64_t completed = after.completed - before.completed;
  const std::uint64_t served_from_cache =
      (after.cache_hits - before.cache_hits) + (after.coalesced - before.coalesced);
  layers.set("service.cache_hit_ratio",
             completed ? static_cast<double>(served_from_cache) / static_cast<double>(completed)
                       : 0.0);
  layers.set("service.cache_misses", static_cast<double>(state->replay.misses));
  layers.set("service.coalesced", static_cast<double>(after.coalesced - before.coalesced));
  layers.set("service.shed_lo", static_cast<double>(after.shed_lo - before.shed_lo));
  layers.set("service.degraded", static_cast<double>(after.degraded - before.degraded));
  layers.set("service.mode_switches_to_hi",
             static_cast<double>(after.mode_switches_to_hi - before.mode_switches_to_hi));

  // Pipeline parts, as means per replayed request; coord_us is what the
  // closed loop's mean response adds on top of them (queueing, hand-off,
  // the hit path's parse, futures).
  const auto requests = static_cast<double>(kRequests);
  const double parts[] = {mean_us(spans, "service.cache_key", requests),
                          mean_us(spans, "service.lookup", requests),
                          mean_us(spans, "core.analyze", requests),
                          mean_us(spans, "service.serialize", requests),
                          mean_us(spans, "service.publish", requests)};
  layers.set("service.cache_key_us", parts[0]);
  layers.set("service.lookup_us", parts[1]);
  layers.set("service.analyze_us", parts[2]);
  layers.set("service.serialize_us", parts[3]);
  layers.set("service.publish_us", parts[4]);
  layers.set("service.wal_publish_us", median(durations_us(spans, "service.wal_publish")));
  double mean_response = 0.0;
  for (double us : request_us) mean_response += us;
  mean_response = request_us.empty() ? 0.0 : mean_response / static_cast<double>(request_us.size());
  layers.set("service.coord_us",
             mean_response - (parts[0] + parts[1] + parts[2] + parts[3] + parts[4]));

  summarize_trace_overhead(layers, untraced, traced, spans.size());
  report.metrics = layers.entries();
  write_spans(report, options, spans);
}

}  // namespace perfbench
