// Oracle tests for the verdict-first multicore callers. partition_first_fit
// probes a core with the LO-mode test first and runs Theorem 2 (plus
// Corollary 5 under a finite reset budget) only when it passes, then takes
// each core's s_min from its last accepted probe; analyze_degraded runs one
// speedup-only sweep per tier. The references below are the straightforward
// forms -- one full analysis per probe plus a full re-analysis of every
// final core, and the composition of the legacy one-shot helpers -- and the
// results must agree with them bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>
#include <vector>

#include "core/analysis.hpp"
#include "core/partition.hpp"
#include "core/reset.hpp"
#include "core/resilience.hpp"
#include "core/speedup.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "support/tolerance.hpp"

namespace rbs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// --- reference partition_first_fit ----------------------------------------

using TieKey = std::tuple<int, Ticks, Ticks, Ticks, Ticks, Ticks, Ticks>;

TieKey tie_key(const McTask& task) {
  return {task.is_hi() ? 0 : 1,
          task.wcet(Mode::LO),    task.wcet(Mode::HI),
          task.deadline(Mode::LO), task.deadline(Mode::HI),
          task.period(Mode::LO),  task.period(Mode::HI)};
}

/// One full analysis per probe: LO, HI and (under a finite reset budget)
/// Delta_R from a single fused call.
bool reference_core_feasible(const std::vector<McTask>& tasks, const CoreBudget& budget) {
  AnalysisRequest request;
  request.set = TaskSet(tasks);
  request.speed = budget.hi_speedup;
  request.parts.reset = std::isfinite(budget.max_reset);
  const Expected<AnalysisReport> report = analyze(request);
  if (!report) return false;
  if (!report->lo_schedulable) return false;
  if (!approx_le(report->s_min, budget.hi_speedup, kSpeedTol)) return false;
  if (std::isfinite(budget.max_reset) &&
      definitely_gt(report->delta_r, budget.max_reset, kTimeTol))
    return false;
  return true;
}

/// First-fit decreasing with a full re-analysis of every final core.
PartitionResult reference_partition(const TaskSet& set, std::size_t cores,
                                    const PartitionOptions& options) {
  PartitionResult result;
  if (cores == 0) return result;
  if (!options.core_budgets.empty() && options.core_budgets.size() != cores) return result;
  result.assignment.assign(cores, {});
  std::vector<std::vector<McTask>> bins(cores);
  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);
  if (options.decreasing) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double wa = set[a].utilization(Mode::LO) + set[a].utilization(Mode::HI);
      const double wb = set[b].utilization(Mode::LO) + set[b].utilization(Mode::HI);
      if (wa != wb) return wa > wb;  // rbs-lint: allow(float-eq)
      return tie_key(set[a]) < tie_key(set[b]);
    });
  }
  for (std::size_t index : order) {
    bool placed = false;
    for (std::size_t c = 0; c < cores && !placed; ++c) {
      bins[c].push_back(set[index]);
      if (reference_core_feasible(bins[c], core_budget(options, c))) {
        result.assignment[c].push_back(index);
        placed = true;
      } else {
        bins[c].pop_back();
      }
    }
    if (!placed) {
      result.rejected_task = index;
      return result;
    }
  }
  result.feasible = true;
  for (std::size_t c = 0; c < cores; ++c) {
    if (bins[c].empty()) {
      result.core_s_min.push_back(0.0);
      result.core_delta_r.push_back(0.0);
      continue;
    }
    AnalysisRequest request;
    request.set = TaskSet(bins[c]);
    request.speed = core_budget(options, c).hi_speedup;
    const Expected<AnalysisReport> report = analyze(request);
    result.core_s_min.push_back(report ? report->s_min : kInf);
    result.core_delta_r.push_back(report ? report->delta_r : kInf);
  }
  return result;
}

void expect_same_partition(const PartitionResult& got, const PartitionResult& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.rejected_task, want.rejected_task);
  ASSERT_EQ(got.core_s_min.size(), want.core_s_min.size());
  ASSERT_EQ(got.core_delta_r.size(), want.core_delta_r.size());
  for (std::size_t c = 0; c < got.core_s_min.size(); ++c) {
    EXPECT_EQ(bits(got.core_s_min[c]), bits(want.core_s_min[c]))
        << "core " << c << ": " << got.core_s_min[c] << " vs " << want.core_s_min[c];
    EXPECT_EQ(bits(got.core_delta_r[c]), bits(want.core_delta_r[c]))
        << "core " << c << ": " << got.core_delta_r[c] << " vs " << want.core_delta_r[c];
  }
}

/// A multicore system built like the multicore benchmarks: one generated
/// per-core workload for each core, concatenated.
TaskSet make_system(Rng& rng, std::size_t cores, double u_per_core) {
  std::vector<McTask> tasks;
  for (std::size_t c = 0; c < cores; ++c) {
    GenParams params;
    params.u_bound = u_per_core;
    params.period_max = 2000;
    std::optional<ImplicitSet> skeleton;
    while (!skeleton) skeleton = generate_task_set(params, rng);
    const TaskSet core = skeleton->materialize(rng.uniform(0.5, 1.0), 2.0);
    tasks.insert(tasks.end(), core.begin(), core.end());
  }
  return TaskSet(std::move(tasks));
}

void check_partition(const TaskSet& set, std::size_t cores, const PartitionOptions& options) {
  expect_same_partition(partition_first_fit(set, cores, options),
                        reference_partition(set, cores, options));
}

TEST(PartitionOracleTest, SeededSystemsUniformBudgets) {
  Rng rng(4242);
  std::size_t feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t cores = trial % 2 == 0 ? 4 : 8;
    const TaskSet set = make_system(rng, cores, rng.uniform(0.3, 0.55));
    for (double speedup : {1.0, 1.5, 2.0}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " speedup " << speedup);
      PartitionOptions options;
      options.hi_speedup = speedup;
      check_partition(set, cores, options);
      (partition_first_fit(set, cores, options).feasible ? feasible : infeasible) += 1;
    }
  }
  // The seeds cover both outcomes, so rejected_task is compared too.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(PartitionOracleTest, FiniteResetBudget) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t cores = trial % 2 == 0 ? 4 : 8;
    const TaskSet set = make_system(rng, cores, 0.4);
    for (double max_reset : {500.0, 5000.0, 50'000.0}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " max_reset " << max_reset);
      PartitionOptions options;
      options.hi_speedup = 2.0;
      options.max_reset = max_reset;
      check_partition(set, cores, options);
    }
  }
}

TEST(PartitionOracleTest, HeterogeneousCoreBudgets) {
  Rng rng(1312);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t cores = trial % 2 == 0 ? 4 : 8;
    const TaskSet set = make_system(rng, cores, 0.4);
    PartitionOptions options;
    for (std::size_t c = 0; c < cores; ++c) {
      CoreBudget budget;
      budget.hi_speedup = 1.0 + 0.25 * static_cast<double>(c % 5);
      budget.max_reset = c % 3 == 0 ? 2000.0 * static_cast<double>(c + 1) : kInf;
      options.core_budgets.push_back(budget);
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    check_partition(set, cores, options);
  }
}

TEST(PartitionOracleTest, InfiniteSpeedupEdge) {
  // hi_speedup = +inf: with no reset budget every probe passes Theorem 2 and
  // the final Delta_R analysis errors, so both figures of every used core
  // are +inf; with a finite reset budget no core accepts anything.
  Rng rng(5);
  for (std::size_t cores : {4u, 8u}) {
    const TaskSet set = make_system(rng, cores, 0.4);
    PartitionOptions open;
    open.hi_speedup = kInf;
    const PartitionResult r = partition_first_fit(set, cores, open);
    check_partition(set, cores, open);
    ASSERT_TRUE(r.feasible);
    for (std::size_t c = 0; c < cores; ++c)
      if (!r.assignment[c].empty()) {
        EXPECT_EQ(r.core_s_min[c], kInf);
        EXPECT_EQ(r.core_delta_r[c], kInf);
      }

    PartitionOptions capped = open;
    capped.max_reset = 1000.0;
    check_partition(set, cores, capped);
    EXPECT_FALSE(partition_first_fit(set, cores, capped).feasible);

    PartitionOptions mixed;
    mixed.core_budgets.assign(cores, CoreBudget{2.0, kInf});
    mixed.core_budgets[1] = CoreBudget{kInf, kInf};
    mixed.core_budgets[2] = CoreBudget{kInf, 3000.0};
    check_partition(set, cores, mixed);
  }
}

TEST(PartitionOracleTest, PlainFirstFitOrder) {
  Rng rng(90);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t cores = trial % 2 == 0 ? 4 : 8;
    const TaskSet set = make_system(rng, cores, 0.45);
    PartitionOptions options;
    options.decreasing = false;
    options.max_reset = trial < 2 ? kInf : 8000.0;
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    check_partition(set, cores, options);
  }
}

// --- reference analyze_degraded ---------------------------------------------

/// analyze_degraded as the composition of the legacy one-shot helpers:
/// min_speedup_value and hi_mode_schedulable per tier, resetting_time for
/// the tier taken.
DegradedGuarantee reference_degraded(const TaskSet& set, double s,
                                     const ResilienceOptions& options) {
  DegradedGuarantee g;
  g.achieved_speed = s;
  g.nominal_s_min = min_speedup_value(set);
  g.s_min_with_fallback = g.nominal_s_min;
  g.delta_r = kInf;
  const ResetOptions ropts{options.discard_dropped_carryover, 20'000'000};
  if (hi_mode_schedulable(set, s)) {
    g.schedulable_unmodified = true;
    g.feasible = true;
    g.delta_r = resetting_time(set, s, ropts).delta_r;
    return g;
  }
  g.hi_mode_misses_licensed = true;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < set.size(); ++i)
    if (!set[i].is_hi() && !set[i].dropped_in_hi()) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return set[a].utilization(Mode::HI) > set[b].utilization(Mode::HI);
  });
  std::vector<std::size_t> terminated;
  for (std::size_t candidate : order) {
    terminated.push_back(candidate);
    const Expected<TaskSet> reduced = apply_termination(set, terminated);
    if (!reduced) break;
    if (hi_mode_schedulable(reduced.value(), s)) {
      g.feasible = true;
      g.fallback.terminated = terminated;
      g.s_min_with_fallback = min_speedup_value(reduced.value());
      g.delta_r = resetting_time(reduced.value(), s, ropts).delta_r;
      return g;
    }
  }
  return g;
}

void expect_same_degraded(const DegradedGuarantee& got, const DegradedGuarantee& want) {
  EXPECT_EQ(bits(got.achieved_speed), bits(want.achieved_speed));
  EXPECT_EQ(bits(got.nominal_s_min), bits(want.nominal_s_min));
  EXPECT_EQ(got.schedulable_unmodified, want.schedulable_unmodified);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.fallback.terminated, want.fallback.terminated);
  EXPECT_EQ(bits(got.s_min_with_fallback), bits(want.s_min_with_fallback));
  EXPECT_EQ(bits(got.delta_r), bits(want.delta_r))
      << got.delta_r << " vs " << want.delta_r;
  EXPECT_EQ(got.hi_mode_misses_licensed, want.hi_mode_misses_licensed);
}

TEST(DegradedOracleTest, MatchesLegacyComposition) {
  Rng rng(3003);
  std::size_t with_fallback = 0;
  for (int trial = 0; trial < 40; ++trial) {
    GenParams params;
    params.u_bound = rng.uniform(0.3, 0.8);
    params.period_max = 2000;
    const std::optional<ImplicitSet> skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    TaskSet set = skeleton->materialize(rng.uniform(0.4, 1.0), 2.0);
    // Every fourth set starts with one LO task already terminated, so the
    // discard ablation acts on the unmodified set as well.
    if (trial % 4 == 3)
      for (std::size_t i = 0; i < set.size(); ++i)
        if (!set[i].is_hi()) {
          set = apply_termination(set, {i}).value();
          break;
        }
    const double s_min = min_speedup_value(set);
    for (double s : {0.5, 0.8, 1.0, 1.2, s_min, 2.0, kInf})
      for (bool discard : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " speed " << s << " discard " << discard);
        ResilienceOptions options;
        options.discard_dropped_carryover = discard;
        const DegradedGuarantee got = analyze_degraded(set, s, options);
        expect_same_degraded(got, reference_degraded(set, s, options));
        if (got.fallback.tier() > 0) {
          ++with_fallback;
          const ResetOptions ropts{discard, 20'000'000};
          const TaskSet reduced = apply_termination(set, got.fallback.terminated).value();
          EXPECT_EQ(bits(degraded_resetting_time(set, s, got.fallback, options)),
                    bits(resetting_time(reduced, s, ropts).delta_r));
        }
      }
  }
  EXPECT_GT(with_fallback, 0u);
}

}  // namespace
}  // namespace rbs
