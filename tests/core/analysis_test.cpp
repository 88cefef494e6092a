// Tests for the unified Analyzer facade (core/analysis.hpp): the fused
// breakpoint sweep must agree *bit for bit* with the independent
// min_speedup / resetting_time walks it subsumes, across the paper examples,
// dropped-task sets, randomized sets, and the degenerate corners -- and it
// must never visit more breakpoints than the two separate walks combined.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/edf.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "core/dbf.hpp"
#include "core/tuning.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

constexpr AnalysisParts kFused{.speedup = true, .reset = true, .lo = false};

/// Asserts the fused report of `set` at `speed` matches the two independent
/// legacy walks exactly (values, exactness flags, work counters).
void expect_agreement(const TaskSet& set, double speed) {
  SCOPED_TRACE("speed = " + std::to_string(speed));
  const AnalysisReport fused = Analyzer().analyze(set, speed, kFused).value();
  const SpeedupResult speedup = min_speedup(set);
  const ResetResult reset = resetting_time(set, speed);

  EXPECT_DOUBLE_EQ(fused.s_min, speedup.s_min);
  EXPECT_EQ(fused.s_min_exact, speedup.exact);
  EXPECT_DOUBLE_EQ(fused.s_min_error_bound, speedup.error_bound);
  EXPECT_EQ(fused.s_min_argmax, speedup.argmax);
  EXPECT_DOUBLE_EQ(fused.delta_r, reset.delta_r);
  EXPECT_EQ(fused.delta_r_exact, reset.exact);

  // Work accounting: each sub-analysis is charged what its independent walk
  // would pay, and the merged walk can only save (shared ticks fetched once,
  // settled consumers skip foreign ticks).
  EXPECT_EQ(fused.speedup_breakpoints, speedup.breakpoints_visited);
  EXPECT_EQ(fused.reset_breakpoints, reset.breakpoints_visited);
  EXPECT_LE(fused.fused_breakpoints,
            fused.speedup_breakpoints + fused.reset_breakpoints);
}

TEST(AnalysisFacadeTest, AgreesOnPaperExamples) {
  for (double speed : {4.0 / 3.0, 1.5, 2.0, 3.0}) {
    expect_agreement(table1_base(), speed);
    expect_agreement(table1_degraded(), speed);
  }
}

TEST(AnalysisFacadeTest, PaperNumbersComeOutOfOneCall) {
  // Example 1 (s_min = 4/3) and Example 2 (Delta_R(2) = 6) from one sweep.
  const AnalysisReport r = Analyzer().analyze(table1_base(), 2.0).value();
  EXPECT_NEAR(r.s_min, 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.delta_r, 6.0, 1e-12);
  EXPECT_TRUE(r.lo_schedulable);
  EXPECT_TRUE(r.hi_schedulable);  // 2 >= 4/3
  EXPECT_TRUE(r.system_schedulable);
}

TEST(AnalysisFacadeTest, AgreesOnDroppedTaskSets) {
  // LO tasks terminated at the mode switch (gamma = 10 region sets drop all
  // LO service); the implicit Table I skeleton gives a small witness.
  const TaskSet dropped = table1_implicit().materialize_terminating(0.6);
  for (double speed : {1.2, 2.0}) expect_agreement(dropped, speed);

  const TaskSet all_dropped({McTask::lo_terminated("a", 2, 10, 10),
                             McTask::lo_terminated("b", 3, 12, 12)});
  expect_agreement(all_dropped, 1.5);
}

TEST(AnalysisFacadeTest, AgreesWithDiscardedCarryover) {
  const TaskSet dropped = table1_implicit().materialize_terminating(0.6);
  AnalysisLimits limits;
  limits.discard_dropped_carryover = true;
  AnalysisRequest request{dropped, 2.0, 1.0, kFused, limits};
  const AnalysisReport fused = analyze(request).value();
  ResetOptions options;
  options.discard_dropped_carryover = true;
  const ResetResult reset = resetting_time(dropped, 2.0, options);
  EXPECT_DOUBLE_EQ(fused.delta_r, reset.delta_r);
  EXPECT_EQ(fused.reset_breakpoints, reset.breakpoints_visited);
}

TEST(AnalysisFacadeTest, AgreesOnRandomizedSets) {
  Rng rng(2026);
  int analyzed = 0;
  for (int i = 0; i < 200 && analyzed < 40; ++i) {
    GenParams params;
    params.u_bound = 0.3 + 0.2 * static_cast<double>(i % 4);
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    const TaskSet set = skeleton->materialize(mx.x, 2.0);
    SCOPED_TRACE("set " + std::to_string(i));
    expect_agreement(set, 1.1);
    expect_agreement(set, 2.0);
    ++analyzed;
  }
  EXPECT_GE(analyzed, 20);  // the generator must not starve the test
}

TEST(AnalysisFacadeTest, UnpreparedHiTaskGivesInfiniteSmin) {
  // D(LO) == D(HI) with C(HI) > C(LO): positive demand at Delta = 0.
  const TaskSet set({McTask::hi("a", 2, 3, 5, 5, 10)});
  expect_agreement(set, 2.0);
  const AnalysisReport r = Analyzer().analyze(set, 2.0, kFused).value();
  EXPECT_TRUE(std::isinf(r.s_min));
  EXPECT_FALSE(r.hi_schedulable);  // no finite speed suffices
  EXPECT_EQ(r.s_min_argmax, 0);
}

TEST(AnalysisFacadeTest, SpeedBelowUtilizationGivesInfiniteReset) {
  const TaskSet set = table1_base();
  const AnalysisReport r = Analyzer().analyze(set, 0.5, kFused).value();
  EXPECT_GT(r.u_hi, 0.5);  // premise of the corner: s <= U_HI
  EXPECT_TRUE(std::isinf(r.delta_r));
  EXPECT_TRUE(r.delta_r_exact);  // a verdict, not a budget failure
  expect_agreement(set, 0.5);
}

TEST(AnalysisFacadeTest, EmptySetIsTrivial) {
  const AnalysisReport r = Analyzer().analyze(TaskSet{}, 2.0).value();
  EXPECT_DOUBLE_EQ(r.s_min, 0.0);
  EXPECT_DOUBLE_EQ(r.delta_r, 0.0);
  EXPECT_TRUE(r.system_schedulable);
  EXPECT_EQ(r.fused_breakpoints, 0u);
}

TEST(AnalysisFacadeTest, ExhaustedBudgetMatchesLegacyInexactPath) {
  AnalysisLimits limits;
  limits.max_breakpoints = 1;
  AnalysisRequest request{table1_base(), 2.0, 1.0, kFused, limits};
  const AnalysisReport fused = analyze(request).value();
  SpeedupOptions speedup_options;
  speedup_options.max_breakpoints = 1;
  const SpeedupResult speedup = min_speedup(table1_base(), speedup_options);
  ResetOptions reset_options;
  reset_options.max_breakpoints = 1;
  const ResetResult reset = resetting_time(table1_base(), 2.0, reset_options);
  EXPECT_EQ(fused.s_min_exact, speedup.exact);
  EXPECT_DOUBLE_EQ(fused.s_min, speedup.s_min);
  EXPECT_DOUBLE_EQ(fused.s_min_error_bound, speedup.error_bound);
  EXPECT_EQ(fused.delta_r_exact, reset.exact);
  EXPECT_DOUBLE_EQ(fused.delta_r, reset.delta_r);
}

TEST(AnalysisFacadeTest, VerdictsMatchLegacyWrappers) {
  for (const TaskSet& set : {table1_base(), table1_degraded()}) {
    for (double s : {0.9, 1.0, 4.0 / 3.0, 2.0}) {
      const AnalysisReport r = Analyzer().analyze(set, s).value();
      EXPECT_EQ(r.hi_schedulable, hi_mode_schedulable(set, s));
      EXPECT_EQ(r.lo_schedulable, lo_mode_schedulable(set));
      EXPECT_EQ(r.system_schedulable, system_schedulable(set, s));
    }
  }
}

TEST(AnalysisFacadeTest, PartsGateTheVerdicts) {
  // Sub-analyses that were not requested keep conservative defaults.
  const AnalysisReport r =
      Analyzer()
          .analyze(table1_base(), 2.0, {.speedup = false, .reset = true, .lo = false})
          .value();
  EXPECT_FALSE(r.hi_schedulable);
  EXPECT_FALSE(r.lo_schedulable);
  EXPECT_FALSE(r.system_schedulable);
  EXPECT_EQ(r.speedup_breakpoints, 0u);
  EXPECT_NEAR(r.delta_r, 6.0, 1e-12);
}

TEST(AnalysisFacadeTest, RejectsDegenerateRequests) {
  AnalysisRequest request{table1_base(), 0.0, 1.0, kFused, {}};
  EXPECT_FALSE(analyze(request).is_ok());  // reset at speed 0

  request.speed = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(analyze(request).is_ok());  // reset at infinite speed

  request.speed = 2.0;
  request.limits.max_breakpoints = 0;
  EXPECT_FALSE(analyze(request).is_ok());

  request.limits = {};
  request.limits.rel_tol = -1.0;
  EXPECT_FALSE(analyze(request).is_ok());

  request.limits = {};
  request.lo_speed = 0.0;
  request.parts = {.speedup = false, .reset = false, .lo = true};
  EXPECT_FALSE(analyze(request).is_ok());  // LO test at speed 0
}

TEST(AnalysisFacadeTest, InfiniteSpeedIsFineWithoutReset) {
  // The verdict-only question "is HI mode schedulable at unbounded speedup"
  // stays answerable (resilience/partition callers rely on it).
  const AnalysisReport r =
      Analyzer()
          .analyze(table1_base(), std::numeric_limits<double>::infinity(),
                   {.speedup = true, .reset = false, .lo = false})
          .value();
  EXPECT_TRUE(r.hi_schedulable);
}

TEST(AnalysisFacadeTest, AgreesOnLogUniformFig6Sets) {
  // The certify_sweep workload's mix: the Fig. 6 generator with log-uniform
  // periods (more breakpoints per set) at u_bound 0.50 ... 0.95.
  Rng rng(1313);
  int analyzed = 0;
  for (int step = 0; step < 10; ++step) {
    GenParams params;
    params.u_bound = 0.50 + 0.05 * static_cast<double>(step);
    params.log_uniform_periods = true;
    for (int found = 0, draw = 0; found < 3 && draw < 100; ++draw) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) continue;
      SCOPED_TRACE("u_bound " + std::to_string(params.u_bound) + ", draw " +
                   std::to_string(draw));
      expect_agreement(skeleton->materialize(mx.x, 2.0), 2.0);
      ++found;
      ++analyzed;
    }
  }
  EXPECT_GE(analyzed, 20);  // the generator must not starve the test
}

TEST(AnalysisFacadeTest, HugePeriodsAgreeBitForBitNearTickLimit) {
  // Coprime HI periods near 1e17 overflow lcm, so the hyperperiod falls back
  // to kInfTicks and only the envelope rules or the end of the sequences
  // (just below kInfTicks) stop the sweep. Each task's demand stays at or
  // near U * Delta, so the envelope never settles and the walk runs through
  // every window: the running slope * (d - prev) products span gaps of up
  // to ~7e16 ticks and the demand reaches ~1e18, all of which must stay
  // exact (and UB-free under the sanitizer build).
  const Ticks t1 = 100'000'000'000'000'003;
  const Ticks t2 = 100'000'000'000'000'007;
  const Ticks t3 = 100'000'000'000'000'013;
  const TaskSet set({McTask::hi("a", 30'000'000'000'000'000, 30'000'000'000'000'000,
                                30'000'000'000'000'000, t1, t1),
                     McTask::hi("b", 20'000'000'000'000'000, 20'000'000'000'000'000,
                                20'000'000'000'000'000, t2, t2),
                     McTask::hi("c", 1'000'000'000'000'000, 1'000'000'001'000'000,
                                5'000'000'000'000'000, 90'000'000'000'000'000, t3)});

  const AnalysisReport fused = Analyzer().analyze(set, 2.0, kFused).value();
  const SpeedupResult reference = min_speedup(set);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.s_min),
            std::bit_cast<std::uint64_t>(reference.s_min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.s_min_error_bound),
            std::bit_cast<std::uint64_t>(reference.error_bound));
  EXPECT_EQ(fused.s_min_exact, reference.exact);
  EXPECT_EQ(fused.s_min_argmax, reference.argmax);
  EXPECT_EQ(fused.speedup_breakpoints, reference.breakpoints_visited);

  // The walk really went all the way: every DBF_HI tick in (0, kInfTicks).
  std::vector<ArithSeq> seqs;
  for (const McTask& t : set)
    for (const ArithSeq& s : dbf_hi_breakpoints(t)) seqs.push_back(s);
  BreakpointMerger merger(seqs);
  std::size_t positive_ticks = 0;
  while (const auto d = merger.next())
    if (*d > 0) ++positive_ticks;
  EXPECT_EQ(fused.speedup_breakpoints, positive_ticks);
}

TEST(AnalysisFacadeTest, AllDroppedSetCrossesPastTheLastBreakpoint) {
  // Every task dropped: ADB_HI is the constant carry-over, no sequence is
  // merged, and the crossing comes from the tail step after the merger runs
  // dry (value / s), or is 0 once the carry-over is discarded.
  const TaskSet set({McTask::lo_terminated("a", 2, 10, 10), McTask::lo_terminated("b", 3, 12, 12),
                     McTask::lo_terminated("c", 4, 7, 9)});
  for (const bool discard : {false, true})
    for (const double speed : {0.25, 1.0, 1.5, 3.0})
      for (const AnalysisParts parts : {kFused, AnalysisParts{.speedup = false, .reset = true,
                                                              .lo = false}}) {
        SCOPED_TRACE(testing::Message() << "discard " << discard << " speed " << speed
                                        << " speedup part " << parts.speedup);
        AnalysisLimits limits;
        limits.discard_dropped_carryover = discard;
        const AnalysisReport fused = analyze({set, speed, 1.0, parts, limits}).value();
        ResetOptions options;
        options.discard_dropped_carryover = discard;
        const ResetResult reset = resetting_time(set, speed, options);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.delta_r),
                  std::bit_cast<std::uint64_t>(reset.delta_r));
        EXPECT_EQ(fused.delta_r_exact, reset.exact);
        EXPECT_EQ(fused.reset_breakpoints, reset.breakpoints_visited);
        EXPECT_DOUBLE_EQ(fused.delta_r, discard ? 0.0 : 9.0 / speed);
        EXPECT_EQ(fused.reset_breakpoints, discard ? 0u : 1u);
      }
}

/// The speedup part under every breakpoint cap from 1 to the uncapped count:
/// the reported interval [s_min, s_min + error bound] must hold the true
/// s_min (`truth`, from the uncapped run), the bound must not be negative,
/// min_speedup must report the same bits, and no speed below the truth may
/// be certified. Returns the uncapped breakpoint count.
std::size_t expect_sound_under_every_cap(const TaskSet& set, const std::vector<double>& speeds) {
  constexpr AnalysisParts kSpeedupOnly{.speedup = true, .reset = false, .lo = false};
  const AnalysisReport full = Analyzer().analyze(set, 1.0, kSpeedupOnly).value();
  EXPECT_TRUE(full.s_min_exact);
  const double truth = full.s_min;
  std::vector<double> below = speeds;
  below.push_back(truth * (1.0 - 1e-9));
  for (std::size_t cap = 1; cap <= full.speedup_breakpoints; ++cap) {
    SCOPED_TRACE(testing::Message() << "cap " << cap);
    AnalysisLimits limits;
    limits.max_breakpoints = cap;
    SpeedupOptions options;
    options.max_breakpoints = cap;
    const SpeedupResult reference = min_speedup(set, options);
    for (const double speed : below) {
      const AnalysisReport r = analyze({set, speed, 1.0, kSpeedupOnly, limits}).value();
      EXPECT_GE(r.s_min_error_bound, 0.0);
      EXPECT_LE(r.s_min, truth);
      EXPECT_GE(r.s_min + r.s_min_error_bound, truth);
      if (speed < truth) {
        EXPECT_FALSE(r.hi_schedulable) << "speed " << speed;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.s_min),
                std::bit_cast<std::uint64_t>(reference.s_min));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.s_min_error_bound),
                std::bit_cast<std::uint64_t>(reference.error_bound));
      EXPECT_EQ(r.s_min_exact, reference.exact);
    }
  }
  return full.speedup_breakpoints;
}

TEST(AnalysisFacadeTest, BreakpointCapNeverCertifiesBelowTrueSmin) {
  // Table I at 1.32 < 4/3 under a cap of 7 once reported a bound of -0.019
  // and certified the speed; every cap must give a bracketing bound.
  EXPECT_EQ(expect_sound_under_every_cap(table1_base(), {1.32}), 8u);
  expect_sound_under_every_cap(table1_degraded(), {1.32});

  // Seeded Fig. 6 sets (half with log-uniform periods), kept to those whose
  // uncapped walk is short enough to repeat under every cap.
  Rng rng(61);
  int checked = 0;
  for (int draw = 0; draw < 200 && checked < 12; ++draw) {
    GenParams params;
    params.u_bound = 0.50 + 0.05 * static_cast<double>(draw % 10);
    params.log_uniform_periods = draw % 2 == 0;
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    const TaskSet set = skeleton->materialize(mx.x, 2.0);
    const AnalysisReport full =
        Analyzer().analyze(set, 1.0, {.speedup = true, .reset = false, .lo = false}).value();
    if (!full.s_min_exact || full.speedup_breakpoints > 600) continue;
    SCOPED_TRACE(testing::Message() << "draw " << draw);
    expect_sound_under_every_cap(set, {full.s_min - 0.01});
    ++checked;
  }
  EXPECT_GE(checked, 8);  // the generator must not starve the test
}

}  // namespace
}  // namespace rbs
