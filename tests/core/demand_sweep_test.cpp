// Differential tests for the running DBF_HI and ADB_HI states that drive the
// Theorem 2 and Corollary 5 sweeps (core/breakpoints.hpp:
// append_running_seqs, TaggedBreakpointMerger, RunningDemand). At every
// merged DBF_HI tick up to a fixed horizon the running left limit and value
// must equal the direct sums dbf_hi_total_left and dbf_hi_total exactly --
// on seeded random Fig. 6 sets and on hand-built corner tasks (g = 0,
// g >= T(HI), ramps running into the next window, C(LO) = C(HI), D(LO) = T,
// dropped LO tasks, coinciding ticks) -- and likewise ADB_HI against
// adb_hi_total_left / adb_hi_total, with and without the dropped tasks'
// carry-over, while the other family's sums ride along on shared ticks.
#include "core/breakpoints.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/adb.hpp"
#include "core/closed_form.hpp"
#include "core/dbf.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

constexpr unsigned kDemandMask = 1u;
constexpr unsigned kOtherMask = 2u;

/// Adds `task`'s DBF_HI sequences to a running sweep, as the analysis does.
void add_dbf_hi(const McTask& task, std::vector<TaggedSeq>& seqs, RunningDemand& start) {
  append_running_seqs(
      dbf_hi_breakpoints(task), kDemandMask, [&task](Ticks d) { return dbf_hi(task, d); },
      [&task](Ticks d) { return dbf_hi_left(task, d); }, seqs, start);
}

/// Walks the merged stream up to `horizon`, folding every tick past 0 that
/// carries kDemandMask into `state`, and checks the running left limit and
/// value against `left(d)` / `value(d)` there. With `dense`, every integer
/// between two ticks is checked against `value` too (the slope in between).
/// Returns the number of ticks checked.
template <class Value, class LeftLimit>
std::size_t walk_and_compare(const std::vector<TaggedSeq>& seqs, RunningDemand state,
                             Ticks horizon, bool dense, Value value, LeftLimit left) {
  EXPECT_EQ(state.value, value(0)) << "start value";
  TaggedBreakpointMerger merger(seqs);
  std::size_t checked = 0;
  while (const auto p = merger.next()) {
    if (p->tick > horizon) break;
    if (p->tick == 0 || (p->mask & kDemandMask) == 0) continue;
    if (dense)
      for (Ticks d = state.prev + 1; d < p->tick; ++d)
        EXPECT_EQ(state.left_at(d), value(d)) << "between ticks, delta=" << d;
    const Ticks running_left = state.advance(*p);
    EXPECT_EQ(running_left, left(p->tick)) << "left limit at delta=" << p->tick;
    EXPECT_EQ(state.value, value(p->tick)) << "value at delta=" << p->tick;
    ++checked;
  }
  return checked;
}

/// Set-level walk: the running sum against dbf_hi_total / dbf_hi_total_left.
/// The ADB_HI sequences ride along under another mask, as in the fused sweep,
/// and must not disturb the DBF_HI state.
std::size_t check_set(const TaskSet& set, Ticks horizon, bool dense = false) {
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  for (const McTask& t : set) {
    add_dbf_hi(t, seqs, start);
    for (const ArithSeq& s : adb_hi_breakpoints(t)) seqs.push_back({s, kOtherMask});
  }
  return walk_and_compare(
      seqs, start, horizon, dense, [&set](Ticks d) { return dbf_hi_total(set, d); },
      [&set](Ticks d) { return dbf_hi_total_left(set, d); });
}

/// Task-level walk: one (possibly unvalidated) task against dbf_hi itself.
std::size_t check_task(const McTask& task, Ticks horizon) {
  SCOPED_TRACE(describe(task));
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  add_dbf_hi(task, seqs, start);
  return walk_and_compare(
      seqs, start, horizon, /*dense=*/true, [&task](Ticks d) { return dbf_hi(task, d); },
      [&task](Ticks d) { return dbf_hi_left(task, d); });
}

TEST(DemandSweepTest, RandomFig6SetsMatchDirectSums) {
  int checked_sets = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    GenParams params;
    params.u_bound = 0.50 + 0.05 * static_cast<double>(seed % 10);
    params.log_uniform_periods = seed % 2 == 0;
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Degraded LO service (y = 2), and every LO task dropped.
    EXPECT_GT(check_set(skeleton->materialize(mx.x, 2.0), 200'000), 0u);
    EXPECT_GT(check_set(skeleton->materialize_terminating(mx.x), 200'000), 0u);
    ++checked_sets;
  }
  EXPECT_GE(checked_sets, 12);  // the generator must not starve the test
}

TEST(DemandSweepTest, ZeroDeadlineExtension) {
  // g = 0: the ramp starts at every window start, with or without a jump of
  // C(HI) - C(LO) there (the latter gives positive demand at 0).
  EXPECT_GT(check_task(McTask::hi("g0_flat", 2, 2, 5, 5, 10), 60), 0u);
  EXPECT_GT(check_task(McTask::hi("g0_jump", 2, 3, 5, 5, 10), 60), 0u);
}

TEST(DemandSweepTest, ExtensionAtOrBeyondThePeriod) {
  // g >= T(HI) (not a valid model task, but dbf_hi is defined there): the
  // ramp never starts and DBF_HI is a pure staircase.
  EXPECT_GT(check_task(McTask::hi("g_eq_t", 2, 4, 2, 12, 10), 60), 0u);
  EXPECT_GT(check_task(McTask::hi("g_gt_t", 2, 4, 2, 17, 10), 60), 0u);
}

TEST(DemandSweepTest, RampRunsIntoTheNextWindow) {
  // g + C(LO) = T(HI): the ramp saturates exactly at the window start.
  EXPECT_GT(check_task(McTask::hi("ramp_to_t", 3, 5, 3, 10, 10), 60), 0u);
  // g + C(LO) > T(HI): the window start cuts the ramp short.
  EXPECT_GT(check_task(McTask::hi("ramp_past_t", 4, 6, 3, 10, 10), 60), 0u);
}

TEST(DemandSweepTest, EqualBudgetsAndImplicitDeadlines) {
  EXPECT_GT(check_task(McTask::hi("c_lo_eq_c_hi", 3, 3, 4, 9, 12), 72), 0u);
  // D(LO) = T: for a LO task g = 0 and C(HI) = C(LO); for a HI task D(LO) =
  // D(HI) = T with equal budgets.
  EXPECT_GT(check_task(McTask::lo("lo_implicit", 3, 10, 10), 60), 0u);
  EXPECT_GT(check_task(McTask::hi("hi_implicit", 2, 2, 10, 10, 10), 60), 0u);
  EXPECT_GT(check_task(McTask::lo("lo_degraded", 2, 8, 8, 14, 16), 96), 0u);
}

TEST(DemandSweepTest, SameStartSequencesAreMergedOnce) {
  // C(LO) = 0 puts the ramp end on the ramp start; the two sequences of the
  // task must count its jump once.
  const McTask task = McTask::hi("empty_ramp", 0, 2, 4, 9, 12);
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  add_dbf_hi(task, seqs, start);
  EXPECT_EQ(seqs.size(), 2u);
  EXPECT_GT(check_task(task, 72), 0u);
}

TEST(DemandSweepTest, DroppedTasksAddNothing) {
  const McTask dropped = McTask::lo_terminated("dropped", 2, 10, 10);
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  add_dbf_hi(dropped, seqs, start);
  EXPECT_TRUE(seqs.empty());
  EXPECT_EQ(start.value, 0);
  EXPECT_EQ(start.slope, 0);

  const TaskSet mixed({McTask::hi("a", 2, 4, 5, 10, 10), dropped,
                       McTask::lo_terminated("also_dropped", 3, 12, 12),
                       McTask::lo("kept", 1, 6, 15)});
  EXPECT_GT(check_set(mixed, 400, /*dense=*/true), 0u);
}

TEST(DemandSweepTest, CoincidingTicksSumTheirJumps) {
  // "a" and "c" share every ramp start (5 mod 10) and ramp end (7 mod 10),
  // "twin" repeats "a" exactly, and "b"'s ramp start lands on their window
  // starts (10 mod 20).
  const TaskSet set({McTask::hi("a", 2, 4, 5, 10, 10), McTask::hi("twin", 2, 4, 5, 10, 10),
                     McTask::hi("b", 3, 5, 5, 15, 20), McTask::lo("c", 2, 3, 5, 8, 10)});
  EXPECT_GT(check_set(set, 400, /*dense=*/true), 0u);

  // The merged point at 10 carries all four tasks' jumps at once.
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  for (const McTask& t : set) add_dbf_hi(t, seqs, start);
  TaggedBreakpointMerger merger(seqs);
  while (const auto p = merger.next()) {
    if (p->tick < 10) continue;
    EXPECT_EQ(p->tick, 10);
    EXPECT_EQ(p->jump[0], dbf_hi_total(set, 10) - dbf_hi_total_left(set, 10));
    break;
  }
}

/// ADB_HI of `tasks` (a TaskSet, or unvalidated tasks) as a running sum
/// against the per-task sums of adb_hi / adb_hi_left -- adb_hi_total /
/// adb_hi_total_left for a set -- with the DBF_HI sequences riding along as
/// another consumer: on ticks the two families share, their jumps and slope
/// changes must stay apart.
template <class Tasks>
std::size_t check_adb(const Tasks& tasks, bool discard, Ticks horizon, bool dense = false) {
  std::vector<TaggedSeq> seqs;
  RunningDemand start;
  RunningDemand dbf_start;
  for (const McTask& t : tasks) {
    append_running_seqs(
        adb_hi_breakpoints(t), kDemandMask,
        [&t, discard](Ticks d) { return adb_hi(t, d, discard); },
        [&t, discard](Ticks d) { return adb_hi_left(t, d, discard); }, seqs, start);
    append_running_seqs(
        dbf_hi_breakpoints(t), kOtherMask, [&t](Ticks d) { return dbf_hi(t, d); },
        [&t](Ticks d) { return dbf_hi_left(t, d); }, seqs, dbf_start);
  }
  const auto sum = [&tasks](auto term) {
    Ticks total = 0;
    for (const McTask& t : tasks) total += term(t);
    return total;
  };
  return walk_and_compare(
      seqs, start, horizon, dense,
      [&sum, discard](Ticks d) { return sum([=](const McTask& t) { return adb_hi(t, d, discard); }); },
      [&sum, discard](Ticks d) {
        return sum([=](const McTask& t) { return adb_hi_left(t, d, discard); });
      });
}

TEST(DemandSweepTest, RunningAdbMatchesDirectSumsOnFig6Sets) {
  int checked_sets = 0;
  for (std::uint64_t seed = 31; seed <= 54; ++seed) {
    Rng rng(seed);
    GenParams params;
    params.u_bound = 0.50 + 0.05 * static_cast<double>(seed % 10);
    params.log_uniform_periods = seed % 2 == 0;
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const bool discard : {false, true}) {
      EXPECT_GT(check_adb(skeleton->materialize(mx.x, 2.0), discard, 200'000), 0u);
      EXPECT_GT(check_adb(skeleton->materialize_terminating(mx.x), discard, 200'000), 0u);
    }
    ++checked_sets;
  }
  EXPECT_GE(checked_sets, 12);  // the generator must not starve the test
}

TEST(DemandSweepTest, RunningAdbCornerTasks) {
  // g = T(HI) - D(LO) = 0, a ramp that ends on the window start, equal
  // budgets, a dropped task's constant carry-over and tasks whose ticks
  // coincide, checked between ticks too; then, outside a validated set,
  // C(LO) = 0 (ramp start = ramp end, counted once).
  const TaskSet set({McTask::hi("g0", 2, 3, 10, 10, 10), McTask::hi("ramp_to_t", 3, 5, 3, 10, 10),
                     McTask::lo("eq", 3, 8, 12), McTask::lo_terminated("dropped", 2, 10, 10),
                     McTask::hi("twin", 3, 5, 3, 10, 10)});
  const std::vector<McTask> empty_ramp = {McTask::hi("empty_ramp", 0, 2, 4, 9, 12)};
  for (const bool discard : {false, true}) {
    SCOPED_TRACE(testing::Message() << "discard " << discard);
    EXPECT_GT(check_adb(set, discard, 600, /*dense=*/true), 0u);
    EXPECT_GT(check_adb(empty_ramp, discard, 72, /*dense=*/true), 0u);
  }

  // A dropped task alone adds its carry-over to the start value, no sequence.
  const McTask dropped = McTask::lo_terminated("dropped", 2, 10, 10);
  for (const bool discard : {false, true}) {
    std::vector<TaggedSeq> seqs;
    RunningDemand start;
    append_running_seqs(
        adb_hi_breakpoints(dropped), kDemandMask,
        [&dropped, discard](Ticks d) { return adb_hi(dropped, d, discard); },
        [&dropped, discard](Ticks d) { return adb_hi_left(dropped, d, discard); }, seqs, start);
    EXPECT_TRUE(seqs.empty());
    EXPECT_EQ(start.value, discard ? 0 : 2);
    EXPECT_EQ(start.slope, 0);
  }
}

}  // namespace
}  // namespace rbs
