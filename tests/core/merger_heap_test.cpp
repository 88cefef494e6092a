// Property tests for the flat breakpoint heap (core/breakpoints.hpp:
// SeqHeap under BreakpointMerger and TaggedBreakpointMerger) and for the
// running-sum LO-mode walk (core/edf.cpp). The mergers must emit exactly the
// ticks of a brute-force enumeration of their sequences -- sorted and
// deduplicated, with masks OR-ed and jumps / slope changes summed per tick
// and per consumer -- including duplicate starts, singletons (period 0),
// starts at or past kInfTicks and sequences that end just below kInfTicks.
// Given a shrinking mask of live consumers, the tagged merger must emit the
// brute-force merge of the sequences still live. lo_mode_test must agree
// field for field with a walk that re-sums dbf_lo_total at every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "support/tolerance.hpp"

namespace rbs {
namespace {

/// Every element of `s` below kInfTicks, in order; the merger's own rule
/// stops a sequence once its next element would reach kInfTicks.
std::vector<Ticks> enumerate(const ArithSeq& s) {
  std::vector<Ticks> out;
  if (s.start >= kInfTicks) return out;
  for (Ticks at = s.start;; at += s.period) {
    out.push_back(at);
    if (s.period <= 0 || at >= kInfTicks - s.period) break;
  }
  return out;
}

/// Random sequences, every one finite so both sides can be walked to the
/// end: small starts with huge periods, singletons, duplicate starts, starts
/// at or past kInfTicks, and starts a few periods below kInfTicks.
std::vector<TaggedSeq> random_seqs(Rng& rng) {
  std::vector<TaggedSeq> seqs;
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < n; ++i) {
    ArithSeq s;
    switch (rng.uniform_int(0, 5)) {
      case 0:  // singleton
        s = {rng.uniform_int(0, 60), 0};
        break;
      case 1:  // small start, a handful of elements before kInfTicks
        s = {rng.uniform_int(0, 60), rng.uniform_int(kInfTicks / 6, kInfTicks / 2)};
        break;
      case 2: {  // ends near kInfTicks: start around kInfTicks - k*period
        const Ticks period = rng.uniform_int(1, 50);
        s = {kInfTicks - rng.uniform_int(-2, 3) * period - rng.uniform_int(0, 2), period};
        break;
      }
      case 3:  // at or past kInfTicks: dropped at construction
        s = {kInfTicks + rng.uniform_int(0, 2), rng.uniform_int(0, 10)};
        break;
      case 4:  // duplicate of an earlier sequence (same start, maybe same period)
        if (!seqs.empty()) {
          s = seqs[static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<std::int64_t>(seqs.size()) - 1))]
                  .seq;
          if (rng.uniform_int(0, 1) == 1) s.period = 0;
        } else {
          s = {0, 0};
        }
        break;
      default:  // singleton just below kInfTicks
        s = {kInfTicks - rng.uniform_int(1, 5), 0};
        break;
    }
    seqs.push_back({s, 1u << rng.uniform_int(0, 3), rng.uniform_int(-5, 5),
                    rng.uniform_int(-3, 3)});
  }
  return seqs;
}

/// The consumer a sequence's jump and slope change count toward: its lowest
/// mask bit, or 0 for an untagged sequence.
unsigned consumer_of(unsigned mask) {
  for (unsigned c = 0; c < kTaggedConsumers; ++c)
    if ((mask & (1u << c)) != 0) return c;
  return 0;
}

/// Adds sequence `s`'s element at `at` to the brute-force point `p`.
void add_to_point(const TaggedSeq& s, Ticks at, TaggedBreakpointMerger::Point& p) {
  p.tick = at;
  p.mask |= s.mask;
  p.jump[consumer_of(s.mask)] += s.jump;
  p.dslope[consumer_of(s.mask)] += s.dslope;
}

void expect_same_point(const TaggedBreakpointMerger::Point& got,
                       const TaggedBreakpointMerger::Point& want) {
  EXPECT_EQ(got.tick, want.tick);
  EXPECT_EQ(got.mask, want.mask) << "tick " << want.tick;
  for (unsigned c = 0; c < kTaggedConsumers; ++c) {
    EXPECT_EQ(got.jump[c], want.jump[c]) << "tick " << want.tick << " consumer " << c;
    EXPECT_EQ(got.dslope[c], want.dslope[c]) << "tick " << want.tick << " consumer " << c;
  }
}

TEST(MergerHeapTest, TaggedMergerMatchesBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::vector<TaggedSeq> seqs = random_seqs(rng);
    std::map<Ticks, TaggedBreakpointMerger::Point> expected;
    for (const TaggedSeq& s : seqs)
      for (Ticks at : enumerate(s.seq)) add_to_point(s, at, expected[at]);
    TaggedBreakpointMerger merger(seqs);
    for (const auto& [tick, want] : expected) {
      const std::optional<TaggedBreakpointMerger::Point> got = merger.next();
      ASSERT_TRUE(got.has_value()) << "missing tick " << tick;
      expect_same_point(*got, want);
    }
    EXPECT_FALSE(merger.next().has_value());
    EXPECT_FALSE(merger.next().has_value());
  }
}

TEST(MergerHeapTest, LiveMaskDropsSettledConsumersOnly) {
  // The random sequences, some tagged for two consumers and some untagged,
  // walked while consumers leave the live mask one by one at random calls.
  // Each call must emit the smallest tick past the last one among the
  // sequences still serving a live consumer (or untagged), with the sums of
  // exactly those sequences on it.
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    std::vector<TaggedSeq> seqs = random_seqs(rng);
    for (TaggedSeq& s : seqs) {
      const auto kind = rng.uniform_int(0, 5);
      if (kind == 0) s.mask = 0;
      if (kind == 1) s.mask |= 1u << rng.uniform_int(0, 3);
    }
    std::vector<std::vector<Ticks>> elements;
    for (const TaggedSeq& s : seqs) elements.push_back(enumerate(s.seq));
    std::int64_t leaves_at[kTaggedConsumers];  // call index a consumer settles at
    for (std::int64_t& at : leaves_at) at = rng.uniform_int(0, 12);

    TaggedBreakpointMerger merger(seqs);
    Ticks last = -1;
    for (std::int64_t call = 0;; ++call) {
      unsigned live = 0;
      for (unsigned c = 0; c < kTaggedConsumers; ++c)
        if (call < leaves_at[c]) live |= 1u << c;
      const auto serves = [live](const TaggedSeq& s) { return s.mask == 0 || (s.mask & live) != 0; };
      Ticks tick = kInfTicks;
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        if (!serves(seqs[i])) continue;
        const auto it = std::upper_bound(elements[i].begin(), elements[i].end(), last);
        if (it != elements[i].end()) tick = std::min(tick, *it);
      }
      const std::optional<TaggedBreakpointMerger::Point> got = merger.next(live);
      if (tick == kInfTicks) {
        EXPECT_FALSE(got.has_value()) << "call " << call;
        break;
      }
      ASSERT_TRUE(got.has_value()) << "call " << call << " missing tick " << tick;
      TaggedBreakpointMerger::Point want;
      for (std::size_t i = 0; i < seqs.size(); ++i)
        if (serves(seqs[i]) && std::binary_search(elements[i].begin(), elements[i].end(), tick))
          add_to_point(seqs[i], tick, want);
      expect_same_point(*got, want);
      last = tick;
    }
  }
}

TEST(MergerHeapTest, PlainMergerMatchesBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<ArithSeq> seqs;
    std::vector<Ticks> expected;
    for (const TaggedSeq& s : random_seqs(rng)) {
      seqs.push_back(s.seq);
      const std::vector<Ticks> elements = enumerate(s.seq);
      expected.insert(expected.end(), elements.begin(), elements.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    BreakpointMerger merger(seqs);
    std::vector<Ticks> got;
    while (const std::optional<Ticks> t = merger.next()) got.push_back(*t);
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(MergerHeapTest, InfiniteSequencesInterleaveInOrder) {
  // Up to 128 unbounded sequences with shared and coprime periods: every
  // merged tick up to a horizon against the union, with its multiplicity.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaggedSeq> seqs;
    const int n = static_cast<int>(rng.uniform_int(1, 128));
    for (int i = 0; i < n; ++i)
      seqs.push_back({{rng.uniform_int(0, 300), rng.uniform_int(1, 300)}, 1u, 1});
    std::map<Ticks, Ticks> count;  // tick -> number of sequences on it
    const Ticks horizon = 20'000;
    for (const TaggedSeq& s : seqs)
      for (Ticks at = s.seq.start; at <= horizon; at += s.seq.period) ++count[at];
    TaggedBreakpointMerger merger(seqs);
    for (const auto& [tick, hits] : count) {
      const auto p = merger.next();
      ASSERT_TRUE(p.has_value());
      ASSERT_EQ(p->tick, tick) << "trial " << trial;
      EXPECT_EQ(p->jump[0], hits) << "trial " << trial << " tick " << tick;
    }
    const auto past = merger.next();
    ASSERT_TRUE(past.has_value());
    EXPECT_GT(past->tick, horizon);
  }
}

// --- LO-mode walk --------------------------------------------------------

/// The LO-mode processor-demand test as a per-tick re-sum of dbf_lo_total
/// over the plain merger: the reference the running-sum walk replaces.
EdfTestResult reference_lo_test(const TaskSet& set, const EdfTestOptions& options) {
  EdfTestResult result;
  if (set.empty()) {
    result.schedulable = true;
    return result;
  }
  const double u = set.total_utilization(Mode::LO);
  double bound_slack = 0.0;
  for (const McTask& t : set)
    bound_slack += t.utilization(Mode::LO) *
                   static_cast<double>(t.period(Mode::LO) - t.deadline(Mode::LO));
  if (definitely_gt(u, options.speed, kSpeedTol)) return result;
  Ticks delta_max;
  if (definitely_lt(u, options.speed, kSpeedTol)) {
    delta_max = static_cast<Ticks>(bound_slack / (options.speed - u)) + 1;
  } else {
    if (approx_zero(bound_slack, kTimeTol)) {
      result.schedulable = true;
      return result;
    }
    delta_max = kInfTicks - 1;
  }
  std::vector<ArithSeq> seqs;
  for (const McTask& t : set) seqs.push_back(dbf_lo_breakpoints(t));
  BreakpointMerger merger(seqs);
  while (auto d = merger.next()) {
    if (*d > delta_max) break;
    if (++result.breakpoints_visited > options.max_breakpoints) {
      result.conclusive = false;
      return result;
    }
    const long double supply =
        static_cast<long double>(options.speed) * static_cast<long double>(*d);
    if (static_cast<long double>(dbf_lo_total(set, *d)) > supply) {
      result.violation_delta = *d;
      return result;
    }
  }
  result.schedulable = true;
  return result;
}

void expect_same_lo(const TaskSet& set, const EdfTestOptions& options) {
  const EdfTestResult got = lo_mode_test(set, options);
  const EdfTestResult want = reference_lo_test(set, options);
  EXPECT_EQ(got.schedulable, want.schedulable);
  EXPECT_EQ(got.conclusive, want.conclusive);
  EXPECT_EQ(got.violation_delta, want.violation_delta);
  EXPECT_EQ(got.breakpoints_visited, want.breakpoints_visited);
}

/// The 10-task core of a multicore_resilience system whose U(LO) is exactly
/// 1 with one constrained deadline: the walk runs to the breakpoint cap.
TaskSet full_utilization_core() {
  const Ticks params[][3] = {{2328, 2328, 16800}, {3013, 16800, 16800}, {2025, 16800, 16800},
                             {1304, 11200, 11200}, {1253, 11200, 11200}, {1311, 14400, 14400},
                             {497, 5600, 5600},    {966, 12600, 12600},  {323, 5040, 5040},
                             {128, 10080, 10080}};
  std::vector<McTask> tasks;
  for (const auto& p : params)
    tasks.push_back(McTask::lo("t" + std::to_string(tasks.size()), p[0], p[1], p[2]));
  return TaskSet(std::move(tasks));
}

TEST(LoWalkTest, FullUtilizationCoreUnderSmallBudgets) {
  const TaskSet set = full_utilization_core();
  ASSERT_TRUE(approx_eq(set.total_utilization(Mode::LO), 1.0, kSpeedTol));
  for (std::size_t cap : {1u, 2u, 17u, 1000u, 4096u, 50'000u}) {
    SCOPED_TRACE(cap);
    EdfTestOptions options;
    options.max_breakpoints = cap;
    expect_same_lo(set, options);
    EXPECT_FALSE(lo_mode_test(set, options).conclusive);
  }
}

TEST(LoWalkTest, HandBuiltFullUtilizationSets) {
  // U(LO) = 1 with constrained deadlines: one violates early, one only at
  // the cap; plus an implicit-deadline set the slack rule settles at once.
  const std::vector<TaskSet> sets = {
      TaskSet({McTask::lo("a", 2, 3, 4), McTask::lo("b", 2, 4, 4)}),
      TaskSet({McTask::lo("a", 2, 2, 4), McTask::lo("b", 2, 3, 4)}),
      TaskSet({McTask::hi("h", 2, 3, 3, 4, 4), McTask::lo("l", 3, 6, 6)}),
      TaskSet({McTask::lo("a", 1, 3, 3), McTask::lo("b", 1, 3, 3), McTask::lo("c", 1, 3, 3)}),
  };
  for (std::size_t i = 0; i < sets.size(); ++i)
    for (std::size_t cap : {3u, 64u, 10'000u}) {
      SCOPED_TRACE(testing::Message() << "set " << i << " cap " << cap);
      EdfTestOptions options;
      options.max_breakpoints = cap;
      expect_same_lo(sets[i], options);
    }
}

TEST(LoWalkTest, RandomConstrainedSetsAcrossSpeeds) {
  Rng rng(515);
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    GenParams params;
    params.u_bound = 0.4 + 0.5 * rng.uniform(0.0, 1.0);
    params.period_max = 2000;
    const std::optional<ImplicitSet> skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    // Shrink LO deadlines of HI tasks (x < 1) so the walk has work to do.
    const TaskSet set = skeleton->materialize(0.3 + 0.7 * rng.uniform(0.0, 1.0), 2.0);
    for (double speed : {0.7, 0.9, 1.0, 1.1, 1.5}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " speed " << speed);
      EdfTestOptions options;
      options.speed = speed;
      options.max_breakpoints = 200'000;
      expect_same_lo(set, options);
    }
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace rbs
