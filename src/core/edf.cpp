#include "core/edf.hpp"

#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "support/rt_annotations.hpp"
#include "support/tolerance.hpp"

namespace rbs {

namespace {

/// The processor-demand walk up to `delta_max`: visits every merged DBF_LO
/// tick in increasing order, compares the running demand with the supply
/// there and records the verdict in `result`. The running sum equals
/// dbf_lo_total at every visited tick (ticks at or past kInfTicks are never
/// reached), so the verdict and the counts are those of a per-tick re-sum.
///
/// RBS_HOT_PATH: every partition probe and LO-mode verdict runs it, so rt
/// lint keeps it and the merger's next() free of allocation.
RBS_HOT_PATH void walk_lo_demand(TaggedBreakpointMerger& merger, const EdfTestOptions& options,
                                 Ticks delta_max, EdfTestResult& result) {
  const long double speed = options.speed;
  Ticks demand = 0;
  while (auto p = merger.next()) {
    if (p->tick > delta_max) break;
    if (++result.breakpoints_visited > options.max_breakpoints) {
      result.schedulable = false;
      result.conclusive = false;
      return;
    }
    demand += p->jump[0];
    if (static_cast<long double>(demand) > speed * static_cast<long double>(p->tick)) {
      result.schedulable = false;
      result.violation_delta = p->tick;
      return;
    }
  }
  result.schedulable = true;
}

}  // namespace

EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options) {
  EdfTestResult result;
  if (set.empty()) {
    result.schedulable = true;
    return result;
  }

  const double u = set.total_utilization(Mode::LO);
  // DBF_LO(tau_i, D) <= U_i * D + U_i * (T_i - D_i), so demand can exceed
  // speed * D only below bound_slack / (speed - U).
  double bound_slack = 0.0;
  for (const McTask& t : set)
    bound_slack += t.utilization(Mode::LO) *
                   static_cast<double>(t.period(Mode::LO) - t.deadline(Mode::LO));

  // The utilization-vs-speed trichotomy is a *breakpoint* of the analysis:
  // U is a sum of C/T ratios whose mathematical value can equal the speed
  // exactly while the computed double lands an ulp off either side (e.g.
  // three tasks with C/T = 1/3). Route the comparison through the speed
  // tolerance so the degenerate U = speed branch is taken whenever the two
  // are indistinguishable, instead of walking an absurd breakpoint window.
  if (definitely_gt(u, options.speed, kSpeedTol)) {
    result.schedulable = false;
    result.violation_delta = 0;  // asymptotic overload; no single witness point
    return result;
  }

  Ticks delta_max;
  if (definitely_lt(u, options.speed, kSpeedTol)) {
    delta_max = static_cast<Ticks>(bound_slack / (options.speed - u)) + 1;
  } else {
    // U == speed (to tolerance): the bound degenerates. With implicit
    // deadlines (slack exactly 0) demand never exceeds supply; otherwise
    // fall back to the breakpoint budget and report inconclusive if it is
    // exhausted.
    if (approx_zero(bound_slack, kTimeTol)) {
      result.schedulable = true;
      return result;
    }
    delta_max = kInfTicks - 1;
  }

  // DBF_LO jumps by C(LO) at every tick of its sequence and is flat between
  // them, so the walk carries the total as a running sum. The sequences are
  // untagged (mask 0): the merger never drops them and sums their jumps as
  // consumer 0.
  std::vector<TaggedSeq> seqs;
  seqs.reserve(set.size());
  for (const McTask& t : set) seqs.push_back({dbf_lo_breakpoints(t), 0u, t.wcet(Mode::LO)});
  TaggedBreakpointMerger merger(seqs);
  walk_lo_demand(merger, options, delta_max, result);
  return result;
}

bool lo_mode_schedulable(const TaskSet& set, double speed) {
  EdfTestOptions options;
  options.speed = speed;
  return lo_mode_test(set, options).schedulable;
}

}  // namespace rbs
