#include "core/speedup.hpp"

#include <algorithm>
#include <limits>

#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "core/edf.hpp"

namespace rbs {

SpeedupResult min_speedup(const TaskSet& set, const SpeedupOptions& options) {
  SpeedupResult result;
  if (set.empty()) return result;

  // Eq. (8) allows Delta = 0: positive demand in a zero-length interval
  // requires infinite speedup.
  if (dbf_hi_total(set, 0) > 0) {
    result.s_min = std::numeric_limits<double>::infinity();
    result.argmax = 0;
    return result;
  }

  // The Delta -> inf limit of demand/Delta is the HI-mode utilization.
  const double u_hi = set.total_utilization(Mode::HI);
  const double k = static_cast<double>(set.total_hi_wcet());  // DBF_HI <= U*Delta + K

  double best = u_hi;
  Ticks argmax = 0;

  // DBF_HI(delta + T(HI)) = DBF_HI(delta) + C(HI) per task, so the total
  // demand repeats (shifted by U*H) every hyperperiod H = lcm T_i(HI); the
  // mediant inequality then confines the supremum to (0, H] -- enumeration
  // past H would only revisit dominated ratios.
  const Ticks hyperperiod = dbf_hi_hyperperiod(set);

  std::vector<ArithSeq> seqs;
  for (const McTask& t : set)
    for (const ArithSeq& s : dbf_hi_breakpoints(t)) seqs.push_back(s);
  BreakpointMerger merger(seqs);

  while (auto d = merger.next()) {
    if (*d == 0) continue;  // handled above
    if (*d > hyperperiod) break;  // supremum settled exactly (see above)
    if (++result.breakpoints_visited > options.max_breakpoints) {
      // Every ratio from *d on is at most U + K/(*d); clamp at 0 for a cap
      // that fires where the envelope already sits below best.
      result.exact = false;
      result.error_bound = std::max(0.0, (u_hi + k / static_cast<double>(*d)) - best);
      break;
    }
    const double delta = static_cast<double>(*d);
    const double ratio_right = static_cast<double>(dbf_hi_total(set, *d)) / delta;
    const double ratio_left = static_cast<double>(dbf_hi_total_left(set, *d)) / delta;
    if (ratio_right > best) {
      best = ratio_right;
      argmax = *d;
    }
    if (ratio_left > best) {
      best = ratio_left;
      argmax = *d;
    }
    // Beyond Delta, demand/Delta <= U + K/Delta; once that envelope drops to
    // the best ratio seen, the supremum is settled.
    const double slack = (u_hi + k / delta) - best;
    if (slack <= 0) break;
    if (slack <= options.rel_tol * best) {
      result.exact = false;
      result.error_bound = slack;
      break;
    }
  }

  result.s_min = best;
  result.argmax = argmax;
  return result;
}

}  // namespace rbs
