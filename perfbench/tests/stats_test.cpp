// Checks the tail rule, the median and the result digest (stats.hpp).
// Exits non-zero on the first failed check; run by tests/test_run.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

int main() {
  using perfbench::tail;

  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  const perfbench::Tail t1000 = tail(one_to(1000));
  check(t1000.percentile == 99.0, "1000 samples read p99");
  check(t1000.beyond == 10, "1000 samples leave 10 beyond p99");
  check(t1000.value == 990.0, "p99 of 1..1000 is 990");

  // 999 samples: p99 would leave 9 beyond, so the rule falls back to p90.
  const perfbench::Tail t999 = tail(one_to(999));
  check(t999.percentile == 90.0, "999 samples read p90");
  check(t999.beyond == 99, "999 samples leave 99 beyond p90");
  check(t999.value == 900.0, "p90 of 1..999 is 900");

  // 10000 samples reach p99.9; order of the input does not matter.
  std::vector<double> shuffled = one_to(10000);
  std::reverse(shuffled.begin(), shuffled.end());
  const perfbench::Tail t10k = tail(shuffled);
  check(t10k.percentile == 99.9, "10000 samples read p99.9");
  check(t10k.beyond == 10 && t10k.value == 9990.0, "p99.9 of 1..10000 is 9990");

  // Fewer than 20 samples: only the median, with what lies beyond it.
  const perfbench::Tail t5 = tail(one_to(5));
  check(t5.percentile == 50.0 && t5.beyond == 2 && t5.value == 3.0, "5 samples read p50");
  check(tail({}).samples == 0 && tail({}).value == 0.0, "no samples read 0");

  // Every sample beyond the reported value is strictly above... or tied.
  for (std::size_t n : {20u, 99u, 100u, 101u, 1999u, 2000u, 123456u}) {
    const perfbench::Tail t = tail(one_to(n));
    check(t.beyond >= 10, "at least 10 samples beyond the tail");
    check(t.value == static_cast<double>(n - t.beyond), "value ranks n - beyond");
  }

  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

  perfbench::Digest a, b, c;
  a.add_line("x");
  a.add_line("y");
  b.add_line("x");
  b.add_line("y");
  c.add_line("y");
  c.add_line("x");
  check(a.hex() == b.hex(), "equal lines, equal digest");
  check(a.hex() != c.hex(), "order changes the digest");
  check(perfbench::Digest().hex() == "cbf29ce484222325", "empty digest is the FNV offset basis");

  if (failures == 0) std::puts("stats_test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
