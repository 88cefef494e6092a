// Streaming enumeration of breakpoints of piecewise-linear demand functions.
//
// DBF_HI (Lemma 1) and ADB_HI (Theorem 4) are piecewise-linear in the
// interval length with breakpoints on a finite union of arithmetic sequences
// (window starts k*T, ramp starts k*T + g, ramp ends k*T + g + C(LO)). The
// pseudo-polynomial algorithms of Sections III/IV walk these breakpoints in
// increasing order without materialising them, which keeps memory O(#tasks)
// even when the stopping bound is large. Both mergers below sit on one flat
// binary heap of sequences (SeqHeap), sized at construction, where emitting
// a sequence's tick and moving it to its next one is a single sift-down.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "support/rt_annotations.hpp"

namespace rbs {

/// The arithmetic sequence start, start + period, start + 2*period, ...
/// A zero period denotes the singleton {start}.
struct ArithSeq {
  Ticks start = 0;
  Ticks period = 0;
};

/// A binary min-heap of arithmetic sequences keyed on each one's next tick
/// `at`, flat in one vector sized at construction. `Entry` carries at least
/// `at` and `period`; a merger reads the top, then advances it in place with
/// advance_top(): one sift-down per tick where a pop and a push cost two.
/// A sequence is dropped once its next tick would reach kInfTicks (or at
/// once for a singleton, period 0), or when the merger asks for it.
/// Ties on `at` leave no defined order.
template <class Entry>
class SeqHeap {
 public:
  /// Takes every entry with at < kInfTicks (sequences of dropped tasks
  /// start there) and heapifies them; the only allocation of the heap.
  template <class Seqs, class MakeEntry>
  SeqHeap(const Seqs& seqs, MakeEntry make) {
    heap_.reserve(seqs.size());
    for (const auto& s : seqs) {
      const Entry e = make(s);
      if (e.at < kInfTicks) heap_.push_back(e);
    }
    size_ = heap_.size();
    for (std::size_t i = size_ / 2; i-- > 0;) sift_down(i);
  }

  bool empty() const { return size_ == 0; }
  const Entry& top() const { return heap_[0]; }

  /// Moves the top sequence to its next tick, or drops it when exhausted or
  /// when `drop` is set (no consumer needs its ticks any more); one
  /// sift-down either way.
  void advance_top(bool drop = false) {
    Entry& e = heap_[0];
    if (!drop && e.period > 0 && e.at < kInfTicks - e.period) {
      e.at += e.period;
    } else {
      heap_[0] = heap_[--size_];
      if (size_ == 0) return;
    }
    sift_down(0);
  }

 private:
  void sift_down(std::size_t hole) {
    const Entry moving = heap_[hole];
    for (std::size_t child = 2 * hole + 1; child < size_; child = 2 * hole + 1) {
      if (child + 1 < size_ && heap_[child + 1].at < heap_[child].at) ++child;
      if (!(heap_[child].at < moving.at)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = moving;
  }

  std::vector<Entry> heap_;  // [0, size_) is the heap; the tail is dead
  std::size_t size_ = 0;
};

/// Merges several arithmetic sequences into one strictly increasing stream.
class BreakpointMerger {
 public:
  explicit BreakpointMerger(const std::vector<ArithSeq>& seqs)
      : heap_(seqs, [](const ArithSeq& s) { return Entry{s.start, s.period}; }) {}

  /// Next breakpoint strictly greater than all previously returned ones, or
  /// nullopt when all sequences are exhausted (only possible with singletons).
  /// Hot: called once per breakpoint of every pseudo-polynomial walk; the
  /// heap was sized at construction and never reallocates.
  std::optional<Ticks> next() RBS_HOT_PATH {
    while (!heap_.empty()) {
      const Ticks at = heap_.top().at;
      heap_.advance_top();
      if (at > last_) {
        last_ = at;
        return at;
      }
      // duplicate of an already-emitted point: skip
    }
    return std::nullopt;
  }

 private:
  struct Entry {
    Ticks at = 0;
    Ticks period = 0;
  };
  SeqHeap<Entry> heap_;
  Ticks last_ = -1;  // breakpoints are non-negative
};

/// Consumers the tagged merger keeps apart: a sequence's jump and slope
/// change count toward one of them (see TaggedSeq).
inline constexpr unsigned kTaggedConsumers = 4;

/// An arithmetic sequence annotated with the consumers (a bitmask) it serves.
/// The fused analysis sweep (core/analysis.hpp) walks the DBF_HI and ADB_HI
/// breakpoint families in one pass; the mask tells it which sub-analysis each
/// merged tick belongs to, and once a sub-analysis settles the merger drops
/// its sequences instead of walking them on (TaggedBreakpointMerger::next).
///
/// A sequence of a demand the sweep tracks incrementally (RunningDemand) also
/// carries what that demand does at each of its ticks past 0: the jump of the
/// value and the change of the slope. They count toward consumer c, the
/// lowest bit set in `mask` (c = 0 for mask 0), which must be below
/// kTaggedConsumers. Other sequences leave both at 0.
struct TaggedSeq {
  ArithSeq seq;
  unsigned mask = 0;
  Ticks jump = 0;
  Ticks dslope = 0;
};

/// Merges tagged sequences into one strictly increasing stream; each tick is
/// emitted once, carrying the union of the masks and, per consumer, the sums
/// of the jumps and slope changes of the sequences hitting it. Two demands
/// that share ticks (DBF_HI and ADB_HI do) therefore never mix their sums.
class TaggedBreakpointMerger {
 public:
  struct Point {
    Ticks tick = 0;
    unsigned mask = 0;
    Ticks jump[kTaggedConsumers] = {};    ///< summed jumps, by consumer
    Ticks dslope[kTaggedConsumers] = {};  ///< summed slope changes, by consumer
  };

  explicit TaggedBreakpointMerger(const std::vector<TaggedSeq>& seqs)
      : heap_(seqs, [](const TaggedSeq& s) {
          const auto consumer = s.mask == 0 ? 0u : static_cast<unsigned>(std::countr_zero(s.mask));
          assert(consumer < kTaggedConsumers);
          return Entry{s.seq.start, s.seq.period, s.jump, s.dslope, s.mask, consumer};
        }) {}

  /// Next merged breakpoint of the sequences still serving a consumer in
  /// `live`, or nullopt when none is left. A tagged sequence none of whose
  /// consumers is live is dropped from the heap when it reaches the top, so
  /// a settled consumer costs nothing from then on; an untagged one (mask 0)
  /// is never dropped this way. `live` may lose bits from call to call but
  /// must not regain them: a dropped sequence does not come back.
  /// Hot: one call per merged tick of the fused analysis sweep and of the
  /// LO-mode demand walk; each sequence on the tick costs one sift-down.
  ///
  /// The sums go through selects into a plain local `p`: indexing
  /// p.jump[e.consumer], or filling an optional in the loop, ran the
  /// speedup-only sweep (BM_SpeedupSweep) up to 2x slower.
  std::optional<Point> next(unsigned live = ~0u) RBS_HOT_PATH {
    while (!heap_.empty() && settled(heap_.top(), live)) heap_.advance_top(/*drop=*/true);
    if (heap_.empty()) return std::nullopt;
    Point p;
    p.tick = heap_.top().at;
    do {
      const Entry& e = heap_.top();
      const bool drop = settled(e, live);
      if (!drop) {
        p.mask |= e.mask;
        for (unsigned c = 0; c < kTaggedConsumers; ++c) {
          p.jump[c] += e.consumer == c ? e.jump : 0;
          p.dslope[c] += e.consumer == c ? e.dslope : 0;
        }
      }
      heap_.advance_top(drop);
    } while (!heap_.empty() && heap_.top().at == p.tick);
    return p;
  }

 private:
  struct Entry {
    Ticks at = 0;
    Ticks period = 0;
    Ticks jump = 0;
    Ticks dslope = 0;
    unsigned mask = 0;
    unsigned consumer = 0;
  };
  static bool settled(const Entry& e, unsigned live) { return e.mask != 0 && (e.mask & live) == 0; }
  SeqHeap<Entry> heap_;
};

/// Running state of an integer function F that is linear between integer
/// breakpoints, walked in increasing order: the left limit at the next
/// breakpoint is the value plus the slope times the distance, and the value
/// there adds the jump. Each step costs O(1) instead of an O(n) re-sum.
struct RunningDemand {
  Ticks prev = 0;   ///< last breakpoint folded in
  Ticks value = 0;  ///< F(prev)
  Ticks slope = 0;  ///< slope of F just right of prev

  /// lim_{eps->0+} F(d - eps) for d > prev with no breakpoint in (prev, d).
  /// For a non-negative, non-decreasing F the product is at most the left
  /// limit itself, so it overflows only where F(d) would.
  Ticks left_at(Ticks d) const { return value + slope * (d - prev); }

  /// Folds in the merged breakpoint `p` (the next breakpoint of F after
  /// prev), whose sequences tagged for `consumer` are F's, and returns F's
  /// left limit there; `value` becomes F(p.tick).
  Ticks advance(const TaggedBreakpointMerger::Point& p, unsigned consumer = 0) {
    const Ticks left = left_at(p.tick);
    prev = p.tick;
    value = left + p.jump[consumer];
    slope += p.dslope[consumer];
    return left;
  }
};

/// Adds one term f of a running sum to a sweep: appends f's breakpoint
/// sequences `seqs` to `out`, tagged with `mask` and carrying f's jump and
/// slope change at their ticks, and adds f's value at 0 and slope just right
/// of 0 to `start`. Sequences with the same start are merged into one.
///
/// Requirements on f: integer, linear between the ticks of `seqs`, whose
/// starts lie in [0, T) for the one period T > 0 they share, and
/// f(x + T) = f(x) + const for x >= 0, so the jump and slope change repeat
/// every T and are read once, at each sequence's first positive tick.
/// A term without sequences must be constant (a dropped task's ADB_HI carry-
/// over, or its zero DBF_HI); it adds its value and nothing else.
/// `value(d)` is f(d) and `left(d)` the left limit lim_{eps->0+} f(d - eps).
/// The walk starts from `start` at 0 and folds in every merged tick past 0.
template <class Value, class LeftLimit>
void append_running_seqs(const std::vector<ArithSeq>& seqs, unsigned mask, Value value,
                         LeftLimit left, std::vector<TaggedSeq>& out, RunningDemand& start) {
  start.value += value(0);
  if (seqs.empty()) return;
  start.slope += left(1) - value(0);
  for (auto it = seqs.begin(); it != seqs.end(); ++it) {
    const ArithSeq& s = *it;
    const auto same_start = [&s](const ArithSeq& other) { return other.start == s.start; };
    if (std::any_of(seqs.begin(), it, same_start)) continue;
    const Ticks first = s.start > 0 ? s.start : s.period;  // first positive tick
    const Ticks jump = value(first) - left(first);
    const Ticks slope_before = left(first) - value(first - 1);
    // The slope right of a tick repeats every T, so read it at the start,
    // which keeps every argument at or below T.
    const Ticks slope_after = left(s.start + 1) - value(s.start);
    out.push_back({s, mask, jump, slope_after - slope_before});
  }
}

}  // namespace rbs
