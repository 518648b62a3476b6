// Error-free-transformation accumulators: exact running sums of doubles.
//
// Floating-point accumulators are order-sensitive and lossy: a += x
// discards the low-order bits of x that fall below a's ulp, so a -= x
// later does not restore the prior state, and the same multiset of
// addends produces different sums in different orders. That is exactly
// the failure mode of dynamic affectance maintenance — the quantities the
// SINR feasibility conditions threshold are interference sums, so losing
// bits there is a correctness bug, not cosmetics.
//
// ExactSum removes the error entirely. The running sum is kept as a
// Shewchuk-style expansion — a list of nonoverlapping doubles whose exact
// real sum IS the accumulated value, maintained through two-sum
// error-free transformations (Knuth/Dekker; cf. Shewchuk, "Adaptive
// Precision Floating-Point Arithmetic"). Adds and subtracts are exact, so
//
//   * add(x) followed by subtract(x) restores the prior value bit for
//     bit, and
//   * value() — the accumulated sum correctly rounded to nearest — is a
//     pure function of the exact real sum: independent of insertion
//     order, removal history, and internal representation.
//
// value() computes the correct rounding in two O(m) passes over the m
// expansion components (m is tiny in practice — 2 to 4): a top-down
// two-sum cascade renormalizes the expansion into components separated by
// >= 51 bits of exponent, then a bottom-up round-to-odd chain (Boldo &
// Melquiond, "When double rounding is odd") folds the tail stickily so
// the single final round-to-nearest lands exactly where the infinitely
// precise sum would.
//
// Special values are bookkept, not mangled: adding +/-infinity or NaN is
// tracked in counters (so subtracting the same infinity restores the
// finite state exactly — the dense gain tables store +inf for co-located
// interferers), and a finite accumulation whose true sum leaves the
// double range saturates to a sticky +/-infinity instead of poisoning
// the expansion with NaNs. Exactness is guaranteed while the running sum
// and every addend stay below ~DBL_MAX / 2 in magnitude.
#ifndef OISCHED_UTIL_EXACT_SUM_H
#define OISCHED_UTIL_EXACT_SUM_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace oisched {

/// Error-free sum: `sum` = fl(a + b) and `err` = a + b - sum, exactly.
struct TwoSum {
  double sum = 0.0;
  double err = 0.0;
};

/// Knuth's branch-free two-sum; valid for any finite a, b. Defined
/// inline: the hot accumulator loops issue hundreds of millions of these
/// and an out-of-line call would dominate them.
[[nodiscard]] inline TwoSum two_sum(double a, double b) noexcept {
  const double sum = a + b;
  const double b_virtual = sum - a;
  const double a_virtual = sum - b_virtual;
  const double b_roundoff = b - b_virtual;
  const double a_roundoff = a - a_virtual;
  return {sum, a_roundoff + b_roundoff};
}

/// Dekker's cheaper variant; requires |a| >= |b| (or either operand 0).
[[nodiscard]] inline TwoSum fast_two_sum(double a, double b) noexcept {
  const double sum = a + b;
  return {sum, b - (sum - a)};
}

/// a + b rounded to odd: exact when representable, otherwise the
/// neighboring double with an odd last mantissa bit. Round-to-odd is the
/// "sticky" rounding that makes a later round-to-nearest of a coarser
/// result come out as if the low-order information had never been
/// dropped (Boldo–Melquiond) — the building block of ExactSum::value().
[[nodiscard]] double add_round_to_odd(double a, double b) noexcept;

/// An exact accumulator over doubles: supports add, exact subtract, and
/// correctly rounded readout. Copyable; empty sums read as +0.0.
class ExactSum {
 public:
  ExactSum() = default;

  /// The exact sum of `addends` — the same value as adding them one by
  /// one, at about half the cost or less: the grow chain runs on a
  /// stack-resident expansion that is compressed only when it grows
  /// long, not after every addend. Non-finite addends and overflow take
  /// the add() path, with its exact bookkeeping.
  [[nodiscard]] static ExactSum sum_of(std::span<const double> addends);

  /// Accumulates x exactly (infinities and NaNs are counted, not summed).
  void add(double x);
  /// Removes x exactly — the inverse of add(x): the accumulated value
  /// (and therefore value()) returns bit for bit to its prior state.
  void subtract(double x);
  /// Resets to the empty (zero) sum.
  void clear() noexcept;

  /// The accumulated sum, correctly rounded to nearest (ties to even) —
  /// exactly the double round-to-nearest of the infinitely precise sum of
  /// every add minus every subtract. NaN when NaN was accumulated or
  /// opposing infinities are present; +/-inf while an infinity of one
  /// sign is held or after finite-range saturation. (Not noexcept: the
  /// scratch space for a pathologically long expansion may allocate.)
  [[nodiscard]] double value() const;

  /// True while the state is a plain finite sum (no infinities, NaNs, or
  /// saturation) — the regime with the exactness guarantees.
  [[nodiscard]] bool finite() const noexcept {
    return pos_inf_ == 0 && neg_inf_ == 0 && nan_ == 0 && !saturated_;
  }

  /// True once a finite accumulation overflowed the double range. Sticky:
  /// unlike the reversible infinity counters, a saturated sum cannot be
  /// restored by subtracts — callers needing exactness back must rebuild
  /// from the surviving addends (see IncrementalGainClass::remove).
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }

  /// Renormalizes the internal expansion to its compressed form (fewest
  /// components). Called automatically after every add/subtract; public
  /// because the representation-level tests exercise it directly. Never
  /// changes the accumulated value.
  void renormalize();

  /// The nonoverlapping expansion components, increasing in magnitude;
  /// their exact real sum is the accumulated value. Representation-level
  /// observability for tests and memory accounting.
  [[nodiscard]] std::span<const double> components() const noexcept {
    return {comps(), count_};
  }
  [[nodiscard]] std::size_t component_count() const noexcept { return count_; }

  /// Components a sum can hold without touching the heap. Renormalized
  /// expansions over the full double range cap near 42 components, but in
  /// practice gain sums compress to <= 4; 8 leaves room for the transient
  /// pre-renormalize growth so the heap spill is dead on the hot path.
  static constexpr std::size_t kInlineCapacity = 8;

 private:
  /// Adopts an already-renormalized expansion (nonoverlapping, increasing
  /// magnitude, zero-free) as the finite state of a fresh sum.
  [[nodiscard]] static ExactSum from_expansion(std::span<const double> components);
  void add_finite(double x);
  void push_comp(double v);
  [[nodiscard]] double* comps() noexcept {
    return on_heap_ ? heap_.data() : inline_buf_;
  }
  [[nodiscard]] const double* comps() const noexcept {
    return on_heap_ ? heap_.data() : inline_buf_;
  }

  /// Nonoverlapping expansion, increasing magnitude, zero-free: the exact
  /// finite part of the sum. Lives in inline_buf_ until a pathological
  /// expansion outgrows it; the heap spill is sticky until clear() so a
  /// long sum does not ping-pong allocations at the boundary.
  double inline_buf_[kInlineCapacity];
  std::uint32_t count_ = 0;
  bool on_heap_ = false;
  std::vector<double> heap_;
  /// Signed-infinity and NaN multiplicities (adds minus subtracts).
  std::int64_t pos_inf_ = 0;
  std::int64_t neg_inf_ = 0;
  std::int64_t nan_ = 0;
  /// Sticky overflow of the *finite* accumulation: the true sum left the
  /// double range, so exactness (and restorability) is gone until clear().
  bool saturated_ = false;
  double saturated_sign_ = 1.0;
};

}  // namespace oisched

#endif  // OISCHED_UTIL_EXACT_SUM_H
