// Structure-of-arrays bank of exact accumulator slots.
//
// The exact remove policy keeps one error-free expansion per member slot
// (see util/exact_sum.h). As a vector<ExactSum> that is an array of
// ~130-byte objects, each with heap-capable component storage and a
// separate rounded readout pass.
// ExactSumBank is the same mathematics in a flat layout (the ECS
// component-storage idiom): the k-th expansion component of every slot
// lives in one flat array, the per-slot component count in another, so a
// slot update touches a few cache lines and erasing a slot is a handful
// of memmoves.
//
// The fast path covers expansions of <= 4 components with all-finite
// state — in practice, effectively every slot. Rarer states (more
// components, infinities/NaN bookkeeping, sticky saturation) spill to a
// real ExactSum in a side map and migrate back when they re-enter the
// fast regime. Crucially the bank's update is the SAME derivation as
// ExactSum::add — a two-sum grow chain followed by the COMPRESS
// renormalization — so a slot's representation stays bit-identical to
// what a standalone ExactSum with the same history holds, and the
// rounded values it exposes are the unique correct rounding either way.
// The fused add-round readout folds the compressed registers straight to
// the rounded double, so an update neither allocates nor re-reads memory
// to publish its value.
#ifndef OISCHED_UTIL_EXACT_BANK_H
#define OISCHED_UTIL_EXACT_BANK_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/exact_sum.h"

namespace oisched {

class ExactSumBank {
 public:
  /// Inline expansion components per slot. Gain sums compress to <= 4 in
  /// practice; longer expansions spill to the side map.
  static constexpr std::size_t kSlotComponents = 4;

  /// Grows to `n` slots, new slots zero; existing state is untouched.
  void resize(std::size_t n);
  [[nodiscard]] std::size_t size() const noexcept { return count_.size(); }

  /// Accumulates x into slot i exactly; returns the slot's new correctly
  /// rounded value (what ExactSum::add + value() would produce, bit for
  /// bit).
  double add(std::size_t i, double x);
  /// Removes x from slot i exactly — the inverse of add(i, x).
  double subtract(std::size_t i, double x);

  /// The slot's current correctly rounded value.
  [[nodiscard]] double value(std::size_t i) const;
  /// True once the slot's finite accumulation overflowed the double range
  /// (sticky, like ExactSum::saturated — the caller's rebuild escape
  /// hatch).
  [[nodiscard]] bool saturated(std::size_t i) const;

  /// Replaces slot i's state with `sum` (the re-derive path).
  void store(std::size_t i, const ExactSum& sum);

  /// Removes slot i; later slots shift down by one, keeping their state.
  void erase(std::size_t i);

  /// Slots currently living in the spill map — observability for tests.
  [[nodiscard]] std::size_t spilled_slots() const noexcept { return spill_.size(); }

 private:
  static constexpr std::uint8_t kSpilled = 0xFF;

  /// One finite add/subtract on a fast-path slot; spills when the result
  /// leaves the fast regime.
  double slot_op(std::size_t i, double x);
  /// Routes an op through the slot's spilled ExactSum (migrating the
  /// inline expansion out first if needed), then migrates back if the
  /// result re-enters the fast regime.
  double spill_op(std::size_t i, double x, bool subtract_op);
  /// Post-compress finish: spill check, write-back, fused rounded readout.
  double commit_slot(std::size_t i, const double* comps, std::size_t m);
  [[nodiscard]] double fused_value(std::size_t i) const;

  /// comp_[k][i] = k-th expansion component of slot i (0.0 above the
  /// slot's count).
  std::array<std::vector<double>, kSlotComponents> comp_;
  /// Components in use per slot, or kSpilled.
  std::vector<std::uint8_t> count_;
  /// Slow slots: long expansions, infinity/NaN bookkeeping, saturation.
  std::unordered_map<std::size_t, ExactSum> spill_;
};

}  // namespace oisched

#endif  // OISCHED_UTIL_EXACT_BANK_H
