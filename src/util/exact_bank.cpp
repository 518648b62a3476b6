#include "util/exact_bank.h"

#include <cmath>
#include <utility>

namespace oisched {
namespace {

/// Fused add-round readout of a compressed finite expansion — the
/// ExactSum::value() derivation (two-sum condense, then the bottom-up
/// round-to-odd fold) on registers, so correct rounding is computed
/// without touching memory. Correct rounding is unique, so this matches
/// ExactSum::value() bit for bit.
double rounded_value(const double* e, std::size_t m) {
  if (m == 0) return 0.0;
  if (m == 1) return e[0];
  if (m == 2) return e[1] + e[0];  // fl IS the correct rounding
  double scratch[ExactSumBank::kSlotComponents];
  std::size_t count = 0;
  double q = e[m - 1];
  for (std::size_t i = m - 1; i-- > 0;) {
    const TwoSum s = two_sum(q, e[i]);
    if (s.err != 0.0) {
      scratch[count++] = s.sum;
      q = s.err;
    } else {
      q = s.sum;
    }
  }
  if (count == 0) return q;
  double acc = q;
  for (std::size_t i = count; i-- > 1;) {
    acc = add_round_to_odd(scratch[i], acc);
  }
  return scratch[0] + acc;
}

}  // namespace

void ExactSumBank::resize(std::size_t n) {
  for (auto& comp : comp_) comp.resize(n, 0.0);
  count_.resize(n, 0);
}

double ExactSumBank::add(std::size_t i, double x) {
  if (count_[i] == kSpilled || !std::isfinite(x)) return spill_op(i, x, false);
  return slot_op(i, x);
}

double ExactSumBank::subtract(std::size_t i, double x) {
  if (count_[i] == kSpilled || !std::isfinite(x)) return spill_op(i, x, true);
  return slot_op(i, -x);
}

double ExactSumBank::value(std::size_t i) const {
  if (count_[i] == kSpilled) return spill_.at(i).value();
  return fused_value(i);
}

bool ExactSumBank::saturated(std::size_t i) const {
  return count_[i] == kSpilled && spill_.at(i).saturated();
}

void ExactSumBank::store(std::size_t i, const ExactSum& sum) {
  const auto comps = sum.components();
  if (!sum.finite() || comps.size() > kSlotComponents) {
    for (auto& comp : comp_) comp[i] = 0.0;
    count_[i] = kSpilled;
    spill_[i] = sum;
    return;
  }
  for (std::size_t k = 0; k < kSlotComponents; ++k) {
    comp_[k][i] = k < comps.size() ? comps[k] : 0.0;
  }
  count_[i] = static_cast<std::uint8_t>(comps.size());
  spill_.erase(i);
}

double ExactSumBank::fused_value(std::size_t i) const {
  const std::size_t cnt = count_[i];
  double e[kSlotComponents];
  for (std::size_t k = 0; k < cnt; ++k) e[k] = comp_[k][i];
  return rounded_value(e, cnt);
}

double ExactSumBank::slot_op(std::size_t i, double x) {
  // ExactSum::add_finite on the slot's inline expansion: grow chain with
  // zero elimination, overflow check, COMPRESS — all in registers.
  if (x == 0.0) return fused_value(i);
  const std::size_t cnt = count_[i];
  double e[kSlotComponents + 1];
  std::size_t m = 0;
  double carry = x;
  for (std::size_t k = 0; k < cnt; ++k) {
    const TwoSum s = two_sum(carry, comp_[k][i]);
    if (s.err != 0.0) e[m++] = s.err;
    carry = s.sum;
  }
  if (!std::isfinite(carry)) {
    // The true sum left the double range: replay the op through a spilled
    // ExactSum built from the untouched inline expansion — it hits the
    // identical overflow and saturates with ExactSum's exact semantics.
    return spill_op(i, x, false);
  }
  if (carry != 0.0) e[m++] = carry;
  if (m > 1) {
    double scratch[kSlotComponents + 1];
    m = compress_expansion(e, m, scratch);
  }
  return commit_slot(i, e, m);
}

double ExactSumBank::commit_slot(std::size_t i, const double* comps, std::size_t m) {
  if (m > kSlotComponents) {
    // A five-component compressed expansion: exact but too long for the
    // inline bank. The compressed list is a renormalized expansion, so the
    // spilled ExactSum adopts it verbatim.
    for (auto& comp : comp_) comp[i] = 0.0;
    count_[i] = kSpilled;
    ExactSum& sum = spill_[i];
    sum = ExactSum::from_expansion({comps, m});
    return sum.value();
  }
  for (std::size_t k = 0; k < kSlotComponents; ++k) {
    comp_[k][i] = k < m ? comps[k] : 0.0;
  }
  count_[i] = static_cast<std::uint8_t>(m);
  return rounded_value(comps, m);
}

double ExactSumBank::spill_op(std::size_t i, double x, bool subtract_op) {
  auto it = spill_.find(i);
  if (it == spill_.end()) {
    double comps[kSlotComponents];
    const std::size_t cnt = count_[i];
    for (std::size_t k = 0; k < cnt; ++k) {
      comps[k] = comp_[k][i];
      comp_[k][i] = 0.0;
    }
    it = spill_.emplace(i, ExactSum::from_expansion({comps, cnt})).first;
    count_[i] = kSpilled;
  }
  ExactSum& sum = it->second;
  if (subtract_op) {
    sum.subtract(x);
  } else {
    sum.add(x);
  }
  const double val = sum.value();
  if (sum.finite() && sum.component_count() <= kSlotComponents) {
    // Back to the fast regime (e.g. a transient infinity was withdrawn):
    // migrate the expansion inline so the slot stops paying the map.
    const auto comps = sum.components();
    for (std::size_t k = 0; k < kSlotComponents; ++k) {
      comp_[k][i] = k < comps.size() ? comps[k] : 0.0;
    }
    count_[i] = static_cast<std::uint8_t>(comps.size());
    spill_.erase(it);
  }
  return val;
}

void ExactSumBank::erase(std::size_t i) {
  const auto at = static_cast<std::ptrdiff_t>(i);
  for (auto& comp : comp_) comp.erase(comp.begin() + at);
  count_.erase(count_.begin() + at);
  if (spill_.empty()) return;
  // Spilled slots are keyed by index: re-key the ones above the gap.
  std::unordered_map<std::size_t, ExactSum> shifted;
  for (auto& [slot, sum] : spill_) {
    if (slot != i) shifted.emplace(slot > i ? slot - 1 : slot, std::move(sum));
  }
  spill_ = std::move(shifted);
}

}  // namespace oisched
