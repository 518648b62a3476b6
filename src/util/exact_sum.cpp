#include "util/exact_sum.h"

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// sum_of compresses its running expansion once it is longer than this;
/// a compressed expansion still longer hands over to the add() path.
constexpr std::size_t kSumOfCompressAt = 8;

/// Shewchuk's COMPRESS, in place: rewrites the nonoverlapping expansion
/// e[0..m) (increasing magnitude, zero-free, m >= 1) with the fewest
/// components and the same exact sum, and returns the new length (<= m).
/// `scratch` must hold m doubles.
std::size_t compress_expansion(double* e, std::size_t m, double* scratch) noexcept {
  // Top-down: a fast-two-sum cascade condenses the expansion into
  // `scratch` (decreasing magnitude). Bottom-up: absorb from the smallest
  // condensed term toward the largest, emitting the roundoffs as the
  // final low-order components. Both passes are chains of error-free
  // transformations, so the exact sum is untouched; the output length
  // never exceeds the input length, so it is written in place.
  std::size_t count = 0;
  double q = e[m - 1];
  for (std::size_t i = m - 1; i-- > 0;) {
    const TwoSum s = fast_two_sum(q, e[i]);
    if (s.err != 0.0) {
      scratch[count++] = s.sum;
      q = s.err;
    } else {
      q = s.sum;
    }
  }
  scratch[count++] = q;
  std::size_t out = 0;
  q = scratch[count - 1];
  for (std::size_t i = count - 1; i-- > 0;) {
    const TwoSum s = fast_two_sum(scratch[i], q);
    if (s.err != 0.0) e[out++] = s.err;
    q = s.sum;
  }
  e[out++] = q;
  return out;
}

}  // namespace

double add_round_to_odd(double a, double b) noexcept {
  const TwoSum s = two_sum(a, b);
  if (s.err == 0.0 || !std::isfinite(s.sum)) return s.sum;
  // fl(a + b) was inexact: of the two doubles bracketing the exact sum,
  // return the one with the odd last mantissa bit. fl() already picked
  // one of them; the sign of the error says which side the other is on.
  if ((std::bit_cast<std::uint64_t>(s.sum) & 1u) != 0) return s.sum;
  return std::nextafter(s.sum, s.err > 0.0 ? kInf : -kInf);
}

ExactSum ExactSum::sum_of(std::span<const double> addends) {
  // GROW-EXPANSION from one buffer into the other, so an overflowing
  // addend leaves the running expansion intact for the add() path.
  double buf_a[kSumOfCompressAt + 1];
  double buf_b[kSumOfCompressAt + 1];
  double scratch[kSumOfCompressAt + 1];
  double* e = buf_a;
  double* grown = buf_b;
  std::size_t m = 0;
  std::size_t next = 0;
  for (; next < addends.size(); ++next) {
    const double x = addends[next];
    if (!std::isfinite(x)) break;
    if (x == 0.0) continue;
    double carry = x;
    std::size_t out = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const TwoSum s = two_sum(carry, e[i]);
      if (s.err != 0.0) grown[out++] = s.err;
      carry = s.sum;
    }
    if (!std::isfinite(carry)) break;
    if (carry != 0.0) grown[out++] = carry;
    std::swap(e, grown);
    m = out;
    if (m > kSumOfCompressAt) {
      m = compress_expansion(e, m, scratch);
      if (m >= kSumOfCompressAt) {
        ++next;  // x is in; the rest goes through add()
        break;
      }
    }
  }
  if (m > 1) m = compress_expansion(e, m, scratch);
  ExactSum sum = from_expansion({e, m});
  for (; next < addends.size(); ++next) sum.add(addends[next]);
  return sum;
}

ExactSum ExactSum::from_expansion(std::span<const double> components) {
  ExactSum sum;
  for (const double c : components) sum.push_comp(c);
  return sum;
}

void ExactSum::add(double x) {
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  if (std::isinf(x)) {
    ++(x > 0.0 ? pos_inf_ : neg_inf_);
    return;
  }
  add_finite(x);
}

void ExactSum::subtract(double x) {
  if (std::isnan(x)) {
    --nan_;
    return;
  }
  if (std::isinf(x)) {
    --(x > 0.0 ? pos_inf_ : neg_inf_);
    return;
  }
  add_finite(-x);
}

void ExactSum::clear() noexcept {
  count_ = 0;
  on_heap_ = false;
  heap_.clear();
  pos_inf_ = neg_inf_ = nan_ = 0;
  saturated_ = false;
  saturated_sign_ = 1.0;
}

void ExactSum::push_comp(double v) {
  if (!on_heap_) {
    if (count_ < kInlineCapacity) {
      inline_buf_[count_++] = v;
      return;
    }
    // One-way spill: copy the inline expansion out, then stay on the heap
    // until clear() so shrink/grow cycles at the boundary do not thrash.
    heap_.assign(inline_buf_, inline_buf_ + kInlineCapacity);
    on_heap_ = true;
  }
  if (count_ < heap_.size()) {
    heap_[count_++] = v;
  } else {
    heap_.push_back(v);
    ++count_;
  }
}

void ExactSum::add_finite(double x) {
  if (x == 0.0 || saturated_) return;
  // Shewchuk's GROW-EXPANSION with zero elimination: thread x upward
  // through the components with two-sum; the surviving errors plus the
  // final carry are again a nonoverlapping expansion, in increasing
  // magnitude, summing exactly to old value + x.
  double carry = x;
  double* comp = comps();
  std::size_t out = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const TwoSum s = two_sum(carry, comp[i]);
    if (s.err != 0.0) comp[out++] = s.err;
    carry = s.sum;
  }
  count_ = static_cast<std::uint32_t>(out);
  if (!std::isfinite(carry)) {
    // The true sum left the double range. Saturate stickily: exactness is
    // unrecoverable (the expansion can no longer represent the sum), so
    // the accumulator pins to the overflow's signed infinity.
    saturated_ = true;
    saturated_sign_ = carry > 0.0 ? 1.0 : -1.0;
    count_ = 0;
    return;
  }
  if (carry != 0.0) push_comp(carry);
  if (count_ > 1) renormalize();
}

void ExactSum::renormalize() {
  // Shewchuk's COMPRESS. Scratch lives on the stack — this runs once per
  // accumulator slot per add/subtract, so a heap allocation here would
  // dominate the whole exact-policy hot path. Renormalized components are
  // >= 51 bits of exponent apart, so 64 covers doubles' entire ~2100-bit
  // range with slack (the heap fallback is dead in practice but keeps
  // pathological inputs safe).
  const std::size_t m = count_;
  if (m <= 1) return;
  double scratch_buf[64];
  std::vector<double> heap;
  double* scratch = scratch_buf;
  if (m > 64) {
    heap.resize(m);
    scratch = heap.data();
  }
  count_ = static_cast<std::uint32_t>(compress_expansion(comps(), m, scratch));
}

double ExactSum::value() const {
  if (nan_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0)) return kNaN;
  if (pos_inf_ != 0) return pos_inf_ > 0 ? kInf : -kInf;
  if (neg_inf_ != 0) return neg_inf_ > 0 ? -kInf : kInf;
  if (saturated_) return saturated_sign_ * kInf;
  const std::size_t m = count_;
  const double* comp = comps();
  if (m == 0) return 0.0;
  if (m == 1) return comp[0];
  if (m == 2) return comp[1] + comp[0];  // fl IS the correct rounding
  // General case. Nonoverlapping alone does not separate the components
  // enough for sticky folding (a single-bit component's ulp sits ~52 bits
  // below its magnitude), so first condense top-down with two-sum: each
  // kept partial sum dominates the entire remainder by >= 51 bits of
  // exponent, because the remainder is bounded by its own roundoff.
  double scratch_buf[64];
  std::vector<double> heap;
  double* scratch = scratch_buf;
  if (m > 64) {
    heap.resize(m);
    scratch = heap.data();
  }
  std::size_t count = 0;
  double q = comp[m - 1];
  for (std::size_t i = m - 1; i-- > 0;) {
    const TwoSum s = two_sum(q, comp[i]);
    if (s.err != 0.0) {
      scratch[count++] = s.sum;
      q = s.err;
    } else {
      q = s.sum;
    }
  }
  if (count == 0) return q;
  // scratch[0] is the largest term; q plus any deeper terms form the
  // tail. Fold the tail bottom-up in round-to-odd — sticky, so the one
  // final round-to-nearest sees everything the tail ever contained
  // (Boldo–Melquiond double-rounding theorem; the >= 51-bit gaps hugely
  // exceed the >= 2 bits it needs).
  double acc = q;
  for (std::size_t i = count; i-- > 1;) {
    acc = add_round_to_odd(scratch[i], acc);
  }
  return scratch[0] + acc;
}

}  // namespace oisched
