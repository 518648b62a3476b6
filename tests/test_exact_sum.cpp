// The exact-sum primitive: error-free transformations, algebraic
// properties of the expansion accumulator (add-then-subtract restoration,
// permutation invariance of the correctly rounded value), exhaustive
// small-case agreement with a wide-precision oracle, and the adversarial
// dynamic-range fixtures where plain (and compensated) accumulation
// provably drifts while ExactSum stays at exactly zero error.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/exact_sum.h"
#include "util/rng.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The oracle accumulates in a much wider significand than double's 53
// bits: __float128 (113 bits) where the compiler has it, x87 long double
// (64 bits) otherwise. Oracle-based checks restrict their operands'
// dynamic range so the wide sum is itself exact.
#if defined(__SIZEOF_FLOAT128__)
using Oracle = __float128;
#else
using Oracle = long double;
#endif

double oracle_sum(const std::vector<double>& values) {
  Oracle sum = 0;
  for (const double v : values) sum += static_cast<Oracle>(v);
  return static_cast<double>(sum);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double sum_of(const std::vector<double>& values) {
  ExactSum sum;
  for (const double v : values) sum.add(v);
  return sum.value();
}

/// Tricky doubles: exact powers of two, ulp neighbors, tie-makers, and
/// both ends of the magnitude scale. Pairwise sums cover carries, exact
/// cancellation, round-to-even ties, and total absorption.
std::vector<double> tricky_pool() {
  std::vector<double> pool = {
      0.0,
      1.0,
      -1.0,
      2.0,
      3.0,
      0.1,
      -0.1,
      1.0 / 3.0,
      std::ldexp(1.0, -52),   // ulp(1)
      std::ldexp(1.0, -53),   // ulp(1)/2: the tie-maker
      -std::ldexp(1.0, -53),
      std::ldexp(1.0, -54),
      1.0 + std::ldexp(1.0, -52),  // odd mantissa neighbor of 1
      std::ldexp(3.0, -54),
      std::ldexp(1.0, 30),
      -std::ldexp(1.0, 30),
      std::ldexp(1.0, 30) + 1.0,
  };
  return pool;
}

TEST(TwoSum, IsAnErrorFreeTransformation) {
  const auto pool = tricky_pool();
  for (const double a : pool) {
    for (const double b : pool) {
      const TwoSum s = two_sum(a, b);
      EXPECT_EQ(s.sum, a + b);  // the rounded sum is fl(a + b)...
      // ...and the error makes it exact: a + b == sum + err in the
      // oracle's wider precision (the pool spans < 90 bits).
      const Oracle exact = static_cast<Oracle>(a) + static_cast<Oracle>(b);
      EXPECT_EQ(static_cast<double>(exact - static_cast<Oracle>(s.sum)), s.err)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(TwoSum, FastVariantAgreesWhenOrdered) {
  const auto pool = tricky_pool();
  for (const double a : pool) {
    for (const double b : pool) {
      if (std::abs(a) < std::abs(b)) continue;
      const TwoSum knuth = two_sum(a, b);
      const TwoSum dekker = fast_two_sum(a, b);
      EXPECT_EQ(bits(knuth.sum), bits(dekker.sum));
      EXPECT_EQ(bits(knuth.err), bits(dekker.err));
    }
  }
}

TEST(RoundToOdd, ExactWhenRepresentableStickyOtherwise) {
  // Representable sums come back untouched.
  EXPECT_EQ(add_round_to_odd(1.0, 2.0), 3.0);
  EXPECT_EQ(add_round_to_odd(1.0, std::ldexp(1.0, -52)), 1.0 + std::ldexp(1.0, -52));
  // 1 + ulp/2 is a tie: round-to-nearest would pick the even neighbor
  // (1.0), losing the information that the sum sits strictly ABOVE 1.0.
  // Round-to-odd picks the odd neighbor instead.
  const double half_ulp = std::ldexp(1.0, -53);
  EXPECT_EQ(add_round_to_odd(1.0, half_ulp), 1.0 + std::ldexp(1.0, -52));
  EXPECT_EQ(add_round_to_odd(1.0, -half_ulp), 1.0 - half_ulp);
  // A tiny positive residue below the tie also lands on the odd neighbor
  // — stickiness, not nearest.
  EXPECT_EQ(add_round_to_odd(1.0, std::ldexp(1.0, -60)),
            1.0 + std::ldexp(1.0, -52));
}

TEST(ExactSum, EmptySumIsPositiveZero) {
  ExactSum sum;
  EXPECT_EQ(sum.value(), 0.0);
  EXPECT_FALSE(std::signbit(sum.value()));
  EXPECT_EQ(sum.component_count(), 0u);
  EXPECT_TRUE(sum.finite());
}

TEST(ExactSum, PairsMatchPlainAdditionExactly) {
  // For exactly two addends fl(a + b) IS the correct rounding, so
  // value() must reproduce it bit for bit on every pool pair.
  const auto pool = tricky_pool();
  for (const double a : pool) {
    for (const double b : pool) {
      EXPECT_EQ(bits(sum_of({a, b})), bits(a + b)) << "a=" << a << " b=" << b;
    }
  }
}

TEST(ExactSum, ExhaustiveTriplesAndQuadsMatchTheOracle) {
  const auto pool = tricky_pool();
  for (const double a : pool) {
    for (const double b : pool) {
      for (const double c : pool) {
        EXPECT_EQ(bits(sum_of({a, b, c})), bits(oracle_sum({a, b, c})))
            << "a=" << a << " b=" << b << " c=" << c;
      }
    }
  }
  // Quads over a smaller sub-pool (the full fourth power would be slow).
  const std::vector<double> sub = {1.0,
                                   -1.0,
                                   std::ldexp(1.0, -53),
                                   -std::ldexp(1.0, -53),
                                   std::ldexp(1.0, -54),
                                   0.1,
                                   std::ldexp(1.0, 30),
                                   -std::ldexp(1.0, 30),
                                   1.0 + std::ldexp(1.0, -52)};
  for (const double a : sub) {
    for (const double b : sub) {
      for (const double c : sub) {
        for (const double d : sub) {
          EXPECT_EQ(bits(sum_of({a, b, c, d})), bits(oracle_sum({a, b, c, d})))
              << "a=" << a << " b=" << b << " c=" << c << " d=" << d;
        }
      }
    }
  }
}

TEST(ExactSum, RandomSequencesMatchTheOracle) {
  // Random signed values across ~50 bits of dynamic range (so the oracle
  // stays exact), sequences long enough to stack many expansion merges.
  Rng rng(2027);
  for (int round = 0; round < 200; ++round) {
    std::vector<double> values;
    const int count = 2 + static_cast<int>(rng.uniform_index(30));
    for (int i = 0; i < count; ++i) {
      const int exponent = static_cast<int>(rng.uniform_index(50));
      values.push_back(std::ldexp(rng.uniform(-1.0, 1.0), exponent));
    }
    EXPECT_EQ(bits(sum_of(values)), bits(oracle_sum(values))) << "round " << round;
  }
}

TEST(ExactSum, KnownAnswerFixturesAcrossExtremeRanges) {
  // Beyond the oracle's reach: constructed cases whose exact value is
  // known algebraically.
  EXPECT_EQ(sum_of({1e300, 1.0, -1e300}), 1.0);
  EXPECT_EQ(sum_of({1e300, -1e300, 1e-300}), 1e-300);
  EXPECT_EQ(sum_of({1e16, 1.0, -1e16, -1.0}), 0.0);
  // The classic sticky case over a ~1000-bit gap: 1 + ulp/2 alone ties to
  // even (1.0), but ANY positive residue below — however tiny — must tip
  // the rounding up.
  const double half_ulp = std::ldexp(1.0, -53);
  EXPECT_EQ(sum_of({1.0, half_ulp}), 1.0);
  EXPECT_EQ(sum_of({1.0, half_ulp, std::ldexp(1.0, -1060)}),
            1.0 + std::ldexp(1.0, -52));
  EXPECT_EQ(sum_of({1.0, half_ulp, -std::ldexp(1.0, -1060)}), 1.0);
  EXPECT_EQ(sum_of({-1.0, -half_ulp, -std::ldexp(1.0, -1060)}),
            -1.0 - std::ldexp(1.0, -52));
  // Subnormals participate exactly.
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(sum_of({denorm, denorm, -denorm}), denorm);
}

TEST(ExactSum, AddThenSubtractRestoresThePriorStateBitForBit) {
  // The property the O(n) removal path rests on: after any interleaving
  // of adds and subtracts, the value equals a fresh accumulation of the
  // surviving multiset — here checked as exact restoration through a
  // random add/remove history over ~600 bits of dynamic range.
  Rng rng(7);
  ExactSum sum;
  std::vector<std::uint64_t> value_history = {bits(sum.value())};
  std::vector<double> added_history;
  for (int step = 0; step < 400; ++step) {
    const int exponent = static_cast<int>(rng.uniform_index(600)) - 300;
    const double x = std::ldexp(rng.uniform(-1.0, 1.0), exponent);
    sum.add(x);
    added_history.push_back(x);
    value_history.push_back(bits(sum.value()));
    EXPECT_TRUE(sum.finite());
  }
  // Unwind in reverse: every intermediate state must come back exactly.
  for (int step = 400; step-- > 0;) {
    sum.subtract(added_history[static_cast<std::size_t>(step)]);
    EXPECT_EQ(bits(sum.value()), value_history[static_cast<std::size_t>(step)])
        << "step " << step;
  }
  EXPECT_EQ(sum.value(), 0.0);
  EXPECT_EQ(sum.component_count(), 0u);
}

TEST(ExactSum, RemovalInArbitraryOrderDrainsToExactZero) {
  Rng rng(99);
  ExactSum sum;
  std::vector<double> live;
  for (int i = 0; i < 100; ++i) {
    const int exponent = static_cast<int>(rng.uniform_index(400)) - 200;
    const double x = std::ldexp(rng.uniform(-1.0, 1.0), exponent);
    live.push_back(x);
    sum.add(x);
  }
  while (!live.empty()) {
    const std::size_t pos = rng.uniform_index(live.size());
    sum.subtract(live[pos]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pos));
    // Mid-drain the state must equal a fresh accumulation of survivors.
    ExactSum fresh;
    for (const double v : live) fresh.add(v);
    EXPECT_EQ(bits(sum.value()), bits(fresh.value()));
  }
  EXPECT_EQ(sum.value(), 0.0);
}

TEST(ExactSum, ValueIsPermutationInvariant) {
  Rng rng(31337);
  for (int round = 0; round < 50; ++round) {
    std::vector<double> values;
    const int count = 3 + static_cast<int>(rng.uniform_index(20));
    for (int i = 0; i < count; ++i) {
      const int exponent = static_cast<int>(rng.uniform_index(500)) - 250;
      values.push_back(std::ldexp(rng.uniform(-1.0, 1.0), exponent));
    }
    const double reference = sum_of(values);
    std::vector<double> shuffled = values;
    for (int shuffle = 0; shuffle < 10; ++shuffle) {
      for (std::size_t i = shuffled.size(); i-- > 1;) {
        std::swap(shuffled[i], shuffled[rng.uniform_index(i + 1)]);
      }
      EXPECT_EQ(bits(sum_of(shuffled)), bits(reference))
          << "round " << round << " shuffle " << shuffle;
    }
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(bits(sum_of(shuffled)), bits(reference));
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(bits(sum_of(shuffled)), bits(reference));
  }
}

TEST(ExactSum, AdversarialCancellationWherePlainSubtractionDrifts) {
  // The fixture motivating the exact remove policy: a huge transient
  // absorbs the low bits of a small resident, so the plain (compensated
  // style) subtract leaves residue while ExactSum restores the resident
  // exactly. 1e16 swallows 1.0's contribution entirely: ulp(1e16) = 2.
  double plain = 0.0;
  plain += 1.0;
  plain += 1e16;
  plain -= 1e16;
  EXPECT_NE(plain, 1.0);  // the drift is real (1.0 -> 0.0 here)

  ExactSum sum;
  sum.add(1.0);
  sum.add(1e16);
  EXPECT_EQ(sum.value(), 1e16);  // correctly rounded while the giant is in
  sum.subtract(1e16);
  EXPECT_EQ(sum.value(), 1.0);  // and exactly restored when it leaves

  // Repeated transients accumulate arbitrary plain-fp drift; exact stays
  // pinned at the true value through thousands of cancellations.
  for (int i = 0; i < 5000; ++i) {
    const double transient = std::ldexp(1.0, 40 + (i % 20));
    sum.add(transient);
    sum.subtract(transient);
  }
  EXPECT_EQ(sum.value(), 1.0);
  EXPECT_LE(sum.component_count(), 4u);
}

TEST(ExactSum, InfinitiesAreBookkeptAndReversible) {
  ExactSum sum;
  sum.add(0.5);
  const std::uint64_t before = bits(sum.value());
  sum.add(kInf);
  EXPECT_EQ(sum.value(), kInf);
  EXPECT_FALSE(sum.finite());
  sum.add(2.0);  // finite arithmetic continues underneath
  EXPECT_EQ(sum.value(), kInf);
  sum.subtract(kInf);  // the infinity leaves: exact finite state returns
  EXPECT_TRUE(sum.finite());
  sum.subtract(2.0);
  EXPECT_EQ(bits(sum.value()), before);
  // Two infinities need two departures.
  sum.add(kInf);
  sum.add(kInf);
  sum.subtract(kInf);
  EXPECT_EQ(sum.value(), kInf);
  sum.subtract(kInf);
  EXPECT_EQ(bits(sum.value()), before);
  // Opposing infinities are indeterminate, like fp addition.
  sum.add(kInf);
  sum.add(-kInf);
  EXPECT_TRUE(std::isnan(sum.value()));
  sum.subtract(-kInf);
  EXPECT_EQ(sum.value(), kInf);
  // NaN propagates until removed.
  ExactSum with_nan;
  with_nan.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(with_nan.value()));
  with_nan.subtract(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(with_nan.value(), 0.0);
}

TEST(ExactSum, FiniteOverflowSaturatesToInfinityWithoutNans) {
  const double huge = std::numeric_limits<double>::max();
  ExactSum sum;
  sum.add(huge);
  EXPECT_EQ(sum.value(), huge);
  sum.add(huge);  // true sum 2 * DBL_MAX is not representable
  EXPECT_EQ(sum.value(), kInf);
  EXPECT_FALSE(sum.finite());
  // Saturation is sticky (exactness is unrecoverable), but never NaN.
  sum.subtract(huge);
  EXPECT_EQ(sum.value(), kInf);
  sum.clear();
  EXPECT_EQ(sum.value(), 0.0);
  EXPECT_TRUE(sum.finite());
  // Negative direction mirrors.
  sum.add(-huge);
  sum.add(-huge);
  EXPECT_EQ(sum.value(), -kInf);
  // Large but representable sums stay exact: DBL_MAX/4 four times less
  // three times lands back on DBL_MAX/4.
  ExactSum big;
  for (int i = 0; i < 4; ++i) big.add(huge / 4.0);
  for (int i = 0; i < 3; ++i) big.subtract(huge / 4.0);
  EXPECT_EQ(big.value(), huge / 4.0);
  EXPECT_TRUE(big.finite());
}

TEST(ExactSum, ComponentsStayNonoverlappingAndCompact) {
  Rng rng(5);
  ExactSum sum;
  for (int i = 0; i < 300; ++i) {
    const int exponent = static_cast<int>(rng.uniform_index(200)) - 100;
    sum.add(std::ldexp(rng.uniform(-1.0, 1.0), exponent));
    const auto components = sum.components();
    // Increasing magnitude, no zeros, and each component entirely below
    // the next one's ulp after renormalization — the representation the
    // correctly rounded readout relies on.
    for (std::size_t k = 0; k < components.size(); ++k) {
      EXPECT_NE(components[k], 0.0);
      if (k + 1 < components.size()) {
        EXPECT_LT(std::abs(components[k]), std::abs(components[k + 1]));
      }
    }
    // The expansion of a 200-bit-range sum needs only a handful of limbs.
    EXPECT_LE(sum.component_count(), 8u);
  }
  sum.renormalize();  // idempotent and value-preserving
  const double before = sum.value();
  sum.renormalize();
  EXPECT_EQ(bits(sum.value()), bits(before));
  sum.clear();
  EXPECT_EQ(sum.component_count(), 0u);
}

/// ExactSum::sum_of against one-by-one add() on the same span: identical
/// rounded value and identical special-value state.
void expect_sum_of_matches_adds(const std::vector<double>& addends, const char* context) {
  ExactSum one_by_one;
  for (const double x : addends) one_by_one.add(x);
  const ExactSum batched = ExactSum::sum_of(addends);
  ASSERT_EQ(bits(batched.value()), bits(one_by_one.value())) << context;
  ASSERT_EQ(batched.finite(), one_by_one.finite()) << context;
  ASSERT_EQ(batched.saturated(), one_by_one.saturated()) << context;
}

TEST(ExactSum, SumOfMatchesOneByOneAdds) {
  Rng rng(8080);
  const double big = 0.75 * std::numeric_limits<double>::max();
  const std::vector<double> specials = {0.0, -0.0, kInf, -kInf, 5e-324, big, -big};
  for (int round = 0; round < 400; ++round) {
    const std::size_t k = rng.uniform_index(300);
    std::vector<double> addends(k);
    for (double& x : addends) {
      // Exponents over a ~1200-bit range, so the running expansion grows
      // long enough to take the compress and hand-over paths.
      const int exponent = static_cast<int>(rng.uniform_index(1200)) - 600;
      x = std::ldexp(rng.uniform(-1.0, 1.0), exponent);
      if (round % 2 == 1 && rng.bernoulli(0.05)) {
        x = specials[rng.uniform_index(specials.size())];
      }
    }
    expect_sum_of_matches_adds(addends, "random");
  }
  // Gain-like sums: non-negative, six decades.
  for (const std::size_t k : {0u, 1u, 9u, 1000u}) {
    std::vector<double> gains(k);
    for (double& x : gains) x = std::pow(10.0, rng.uniform(-9.0, -3.0));
    expect_sum_of_matches_adds(gains, "gains");
  }
  // Finite overflow saturates exactly like the add() path, and a NaN
  // poisons both.
  expect_sum_of_matches_adds({1.0, big, big, 2.0}, "overflow");
  expect_sum_of_matches_adds({1.0, std::numeric_limits<double>::quiet_NaN(), 2.0}, "nan");
}

}  // namespace
}  // namespace oisched
