// Differential suite for the SoA exact accumulator bank: its per-slot
// add/subtract must match a vector<ExactSum> oracle through its
// spill/saturation regimes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/exact_bank.h"
#include "util/exact_sum.h"
#include "util/rng.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kHuge = std::numeric_limits<double>::max();

/// Bit-level equality: NaNs with equal payloads compare equal, +0.0 and
/// -0.0 do not — the comparison the "bit for bit" promise actually means.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<double> random_row(std::size_t n, Rng& rng) {
  std::vector<double> row(n);
  for (double& x : row) x = rng.uniform(-1e6, 1e6);
  return row;
}

/// A row salted with the full edge-case menagerie: zeros of both signs,
/// infinities, NaN, denormals, and near-overflow magnitudes.
std::vector<double> edge_row(std::size_t n, Rng& rng) {
  std::vector<double> row = random_row(n, rng);
  const std::vector<double> specials = {0.0,   -0.0,  kInf,    -kInf,
                                        kNaN,  5e-324, -5e-324, 0.5 * kHuge,
                                        -0.75 * kHuge};
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (rng.bernoulli(0.4)) {
      row[k] = specials[rng.uniform_index(specials.size())];
    }
  }
  return row;
}

/// Drives a bank and a vector<ExactSum> oracle through the identical
/// per-slot op sequence — each round adds or subtracts a row over a slot
/// range — and asserts both expose bit-identical rounded values (the
/// bank's returned readouts included) and agreeing saturation state
/// throughout.
void fuzz_bank_against_oracle(std::uint64_t seed, bool edge_rows) {
  Rng rng(seed);
  const std::size_t n = 24;
  ExactSumBank bank;
  bank.resize(n);
  std::vector<ExactSum> oracle(n);
  std::vector<double> acc(n, 0.0);

  for (int round = 0; round < 60; ++round) {
    const std::size_t base = rng.uniform_index(n);
    const std::size_t len = 1 + rng.uniform_index(n - base);
    const std::vector<double> row =
        edge_rows ? edge_row(len, rng) : random_row(len, rng);
    const bool subtract = rng.bernoulli(0.5);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t i = base + k;
      if (subtract) {
        acc[i] = bank.subtract(i, row[k]);
        oracle[i].subtract(row[k]);
      } else {
        acc[i] = bank.add(i, row[k]);
        oracle[i].add(row[k]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = oracle[i].value();
      ASSERT_TRUE(same_bits(bank.value(i), expected))
          << "round " << round << " slot " << i;
      ASSERT_TRUE(same_bits(acc[i], expected)) << "round " << round << " acc slot " << i;
      ASSERT_EQ(bank.saturated(i), oracle[i].saturated())
          << "round " << round << " slot " << i;
    }
  }
}

TEST(ExactSumBankDifferential, FiniteFuzzMatchesExactSumOracle) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    fuzz_bank_against_oracle(seed, /*edge_rows=*/false);
  }
}

TEST(ExactSumBankDifferential, EdgeCaseFuzzMatchesExactSumOracle) {
  for (std::uint64_t seed : {55u, 66u, 77u, 88u}) {
    fuzz_bank_against_oracle(seed, /*edge_rows=*/true);
  }
}

TEST(ExactSumBank, InfinityBookkeepingIsReversible) {
  ExactSumBank bank;
  bank.resize(4);
  std::vector<double> acc(4, 0.0);
  const double row1[] = {1.5, kInf, -kInf, kNaN};
  for (std::size_t i = 0; i < 4; ++i) acc[i] = bank.add(i, row1[i]);
  EXPECT_TRUE(same_bits(acc[0], 1.5));
  EXPECT_TRUE(same_bits(acc[1], kInf));
  EXPECT_TRUE(same_bits(acc[2], -kInf));
  EXPECT_TRUE(std::isnan(acc[3]));
  EXPECT_EQ(bank.spilled_slots(), 3u);  // the non-finite slots; 1.5 stays inline
  // Withdrawing the specials migrates the slots back to the fast regime —
  // exactly ExactSum's reversible counters — and subsequent finite sums
  // read as if the excursion never happened.
  for (std::size_t i = 0; i < 4; ++i) acc[i] = bank.subtract(i, row1[i]);
  EXPECT_EQ(bank.spilled_slots(), 0u);
  const double row2[] = {0.25, -3.0, 7.0, 2.0};
  for (std::size_t i = 0; i < 4; ++i) acc[i] = bank.add(i, row2[i]);
  for (std::size_t i = 0; i < 4; ++i) {
    ExactSum ref;
    ref.add(row1[i]);
    ref.subtract(row1[i]);
    ref.add(row2[i]);
    EXPECT_TRUE(same_bits(bank.value(i), ref.value())) << "slot " << i;
    EXPECT_TRUE(same_bits(acc[i], ref.value())) << "slot " << i;
    EXPECT_FALSE(bank.saturated(i));
  }
}

TEST(ExactSumBank, StickySaturationMatchesExactSum) {
  ExactSumBank bank;
  bank.resize(2);
  ExactSum ref;
  // Two finite near-max addends overflow the double range: sticky
  // saturation, not an infinity count — subtracting one back must NOT
  // clear it, matching ExactSum exactly.
  for (int twice = 0; twice < 2; ++twice) {
    (void)bank.add(0, 0.75 * kHuge);
    (void)bank.add(1, 1.0);
  }
  ref.add(0.75 * kHuge);
  ref.add(0.75 * kHuge);
  EXPECT_TRUE(bank.saturated(0));
  EXPECT_FALSE(bank.saturated(1));
  EXPECT_TRUE(ref.saturated());
  EXPECT_TRUE(same_bits(bank.value(0), ref.value()));
  (void)bank.subtract(0, 0.75 * kHuge);
  ref.subtract(0.75 * kHuge);
  EXPECT_TRUE(bank.saturated(0));  // sticky
  EXPECT_TRUE(ref.saturated());
  EXPECT_TRUE(same_bits(bank.value(0), ref.value()));
}

TEST(ExactSumBank, StoreRoundTripsLongAndNonFiniteSums) {
  ExactSumBank bank;
  bank.resize(2);
  ExactSum long_sum;
  // Five pairwise non-overlapping magnitudes compress to > 4 components.
  for (const double x : {1e300, 1e200, 1e100, 1.0, 1e-100}) long_sum.add(x);
  ASSERT_GT(long_sum.component_count(), ExactSumBank::kSlotComponents);
  bank.store(0, long_sum);
  EXPECT_TRUE(same_bits(bank.value(0), long_sum.value()));
  EXPECT_EQ(bank.spilled_slots(), 1u);
  ExactSum small;
  small.add(2.5);
  bank.store(0, small);  // re-store shrinks back inline
  EXPECT_TRUE(same_bits(bank.value(0), 2.5));
  EXPECT_EQ(bank.spilled_slots(), 0u);
}

TEST(ExactSumBank, EraseShiftsLaterSlotsWithTheirState) {
  ExactSumBank bank;
  bank.resize(5);
  std::vector<ExactSum> oracle(5);
  // Slot 1 spills (an infinity), slot 3 spills (a long expansion); the
  // rest stay inline. Erasing slot 2 must re-key slot 3's spill to 2.
  const std::vector<std::vector<double>> adds = {
      {1.5}, {2.0, kInf}, {0.25}, {1e300, 1e200, 1e100, 1.0, 1e-100}, {-7.0}};
  for (std::size_t i = 0; i < adds.size(); ++i) {
    for (const double x : adds[i]) {
      (void)bank.add(i, x);
      oracle[i].add(x);
    }
  }
  ASSERT_EQ(bank.spilled_slots(), 2u);
  const auto expect_matches = [&](const char* context) {
    ASSERT_EQ(bank.size(), oracle.size()) << context;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_TRUE(same_bits(bank.value(i), oracle[i].value())) << context << " slot " << i;
    }
  };
  bank.erase(2);
  oracle.erase(oracle.begin() + 2);
  expect_matches("erase inline");
  EXPECT_EQ(bank.spilled_slots(), 2u);
  bank.erase(1);
  oracle.erase(oracle.begin() + 1);
  expect_matches("erase spilled");
  EXPECT_EQ(bank.spilled_slots(), 1u);
  // The survivors keep accumulating exactly where they now sit.
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    (void)bank.add(i, 0.5);
    oracle[i].add(0.5);
  }
  expect_matches("after erase");
}

}  // namespace
}  // namespace oisched
