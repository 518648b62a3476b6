// Near-threshold suite for the exact policy's error-bound filter.
//
// An exact-policy class certifies each verdict from a plain running sum
// and its forward error bound, and sums exactly only when the bound cannot
// decide. Random instances almost never land there, so these hand-built
// fixtures force every route to the exact path: a member check and an
// own-slot check that straddle the threshold (swept one ulp of beta at a
// time across it), members_feasible after motion, and a co-located (+inf)
// gain entering and leaving a class. Each asserts that the fallback
// happened and that the verdicts and slots equal those of a fresh exact
// class and of the rebuild-policy twin, bit for bit. A cancellation that
// blows a slot's error budget re-derives the slot from a plain sum
// instead, and asserts that no exact sum ran. Every class here holds at
// most three members, so a slot sums at most two gains and the rebuild
// twin's insertion-order plain sum is itself correctly rounded.
//
// On a computed Euclidean matrix the filter reads pow-free gain estimates
// instead of the entries. A cancellation there checks that the plain-sum
// re-derivation's bound is what keeps the verdicts exact. The last cases
// check the estimate's bound over a million random (power, distance)
// pairs, a candidate whose estimated gain interval straddles the
// threshold (bit-identical to dense and rebuild twins), and the slack-0
// path of a non-integer alpha or a non-Euclidean metric.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/power_assignment.h"
#include "gen/churn.h"
#include "metric/matrix_metric.h"
#include "obs/metrics.h"
#include "online/online_scheduler.h"
#include "sinr/gain_matrix.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::line_pairs;
using testutil::line_scenario;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Betas from 24 ulps below `center` to 24 ulps above it.
std::vector<double> betas_around(double center) {
  double beta = center;
  for (int i = 0; i < 24; ++i) beta = std::nextafter(beta, 0.0);
  std::vector<double> betas;
  for (int i = 0; i <= 48; ++i) {
    betas.push_back(beta);
    beta = std::nextafter(beta, kInf);
  }
  return betas;
}

IncrementalGainClass built(const GainMatrix& gains, const SinrParams& params,
                           RemovePolicy policy, const std::vector<std::size_t>& members) {
  IncrementalGainClass cls(gains, params, policy);
  for (const std::size_t m : members) cls.add(m);
  return cls;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every slot of `live` against the fresh exact twin, and against the
/// rebuild twin wherever the slot sums at most two member gains.
void expect_slots_match(const GainMatrix& gains, const IncrementalGainClass& live,
                        const IncrementalGainClass& exact_twin,
                        const IncrementalGainClass& rebuild_twin, const std::string& context) {
  EXPECT_EQ(live.accumulator_drift(), 0.0) << context;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    EXPECT_EQ(bits(live.accumulator_v(i)), bits(exact_twin.accumulator_v(i)))
        << context << ": slot " << i;
    EXPECT_EQ(bits(live.accumulator_u(i)), bits(exact_twin.accumulator_u(i)))
        << context << ": slot " << i;
    const std::size_t terms = live.size() - (live.contains(i) ? 1 : 0);
    if (terms > 2) continue;
    EXPECT_EQ(bits(live.accumulator_v(i)), bits(rebuild_twin.accumulator_v(i)))
        << context << ": slot " << i;
    EXPECT_EQ(bits(live.accumulator_u(i)), bits(rebuild_twin.accumulator_u(i)))
        << context << ": slot " << i;
  }
}

/// One beta sweep across a threshold: builds the live class, a fresh exact
/// twin in reverse order and a rebuild twin for every beta, asks
/// `verdict` of each, and requires agreement, a fallback somewhere in the
/// sweep, and both outcomes (so the sweep really crossed the threshold).
/// `verdict` may mutate the class (a motion bracket, an accepted add).
template <typename Verdict>
void sweep(const GainMatrix& gains, SinrParams params, double center,
           const std::vector<std::size_t>& members, Verdict verdict,
           const std::string& context) {
  std::size_t fallbacks = 0;
  bool accepted = false;
  bool rejected = false;
  const std::vector<std::size_t> reversed(members.rbegin(), members.rend());
  for (const double beta : betas_around(center)) {
    params.beta = beta;
    IncrementalGainClass live = built(gains, params, RemovePolicy::exact, members);
    IncrementalGainClass exact_twin = built(gains, params, RemovePolicy::exact, reversed);
    IncrementalGainClass rebuild_twin = built(gains, params, RemovePolicy::rebuild, members);
    const bool ok = verdict(live);
    EXPECT_EQ(ok, verdict(exact_twin)) << context << " beta " << beta;
    EXPECT_EQ(ok, verdict(rebuild_twin)) << context << " beta " << beta;
    fallbacks += live.exact_fallbacks();
    EXPECT_EQ(rebuild_twin.exact_fallbacks(), 0u) << context;
    (ok ? accepted : rejected) = true;
    expect_slots_match(gains, live, exact_twin, rebuild_twin, context);
  }
  EXPECT_GT(fallbacks, 0u) << context;
  EXPECT_TRUE(accepted && rejected) << context;
}

/// Can `link` join? An accepted link joins through the stash its verdict
/// left, exact or not.
bool admit(IncrementalGainClass& cls, std::size_t link) {
  const bool ok = cls.can_add(link);
  if (ok) cls.add(link);
  return ok;
}

/// The verdict both straddle sweeps ask.
bool admit_link_2(IncrementalGainClass& cls) { return admit(cls, 2); }

TEST(NearThreshold, MemberCheckThatStraddlesIsDecidedExactly) {
  // Link 0 (length 1, signal 1) hears link 1's sender at distance 4 and
  // the candidate's at distance 8: comparable gains, so the member slot's
  // interval survives the extra term. Links 1 and 2 are short, so their
  // own checks are far from any threshold and only member 0 straddles.
  const auto scenario = line_pairs({0.0, 1.0, 5.0, 5.01, 9.0, 9.01});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  const GainMatrix gains(instance, powers, params.alpha, Variant::directed);
  const double center = gains.signal(0) / (gains.at_v(1, 0) + gains.at_v(2, 0));

  // Far from the threshold the filter certifies without an exact sum.
  params.beta = center / 2.0;
  IncrementalGainClass easy = built(gains, params, RemovePolicy::exact, {0, 1});
  EXPECT_TRUE(easy.can_add(2));
  EXPECT_EQ(easy.exact_fallbacks(), 0u);

  sweep(gains, params, center, {0, 1}, admit_link_2, "member check");
}

TEST(NearThreshold, OwnSlotCheckThatStraddlesIsDecidedExactly) {
  // The candidate (length 1, signal 1) hears both members' senders at
  // distances 11 and 8; the members are short links, comfortably feasible.
  const auto scenario = line_pairs({0.0, 0.01, 3.0, 3.01, 10.0, 11.0});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  const GainMatrix gains(instance, powers, params.alpha, Variant::directed);
  const double center = gains.signal(2) / (gains.at_v(0, 2) + gains.at_v(1, 2));
  sweep(gains, params, center, {0, 1}, admit_link_2, "own-slot check");
}

TEST(NearThreshold, MembersFeasibleAfterMotionIsDecidedExactly) {
  // Member 0 (length 1) hears members 1 and 2. Link 1 moves onto the spare
  // nodes 6/7, so member 0's slot goes through a subtract and an add
  // before members_feasible asks it against a threshold at its new sum.
  const auto scenario = line_scenario({0.0, 1.0, 5.0, 5.01, 9.0, 9.01, 3.0, 3.01},
                                      {{0, 1}, {2, 3}, {4, 5}});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  const Request moved{6, 7};
  GainMatrix moved_gains(instance, powers, params.alpha, Variant::directed,
                         /*with_sender_gains=*/false, GainBackend::computed);
  moved_gains.update_request(1, moved, 1.0);
  const double center =
      moved_gains.signal(0) / (moved_gains.at_v(1, 0) + moved_gains.at_v(2, 0));

  std::size_t fallbacks = 0;
  bool feasible = false;
  bool infeasible = false;
  for (const double beta : betas_around(center)) {
    params.beta = beta;
    GainMatrix gains(instance, powers, params.alpha, Variant::directed,
                     /*with_sender_gains=*/false, GainBackend::computed);
    IncrementalGainClass live = built(gains, params, RemovePolicy::exact, {0, 1, 2});
    live.begin_link_update(1);
    gains.update_request(1, moved, 1.0);
    live.finish_link_update(1);
    const std::size_t before = live.exact_fallbacks();
    const bool ok = live.members_feasible();
    fallbacks += live.exact_fallbacks() - before;
    const IncrementalGainClass exact_twin =
        built(moved_gains, params, RemovePolicy::exact, {2, 1, 0});
    const IncrementalGainClass rebuild_twin =
        built(moved_gains, params, RemovePolicy::rebuild, {0, 1, 2});
    EXPECT_EQ(ok, exact_twin.members_feasible()) << "beta " << beta;
    EXPECT_EQ(ok, rebuild_twin.members_feasible()) << "beta " << beta;
    (ok ? feasible : infeasible) = true;
    expect_slots_match(gains, live, exact_twin, rebuild_twin, "motion");
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_TRUE(feasible && infeasible);
}

TEST(NearThreshold, CancellationPastTheBudgetRederivesTheSlot) {
  // At link 0's receiver, link 1's sender is 1 away, link 2's 500 and
  // link 3's ~7071: gains near 1, 8e-9 and 3e-12. When link 1 leaves, the
  // plain sum keeps an error of about an ulp of the old, large sum, far
  // past the budget relative to what is left, so the slot is re-derived
  // as a fresh plain sum of g2 and g3, with no exact sum. Its bound
  // restarts at c * 4u times the re-derived value, which must still cover
  // the rounding of g2 + g3 when link 2 leaves in turn and only g3 (2800
  // times smaller) is left.
  const auto scenario = line_pairs({0, 1, 2, 2.01, 501, 501.01, 7072, 7072.01, 300, 300.01});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  params.beta = 1e-3;
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const std::string context = std::string("cancellation/") +
                                (variant == Variant::directed ? "directed" : "bidirectional");
    const GainMatrix gains(instance, powers, params.alpha, variant);
    IncrementalGainClass live = built(gains, params, RemovePolicy::exact, {0, 1, 2, 3});
    EXPECT_EQ(live.exact_fallbacks(), 0u) << context;
    live.remove(1);
    // Re-derived from the plain sum: the exact sum never ran.
    EXPECT_EQ(live.exact_fallbacks(), 0u) << context;
    EXPECT_EQ(live.removal_rebuilds(), 0u) << context;
    const std::vector<std::vector<std::size_t>> stages = {{0, 2, 3}, {0, 3}};
    for (const std::vector<std::size_t>& left : stages) {
      if (left.size() == 2) live.remove(2);
      const std::vector<std::size_t> reversed(left.rbegin(), left.rend());
      const IncrementalGainClass exact_twin =
          built(gains, params, RemovePolicy::exact, reversed);
      const IncrementalGainClass rebuild_twin =
          built(gains, params, RemovePolicy::rebuild, left);
      const std::string step = context + "/" + std::to_string(left.size()) + " left";
      expect_slots_match(gains, live, exact_twin, rebuild_twin, step);
      for (const std::size_t cand : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_EQ(live.can_add(cand), rebuild_twin.can_add(cand)) << step << " " << cand;
        EXPECT_EQ(live.can_add(cand), exact_twin.can_add(cand)) << step << " " << cand;
      }
      EXPECT_EQ(live.members_feasible(), rebuild_twin.members_feasible()) << step;
    }
    EXPECT_EQ(bits(live.member_accumulator_v(0)), bits(gains.at_v(3, 0))) << context;
  }
}

TEST(NearThreshold, CancellationOnTheKernelRederivesFromThePlainSum) {
  // The cancellation above on a computed Euclidean matrix, with links 2
  // and 3 placed so that the plain sum of their estimates at link 0's
  // receiver is 2 ulps off the correctly rounded sum of their entries.
  // When link 1 leaves, slot 0 blows its budget and is re-derived as a
  // fresh plain sum with bound c * 4u * s + 2d * s, without an exact sum.
  // That bound is tight: link 0's check certifies 2^-35 either side of its
  // threshold, where a slot past its 2^-26 budget would straddle. And it is
  // needed: swept one ulp of beta at a time across the threshold, the
  // interval straddles and every verdict matches the dense exact twin and
  // the rebuild twin, where a bound of 0 would certify the plain sum's
  // verdict and miss the exact sum.
  const auto scenario = line_pairs({0, 1, 2, 2.01, 554.1, 554.11, 7072.3, 7072.31});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const std::string context = variant == Variant::directed ? "directed" : "bidirectional";
    SinrParams params;
    const GainMatrix dense(instance, powers, params.alpha, variant);
    const GainMatrix computed(instance, powers, params.alpha, variant,
                              /*with_sender_gains=*/false, GainBackend::computed);
    ASSERT_GT(computed.gain_slack(), 0.0);
    const EuclideanGainKernel& kernel = *computed.euclidean_kernel();
    const double plain = kernel.estimate(2, 0, /*sender_side=*/false) +
                         kernel.estimate(3, 0, /*sender_side=*/false);
    const double exact = dense.at_v(2, 0) + dense.at_v(3, 0);
    ASSERT_NE(bits(plain), bits(exact)) << context;
    const double center = dense.signal(0) / exact;
    const auto cancelled = [&](double beta) {
      params.beta = beta;
      IncrementalGainClass live = built(computed, params, RemovePolicy::exact, {0, 1, 2, 3});
      live.remove(1);
      EXPECT_EQ(live.exact_fallbacks(), 0u) << context << " beta " << beta;
      EXPECT_EQ(live.removal_rebuilds(), 0u) << context << " beta " << beta;
      return live;
    };

    for (const double beta : {center * (1.0 - 0x1p-35), center * (1.0 + 0x1p-35)}) {
      const IncrementalGainClass live = cancelled(beta);
      EXPECT_EQ(live.members_feasible(), beta < center) << context << " beta " << beta;
      EXPECT_EQ(live.exact_fallbacks(), 0u) << context << " beta " << beta;
    }

    std::size_t fallbacks = 0;
    bool feasible = false;
    bool infeasible = false;
    for (const double beta : betas_around(center)) {
      const IncrementalGainClass live = cancelled(beta);
      const IncrementalGainClass exact_twin =
          built(dense, params, RemovePolicy::exact, {3, 2, 0});
      const IncrementalGainClass rebuild_twin =
          built(dense, params, RemovePolicy::rebuild, {0, 2, 3});
      const bool ok = live.members_feasible();
      EXPECT_EQ(ok, exact_twin.members_feasible()) << context << " beta " << beta;
      EXPECT_EQ(ok, rebuild_twin.members_feasible()) << context << " beta " << beta;
      fallbacks += live.exact_fallbacks();
      (ok ? feasible : infeasible) = true;
      expect_slots_match(computed, live, exact_twin, rebuild_twin, context);
    }
    EXPECT_GT(fallbacks, 0u) << context;
    EXPECT_TRUE(feasible && infeasible) << context;
  }
}

TEST(NearThreshold, CoLocatedInfiniteGainEntersAndLeavesAClass) {
  // Link 1's sender sits on link 0's receiver (both at coordinate 1), so
  // at_v(1, 0) is +inf. Forcing link 1 into the class sends the member
  // slot to the exact path; its departure brings the finite state back.
  const auto scenario = line_pairs({0.0, 1.0, 1.0, 2.0, 10.0, 11.0, 40.0, 41.0});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  params.beta = 1e-3;
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const std::string context = std::string("co-located/") +
                                (variant == Variant::directed ? "directed" : "bidirectional");
    const GainMatrix gains(instance, powers, params.alpha, variant);
    ASSERT_EQ(gains.at_v(1, 0), kInf);
    IncrementalGainClass live = built(gains, params, RemovePolicy::exact, {0, 2});
    // The filter rejects the co-located candidate outright: +inf extra
    // interference fails at both ends of the interval.
    EXPECT_FALSE(live.can_add(1)) << context;
    live.add(1);
    EXPECT_GT(live.exact_fallbacks(), 0u) << context;
    {
      const IncrementalGainClass exact_twin =
          built(gains, params, RemovePolicy::exact, {1, 2, 0});
      const IncrementalGainClass rebuild_twin =
          built(gains, params, RemovePolicy::rebuild, {0, 2, 1});
      EXPECT_EQ(live.accumulator_v(0), kInf) << context;
      expect_slots_match(gains, live, exact_twin, rebuild_twin, context + " in");
      const std::size_t before = live.exact_fallbacks();
      EXPECT_FALSE(live.members_feasible()) << context;
      EXPECT_GT(live.exact_fallbacks(), before) << context;
      EXPECT_EQ(live.members_feasible(), rebuild_twin.members_feasible()) << context;
      EXPECT_EQ(live.can_add(3), rebuild_twin.can_add(3)) << context;
      EXPECT_EQ(live.can_add(3), exact_twin.can_add(3)) << context;
    }
    live.remove(1);
    EXPECT_EQ(live.removal_rebuilds(), 0u) << context;
    const IncrementalGainClass exact_twin = built(gains, params, RemovePolicy::exact, {2, 0});
    const IncrementalGainClass rebuild_twin =
        built(gains, params, RemovePolicy::rebuild, {0, 2});
    EXPECT_TRUE(std::isfinite(live.accumulator_v(0))) << context;
    expect_slots_match(gains, live, exact_twin, rebuild_twin, context + " out");
    EXPECT_TRUE(live.members_feasible()) << context;
    EXPECT_EQ(live.can_add(3), rebuild_twin.can_add(3)) << context;
  }
}

TEST(NearThreshold, SchedulerCountsFallbacksOfClosedClassesToo) {
  // Motion drives link 2 onto link 0's receiver: the moved member's +inf
  // gain goes through the exact path, members_feasible fails, and the
  // link is evicted. The fallbacks stay counted after link 0's class
  // closes, and the registry series reads the same number.
  const auto scenario = line_scenario({0.0, 1.0, 30.0, 31.0, 60.0, 61.0, 1.0, 2.0},
                                      {{0, 1}, {2, 3}, {4, 5}});
  const Instance instance = scenario.instance();
  SinrParams params;
  params.beta = 1e-3;
  const auto powers = UniformPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = GainBackend::computed;
  OnlineScheduler scheduler(instance, powers, params, Variant::directed, options);
  obs::MetricsRegistry registry;
  register_online_metrics(registry, scheduler);
  EXPECT_EQ(scheduler.on_arrival(0), 0);
  EXPECT_EQ(scheduler.on_arrival(2), 0);
  EXPECT_EQ(scheduler.stats().exact_fallbacks, 0u);
  EXPECT_NE(scheduler.on_link_update(2, Request{6, 7}), 0);  // evicted and re-placed
  const std::size_t fallbacks = scheduler.stats().exact_fallbacks;
  EXPECT_GT(fallbacks, 0u);
  scheduler.on_departure(0);
  EXPECT_EQ(scheduler.stats().exact_fallbacks, fallbacks);
  EXPECT_EQ(registry.scrape().counter_total("oisched_exact_fallbacks_total"), fallbacks);
  EXPECT_NO_THROW(scheduler.audit());
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(NearThreshold, GainEstimateStaysWithinItsSlack) {
  // A million (power, distance) pairs per exponent: log-uniform powers,
  // distances whose d^alpha spans 2^-1100 .. 2^1100 (past both guards, so
  // overflow, underflow and the exact fallback are all hit), and
  // distances a few ulps either side of each guard.
  Rng rng(20261019);
  std::size_t estimated = 0;
  for (const int exponent : {1, 2, 3, 4, 8}) {
    const double alpha = exponent;
    std::vector<double> distances;
    for (const double guard : {-900.0, 900.0}) {
      double d = std::exp2(guard / alpha);
      for (int i = 0; i < 16; ++i) d = std::nextafter(d, 0.0);
      for (int i = 0; i < 32; ++i) {
        distances.push_back(d);
        d = std::nextafter(d, kInf);
      }
    }
    for (int i = 0; i < 1000000; ++i) {
      const double power = std::exp2(rng.uniform(-200.0, 200.0));
      const double d = i < static_cast<int>(distances.size())
                           ? distances[static_cast<std::size_t>(i)]
                           : std::exp2(rng.uniform(-1100.0, 1100.0) / alpha);
      const double exact = exact_gain(power, d, alpha);
      const double estimate = estimated_gain(power, d, exponent, alpha);
      // Clear of the guards (by a factor of 2, so the product and pow
      // agree on which side they are), the estimate is the entry itself.
      const double loss = std::pow(d, alpha);
      const bool guarded = !(loss > 0x1p-901 && loss < 0x1p901) ||
                           !(exact > 0x1p-901 && exact < 0x1p901);
      if (guarded || !std::isfinite(estimate) || estimate == 0.0) {
        ASSERT_EQ(bits(estimate), bits(exact)) << "alpha " << alpha << " d " << d;
        continue;
      }
      if (estimate != exact) ++estimated;
      ASSERT_LE(std::abs(exact - estimate), kGainEstimateSlack * estimate)
          << "alpha " << alpha << " power " << power << " d " << d;
    }
  }
  // Many estimates differ from their entry in the last bits: those pairs
  // really were estimated, not handed to std::pow.
  EXPECT_GT(estimated, 100000u);
}

TEST(NearThreshold, EuclideanKernelMatchesTheTableAndBoundsItsEstimates) {
  // Every entry of a computed Euclidean matrix equals the dense table's,
  // and every estimate lies within gain_slack() of it, on both sides.
  const auto scenario = testutil::random_scenario(48, 7);
  const Instance instance = scenario.instance();
  SinrParams params;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const GainMatrix dense(instance, powers, params.alpha, variant,
                           /*with_sender_gains=*/true);
    const GainMatrix computed(instance, powers, params.alpha, variant,
                              /*with_sender_gains=*/true, GainBackend::computed);
    ASSERT_NE(computed.euclidean_kernel(), nullptr);
    ASSERT_EQ(computed.gain_slack(), kGainEstimateSlack);
    const EuclideanGainKernel& kernel = *computed.euclidean_kernel();
    EXPECT_EQ(dense.gain_slack(), 0.0);
    for (std::size_t j = 0; j < instance.size(); ++j) {
      for (std::size_t i = 0; i < instance.size(); ++i) {
        ASSERT_EQ(bits(computed.at_v(j, i)), bits(dense.at_v(j, i))) << j << " " << i;
        ASSERT_EQ(bits(computed.at_u(j, i)), bits(dense.at_u(j, i))) << j << " " << i;
        const double ev = kernel.estimate(j, i, /*sender_side=*/false);
        EXPECT_LE(std::abs(computed.at_v(j, i) - ev), computed.gain_slack() * ev);
        const double eu = kernel.estimate(j, i, /*sender_side=*/true);
        EXPECT_LE(std::abs(computed.at_u(j, i) - eu), computed.gain_slack() * eu);
      }
    }
  }
}

TEST(NearThreshold, EstimatedGainThatStraddlesIsDecidedExactly) {
  // Member 0 (length 1) is alone in its class, so its slot is exactly 0
  // and any straddle comes from the candidate's estimated gain alone: the
  // candidate (link 1, short, far from its own threshold) has its sender
  // at distance 4.1 from member 0's receiver, where 1 / (d * d * d) is an
  // ulp below 1 / pow(d, 3). Swept one ulp of beta at a time across
  // signal_0 / gain, the interval [g~ - d g~, g~ + d g~] straddles for
  // every beta near the threshold, and a filter that trusted g~ alone
  // would accept where the exact test rejects.
  const auto scenario = line_pairs({0.0, 1.0, 5.1, 5.11});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const std::string context = variant == Variant::directed ? "directed" : "bidirectional";
    SinrParams params;
    const GainMatrix dense(instance, powers, params.alpha, variant);
    const GainMatrix computed(instance, powers, params.alpha, variant,
                              /*with_sender_gains=*/false, GainBackend::computed);
    ASSERT_GT(computed.gain_slack(), 0.0);
    ASSERT_NE(bits(computed.euclidean_kernel()->estimate(1, 0, /*sender_side=*/false)),
              bits(computed.at_v(1, 0)));
    const double worst = std::max(computed.at_v(1, 0), computed.at_u(1, 0));
    const double center = computed.signal(0) / worst;
    std::size_t fallbacks = 0;
    bool accepted = false;
    bool rejected = false;
    for (const double beta : betas_around(center)) {
      params.beta = beta;
      IncrementalGainClass live = built(computed, params, RemovePolicy::exact, {0});
      IncrementalGainClass dense_twin = built(dense, params, RemovePolicy::exact, {0});
      IncrementalGainClass rebuild_twin = built(computed, params, RemovePolicy::rebuild, {0});
      const bool ok = admit(live, 1);
      EXPECT_EQ(ok, admit(dense_twin, 1)) << context << " beta " << beta;
      EXPECT_EQ(ok, admit(rebuild_twin, 1)) << context << " beta " << beta;
      fallbacks += live.exact_fallbacks();
      EXPECT_EQ(dense_twin.exact_fallbacks(), 0u) << context;
      (ok ? accepted : rejected) = true;
      expect_slots_match(computed, live, dense_twin, rebuild_twin, context);
    }
    EXPECT_GT(fallbacks, 0u) << context;
    EXPECT_TRUE(accepted && rejected) << context;
  }
}

TEST(NearThreshold, NonIntegerAlphaAndOtherMetricsTakeTheSlackZeroPath) {
  const auto scenario = testutil::random_scenario(32, 11);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 2.5;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const GainMatrix dense(instance, powers, params.alpha, Variant::bidirectional);
  const GainMatrix computed(instance, powers, params.alpha, Variant::bidirectional,
                            /*with_sender_gains=*/false, GainBackend::computed);
  // The kernel still serves the entries, but offers no estimate.
  ASSERT_NE(computed.euclidean_kernel(), nullptr);
  EXPECT_EQ(computed.euclidean_kernel()->exponent, 0);
  EXPECT_EQ(computed.gain_slack(), 0.0);
  for (std::size_t j = 0; j < instance.size(); ++j) {
    for (std::size_t i = 0; i < instance.size(); ++i) {
      ASSERT_EQ(bits(computed.at_v(j, i)), bits(dense.at_v(j, i)));
      ASSERT_EQ(bits(computed.at_u(j, i)), bits(dense.at_u(j, i)));
    }
  }
  // First-fit over both matrices takes the same links into the same
  // classes, with bit-identical slots and the same fallbacks.
  params.beta = 0.5;
  std::vector<IncrementalGainClass> on_computed;
  std::vector<IncrementalGainClass> on_dense;
  for (std::size_t link = 0; link < instance.size(); ++link) {
    std::size_t c = 0;
    while (c < on_computed.size() && !on_computed[c].can_add(link)) ++c;
    if (c == on_computed.size()) {
      on_computed.emplace_back(computed, params, RemovePolicy::exact);
      on_dense.emplace_back(dense, params, RemovePolicy::exact);
    }
    ASSERT_TRUE(on_dense[c].can_add(link)) << link;
    for (std::size_t d = 0; d < c; ++d) ASSERT_FALSE(on_dense[d].can_add(link)) << link;
    on_computed[c].add(link);
    on_dense[c].add(link);
  }
  for (std::size_t c = 0; c < on_computed.size(); ++c) {
    EXPECT_EQ(on_computed[c].exact_fallbacks(), on_dense[c].exact_fallbacks());
    for (std::size_t p = 0; p < on_computed[c].size(); ++p) {
      EXPECT_EQ(bits(on_computed[c].member_accumulator_v(p)),
                bits(on_dense[c].member_accumulator_v(p)));
      EXPECT_EQ(bits(on_computed[c].member_accumulator_u(p)),
                bits(on_dense[c].member_accumulator_u(p)));
    }
  }

  // An integer alpha past the estimate's range gets the kernel but no
  // estimate; a non-Euclidean metric gets neither.
  const auto steep_powers = SqrtPower{}.assign(instance, 9.0);
  const GainMatrix steep(instance, steep_powers, 9.0, Variant::directed,
                         /*with_sender_gains=*/false, GainBackend::computed);
  EXPECT_NE(steep.euclidean_kernel(), nullptr);
  EXPECT_EQ(steep.gain_slack(), 0.0);
  const MatrixMetric snapshot = MatrixMetric::from(instance.metric());
  const GainMatrix tabled(snapshot, instance.requests(), powers, params.alpha,
                          Variant::bidirectional, /*with_sender_gains=*/false,
                          GainBackend::computed);
  EXPECT_EQ(tabled.euclidean_kernel(), nullptr);
  EXPECT_EQ(tabled.gain_slack(), 0.0);
  EXPECT_EQ(bits(tabled.at_v(3, 5)), bits(dense.at_v(3, 5)));
}

}  // namespace
}  // namespace oisched
