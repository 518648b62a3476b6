// Near-threshold suite for the exact policy's error-bound filter.
//
// An exact-policy class certifies each verdict from a plain running sum
// and its forward error bound, and sums exactly only when the bound cannot
// decide. Random instances almost never land there, so these hand-built
// fixtures force every route to the exact path: a member check and an
// own-slot check that straddle the threshold (swept one ulp of beta at a
// time across it), members_feasible after motion, a cancellation that
// blows a slot's error budget, and a co-located (+inf) gain entering and
// leaving a class. Each asserts that the fallback happened and that the
// verdicts and slots equal those of a fresh exact class and of the
// rebuild-policy twin, bit for bit. Every class here holds at most three
// members, so a slot sums at most two gains and the rebuild twin's
// insertion-order plain sum is itself correctly rounded.
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
#include "obs/metrics.h"
#include "online/online_scheduler.h"
#include "sinr/gain_matrix.h"
#include "test_helpers.h"

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

/// The verdict both straddle sweeps ask: can link 2 join? An accepted
/// link joins through the stash its verdict left, exact or not.
bool admit_link_2(IncrementalGainClass& cls) {
  const bool ok = cls.can_add(2);
  if (ok) cls.add(2);
  return ok;
}

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
  // exactly. Its bound restarts at 4u times the re-derived value, which
  // must still cover the rounding of g2 + g3 when link 2 leaves in turn
  // and only g3 (2800 times smaller) is left.
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
    EXPECT_GT(live.exact_fallbacks(), 0u) << context;
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

}  // namespace
}  // namespace oisched
