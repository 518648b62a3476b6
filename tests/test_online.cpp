// Online subsystem suite: IncrementalGainClass::remove exactness under both
// policies, OnlineScheduler bookkeeping and compaction, and the
// online-vs-offline equivalence gate — replaying any trace to its final
// state must yield classes the direct (offline) feasibility engine
// re-validates bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "gen/churn.h"
#include "metric/matrix_metric.h"
#include "online/online_scheduler.h"
#include "sinr/feasibility.h"
#include "sinr/gain_matrix.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/exact_sum.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::grid_scenario;
using testutil::line_pairs;
using testutil::random_scenario;

std::vector<testutil::Scenario> fixtures() {
  std::vector<testutil::Scenario> scenarios;
  scenarios.push_back(line_pairs({0.0, 2.0, 50.0, 53.0, 120.0, 121.0, 200.0, 207.0}));
  scenarios.push_back(grid_scenario(4, 6));
  scenarios.push_back(random_scenario(32, /*seed=*/17));
  return scenarios;
}

std::vector<Variant> both_variants() {
  return {Variant::directed, Variant::bidirectional};
}

/// A fresh class with the same members added in the same order — the
/// from-scratch evaluation remove() must stay bit-identical to.
IncrementalGainClass replayed_twin(const GainMatrix& gains, const SinrParams& params,
                                   const std::vector<std::size_t>& members) {
  IncrementalGainClass twin(gains, params);
  for (const std::size_t m : members) twin.add(m);
  return twin;
}

TEST(IncrementalGainClassRemove, RebuildPolicyIsBitIdenticalToReplay) {
  Rng rng(2024);
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 0.5;  // loose enough that classes actually grow
    for (const Variant variant : both_variants()) {
      const auto gains = instance.gains(powers, params.alpha, variant);
      IncrementalGainClass cls(*gains, params);
      std::vector<std::size_t> in_class;
      for (int step = 0; step < 200; ++step) {
        const bool do_remove = !in_class.empty() && rng.bernoulli(0.45);
        if (do_remove) {
          const std::size_t pos = rng.uniform_index(in_class.size());
          const std::size_t victim = in_class[pos];
          in_class.erase(in_class.begin() + static_cast<std::ptrdiff_t>(pos));
          cls.remove(victim);
        } else {
          const std::size_t cand = rng.uniform_index(instance.size());
          if (cls.contains(cand)) continue;
          if (cls.can_add(cand)) {
            cls.add(cand);
            in_class.push_back(cand);
          }
        }
        // After every operation the class must be indistinguishable from a
        // fresh replay: same members, zero accumulator drift, and the same
        // verdict for every possible candidate.
        EXPECT_EQ(cls.members(), in_class);
        EXPECT_EQ(cls.accumulator_drift(), 0.0);
        const IncrementalGainClass twin = replayed_twin(*gains, params, in_class);
        for (std::size_t cand = 0; cand < instance.size(); ++cand) {
          if (cls.contains(cand)) continue;
          ASSERT_EQ(cls.can_add(cand), twin.can_add(cand))
              << "step " << step << " candidate " << cand;
        }
      }
    }
  }
}

TEST(IncrementalGainClassRemove, RemoveOfNonMemberThrows) {
  const auto scenario = line_pairs({0.0, 1.0, 100.0, 101.0});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  const auto gains = instance.gains(powers, params.alpha, Variant::directed);
  IncrementalGainClass cls(*gains, params);
  cls.add(0);
  EXPECT_THROW(cls.remove(1), PreconditionError);
  cls.remove(0);
  EXPECT_EQ(cls.size(), 0u);
}

TEST(OnlineScheduler, BookkeepingAndErrors) {
  const auto scenario = random_scenario(16, /*seed=*/5);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);

  EXPECT_EQ(scheduler.active_count(), 0u);
  EXPECT_EQ(scheduler.num_colors(), 0);
  EXPECT_THROW(scheduler.on_departure(0), PreconditionError);

  const int c0 = scheduler.on_arrival(0);
  EXPECT_EQ(c0, 0);
  EXPECT_THROW((void)scheduler.on_arrival(0), PreconditionError);
  EXPECT_EQ(scheduler.color_of(0), 0);
  EXPECT_TRUE(scheduler.is_active(0));
  EXPECT_EQ(scheduler.active_count(), 1u);

  scheduler.on_departure(0);
  EXPECT_FALSE(scheduler.is_active(0));
  EXPECT_EQ(scheduler.active_count(), 0u);
  EXPECT_EQ(scheduler.num_colors(), 0);  // the emptied class was dropped
  EXPECT_EQ(scheduler.stats().arrivals, 1u);
  EXPECT_EQ(scheduler.stats().departures, 1u);
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(OnlineScheduler, FullArriveThenDepartEndsEmpty) {
  const auto scenario = grid_scenario(4, 6);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    (void)scheduler.on_arrival(i);
  }
  EXPECT_EQ(scheduler.active_count(), instance.size());
  EXPECT_TRUE(scheduler.validate_against_direct());
  const Schedule full = scheduler.snapshot();
  EXPECT_TRUE(full.complete());
  EXPECT_TRUE(
      validate_schedule(instance, powers, full, params, Variant::bidirectional).valid);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    scheduler.on_departure(i);
  }
  EXPECT_EQ(scheduler.active_count(), 0u);
  EXPECT_EQ(scheduler.num_colors(), 0);
  EXPECT_GE(scheduler.stats().peak_colors, 1);
}

TEST(OnlineScheduler, ArrivalOrderMatchesOfflineFirstFit) {
  // Pure arrivals in as-given order ARE offline greedy first-fit (no
  // departures, no compaction), so the colorings must coincide exactly.
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      const auto powers = SqrtPower{}.assign(instance, params.alpha);
      OnlineScheduler scheduler(instance, powers, params, variant);
      for (std::size_t i = 0; i < instance.size(); ++i) {
        (void)scheduler.on_arrival(i);
      }
      const Schedule offline = greedy_coloring(instance, powers, params, variant,
                                               RequestOrder::as_given);
      EXPECT_EQ(scheduler.snapshot().color_of, offline.color_of);
      EXPECT_EQ(scheduler.snapshot().num_colors, offline.num_colors);
    }
  }
}

ChurnTrace trace_for(const std::string& kind, std::size_t universe, std::uint64_t seed) {
  Rng rng(seed);
  return make_churn_trace(kind, universe, /*target_events=*/600, rng);
}

TEST(OnlineScheduler, ReplayedFinalStateRevalidatesAgainstOfflineEngines) {
  for (const std::string kind : {"poisson", "flash", "adversarial"}) {
    for (const auto& scenario : fixtures()) {
      const Instance instance = scenario.instance();
      SinrParams params;
      params.alpha = 3.0;
      params.beta = 1.0;
      const auto powers = SqrtPower{}.assign(instance, params.alpha);
      for (const Variant variant : both_variants()) {
        const ChurnTrace trace = trace_for(kind, instance.size(), 42);
        OnlineScheduler scheduler(instance, powers, params, variant);
        const ReplayResult result = replay_trace(scheduler, trace);
        // The exactness gate: direct and gain engines agree bit-for-bit on
        // every class, and every class is feasible.
        EXPECT_TRUE(result.validated) << kind;
        EXPECT_EQ(result.final_active, trace.final_active().size()) << kind;
        EXPECT_EQ(result.stats.events(), trace.events.size()) << kind;
        EXPECT_GE(result.stats.peak_colors, result.final_colors) << kind;
        // Offline re-validation of the final coloring, class by class, with
        // the from-scratch direct checker (inactive links excluded).
        const auto classes = color_classes(result.final_schedule);
        for (const auto& members : classes) {
          EXPECT_TRUE(check_feasible(instance.metric(), instance.requests(), powers,
                                     members, params, variant)
                          .feasible)
              << kind;
        }
      }
    }
  }
}

TEST(OnlineScheduler, ReusedSchedulerReportsPerReplayStats) {
  const auto scenario = random_scenario(16, /*seed=*/3);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
  const ChurnTrace first = trace_for("poisson", instance.size(), 1);
  const ChurnTrace second = trace_for("adversarial", instance.size(), 2);
  // The second trace must start from the first's final state: replay it
  // only over the links the first left inactive.
  const ReplayResult a = replay_trace(scheduler, first);
  EXPECT_EQ(a.stats.events(), first.events.size());
  for (const std::size_t link : first.final_active()) {
    scheduler.on_departure(link);
  }
  const std::size_t drained = first.final_active().size();
  const ReplayResult b = replay_trace(scheduler, second);
  // Per-replay counters: the second result covers only the second trace.
  EXPECT_EQ(b.stats.events(), second.events.size());
  EXPECT_TRUE(b.validated);
  EXPECT_EQ(scheduler.stats().events(),
            first.events.size() + drained + second.events.size());
}

TEST(OnlineScheduler, CompactionSkipsImmovableMembersAndContinues) {
  // Geometry (uniform powers, alpha 3, beta 1): two far-apart "anchors"
  // L0 = [0,4] and X = [40,44] share color 0; A = [5,9] conflicts with L0,
  // B = [34,38] conflicts with X, A and B are mutually compatible — so both
  // land in color 1. When X departs, compaction scans the trailing class
  // {A, B}: A is immovable (L0 still blocks it) but B now fits color 0.
  // The old pass bailed at A; skip-and-continue reclaims B's slot.
  const auto scenario = line_pairs({0.0, 4.0, 40.0, 44.0, 5.0, 9.0, 34.0, 38.0});
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = UniformPower{}.assign(instance, params.alpha);
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
  ASSERT_EQ(scheduler.on_arrival(0), 0);  // L0
  ASSERT_EQ(scheduler.on_arrival(1), 0);  // X
  ASSERT_EQ(scheduler.on_arrival(2), 1);  // A (blocked by L0)
  ASSERT_EQ(scheduler.on_arrival(3), 1);  // B (blocked by X)

  scheduler.on_departure(1);  // X leaves; the pass skips A, migrates B
  EXPECT_EQ(scheduler.color_of(2), 1);
  EXPECT_EQ(scheduler.color_of(3), 0);
  EXPECT_EQ(scheduler.stats().migrations, 1u);
  EXPECT_EQ(scheduler.stats().compaction_skips, 1u);
  EXPECT_EQ(scheduler.num_colors(), 2);
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(OnlineScheduler, FreshLinksGrowTheUniverseAndRevalidate) {
  for (const auto& scenario : fixtures()) {
    const Instance full = scenario.instance();
    if (full.size() < 8) continue;
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      // Start on the first half of the requests; the second half arrives
      // online as fresh links via a growing trace.
      const std::size_t n0 = full.size() / 2;
      const auto all = full.requests();
      const Instance base(full.metric_ptr(),
                          std::vector<Request>(all.begin(), all.begin() + n0));
      const auto powers = SqrtPower{}.assign(base, params.alpha);
      Rng rng(2026);
      const ChurnTrace trace =
          make_churn_trace("growing", n0, /*target_events=*/500, rng, all.subspan(n0));
      OnlineSchedulerOptions options;
      options.storage = GainBackend::appendable;
      options.fresh_power = std::make_shared<SqrtPower>();
      OnlineScheduler scheduler(base, powers, params, variant, options);
      const ReplayResult result = replay_trace(scheduler, trace);
      // The acceptance gate: a trace/2 replay with fresh-link arrivals
      // revalidates bit-for-bit against the direct engine on the final
      // (grown) state.
      EXPECT_TRUE(result.validated);
      EXPECT_EQ(result.stats.fresh_links, full.size() - n0);
      EXPECT_EQ(result.final_universe, full.size());
      EXPECT_EQ(scheduler.universe(), full.size());
      EXPECT_EQ(result.final_active, trace.final_active().size());
      // Fresh links got the oblivious sqrt powers their lengths dictate —
      // identical to what an offline assignment over the full instance
      // computes.
      const auto full_powers = SqrtPower{}.assign(full, params.alpha);
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(scheduler.powers()[i], full_powers[i]) << i;
      }
    }
  }
}

TEST(OnlineScheduler, FreshLinksStillArriveAndDepartLikeAnyLink) {
  const auto scenario = random_scenario(12, /*seed=*/3);
  const Instance full = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const std::size_t n0 = 8;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  const auto powers = SqrtPower{}.assign(base, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = GainBackend::appendable;
  options.fresh_power = std::make_shared<SqrtPower>();
  OnlineScheduler scheduler(base, powers, params, Variant::bidirectional, options);
  EXPECT_EQ(scheduler.universe(), n0);
  const int color = scheduler.on_link_arrival(all[n0]);
  EXPECT_GE(color, 0);
  EXPECT_EQ(scheduler.universe(), n0 + 1);
  EXPECT_TRUE(scheduler.is_active(n0));
  EXPECT_EQ(scheduler.stats().fresh_links, 1u);
  scheduler.on_departure(n0);
  EXPECT_FALSE(scheduler.is_active(n0));
  (void)scheduler.on_arrival(n0);  // re-arrives as a known link
  EXPECT_TRUE(scheduler.is_active(n0));
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(OnlineScheduler, FreshLinksNeedAppendableBackendAndPowerRule) {
  const auto scenario = random_scenario(8, /*seed=*/5);
  const Instance instance = scenario.instance();
  SinrParams params;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const Request fresh = instance.request(0);
  {
    OnlineScheduler dense(instance, powers, params, Variant::bidirectional);
    EXPECT_THROW((void)dense.on_link_arrival(fresh), PreconditionError);
  }
  {
    OnlineSchedulerOptions options;
    options.storage = GainBackend::appendable;  // but no fresh_power rule
    OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
    EXPECT_THROW((void)scheduler.on_link_arrival(fresh), PreconditionError);
  }
}

TEST(OnlineScheduler, ReplayRejectsMismatchedUniverse) {
  const auto scenario = random_scenario(8, /*seed=*/1);
  const Instance instance = scenario.instance();
  SinrParams params;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
  ChurnTrace trace;
  trace.universe = 9;
  EXPECT_THROW((void)replay_trace(scheduler, trace), PreconditionError);
}

// ---------------------------------------------------------------------------
// RemovePolicy::exact: the numerically exact O(|class|) removal path.

/// A fresh exact-policy class over the same gains with `members` added in
/// the given order — the from-scratch state the live class must equal.
IncrementalGainClass exact_twin(const GainMatrix& gains, const SinrParams& params,
                                const std::vector<std::size_t>& members) {
  IncrementalGainClass twin(gains, params, RemovePolicy::exact);
  for (const std::size_t m : members) twin.add(m);
  return twin;
}

/// Bitwise equality of every accumulator slot of two classes over `gains`.
void expect_accumulators_identical(const GainMatrix& gains,
                                   const IncrementalGainClass& live,
                                   const IncrementalGainClass& fresh,
                                   const char* context) {
  for (std::size_t i = 0; i < gains.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(live.accumulator_v(i)),
              std::bit_cast<std::uint64_t>(fresh.accumulator_v(i)))
        << context << ": acc_v slot " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(live.accumulator_u(i)),
              std::bit_cast<std::uint64_t>(fresh.accumulator_u(i)))
        << context << ": acc_u slot " << i;
  }
  // The positional readout the member walks use agrees with the slot's.
  for (std::size_t pos = 0; pos < live.size(); ++pos) {
    const std::size_t m = live.members()[pos];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(live.member_accumulator_v(pos)),
              std::bit_cast<std::uint64_t>(live.accumulator_v(m)))
        << context << ": member position " << pos;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(live.member_accumulator_u(pos)),
              std::bit_cast<std::uint64_t>(live.accumulator_u(m)))
        << context << ": member position " << pos;
  }
}

TEST(IncrementalGainClassRemove, ExactPolicyIsBitIdenticalToFreshTwinInAnyOrder) {
  Rng rng(4242);
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 0.5;
    for (const Variant variant : both_variants()) {
      const auto gains = instance.gains(powers, params.alpha, variant);
      IncrementalGainClass cls(*gains, params, RemovePolicy::exact);
      std::vector<std::size_t> in_class;
      for (int step = 0; step < 200; ++step) {
        if (!in_class.empty() && rng.bernoulli(0.45)) {
          const std::size_t pos = rng.uniform_index(in_class.size());
          const std::size_t victim = in_class[pos];
          in_class.erase(in_class.begin() + static_cast<std::ptrdiff_t>(pos));
          cls.remove(victim);
        } else {
          const std::size_t cand = rng.uniform_index(instance.size());
          if (cls.contains(cand)) continue;
          if (cls.can_add(cand)) {
            cls.add(cand);
            in_class.push_back(cand);
          }
        }
        ASSERT_EQ(cls.members(), in_class);
        // The exact policy never replays — and never needs to: zero drift
        // against its own exact replay, always.
        ASSERT_EQ(cls.removal_rebuilds(), 0u);
        ASSERT_EQ(cls.accumulator_drift(), 0.0);
        // Stronger than replay equality: the state is a pure function of
        // the member SET. A fresh twin built in insertion order matches
        // bit for bit — and so does one built in sorted (different)
        // order.
        const IncrementalGainClass twin = exact_twin(*gains, params, in_class);
        expect_accumulators_identical(*gains, cls, twin, "insertion order");
        std::vector<std::size_t> sorted = in_class;
        std::sort(sorted.begin(), sorted.end());
        const IncrementalGainClass sorted_twin = exact_twin(*gains, params, sorted);
        expect_accumulators_identical(*gains, cls, sorted_twin, "sorted order");
        for (std::size_t cand = 0; cand < instance.size(); ++cand) {
          if (cls.contains(cand)) continue;
          ASSERT_EQ(cls.can_add(cand), twin.can_add(cand))
              << "step " << step << " candidate " << cand;
        }
      }
    }
  }
}

TEST(IncrementalGainClassRemove, ExactStaysAtZeroWherePlainSubtractionDrifts) {
  // Adversarial dynamic range at link 0's receiver (v0 at coordinate 1):
  // link 1's sender sits 1 away (gain ~1), link 2's sender ~0.099 away
  // (gain ~1024 — the transient), link 3's sender ~46416 away (gain
  // ~1e-14), link 4's sender ~4.65 away (gain ~1e-2 — a background
  // resident). With link 2 resident a plain double accumulator's ulp
  // (~2e-13) swallows link 3's contribution; when link 2 departs, plain
  // subtraction cannot bring those bits back, so the slot measurably
  // deviates from a fresh replay of the survivors. The exact expansions
  // never lose the bits in the first place.
  const auto scenario = line_pairs(
      {0.0, 1.0, 2.0, 2.2, 1.0992, 1.3, 46417.0, 46418.0, 5.65, 5.8});
  const Instance instance = scenario.instance();
  const auto powers = UniformPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  const auto gains = instance.gains(powers, params.alpha, Variant::directed);

  // The fixture still loses bits under plain arithmetic: add the four
  // gains at v0, subtract the transient, compare with the replayed sum.
  double plain = 0.0;
  for (const std::size_t member :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    plain += gains->at_v(member, 0);
  }
  plain -= gains->at_v(2, 0);
  const double replayed = gains->at_v(1, 0) + gains->at_v(3, 0) + gains->at_v(4, 0);
  EXPECT_NE(std::bit_cast<std::uint64_t>(plain), std::bit_cast<std::uint64_t>(replayed));

  // Link 0 joins first, so its member slot is the one the transient passes
  // through.
  IncrementalGainClass exact(*gains, params, RemovePolicy::exact);
  for (const std::size_t member :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    exact.add(member);
  }
  exact.remove(2);
  // The exact policy sits at exactly zero deviation, and link 0's slot is
  // the correct rounding of the survivors' gains.
  EXPECT_EQ(exact.accumulator_drift(), 0.0);
  EXPECT_EQ(exact.removal_rebuilds(), 0u);
  const std::vector<double> survivors = {gains->at_v(1, 0), gains->at_v(3, 0),
                                         gains->at_v(4, 0)};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exact.member_accumulator_v(0)),
            std::bit_cast<std::uint64_t>(ExactSum::sum_of(survivors).value()));

  // Hammering the exact class with the same transient thousands of times
  // never accumulates any error at all.
  for (int round = 0; round < 2000; ++round) {
    exact.add(2);
    exact.remove(2);
  }
  EXPECT_EQ(exact.accumulator_drift(), 0.0);
  EXPECT_EQ(exact.removal_rebuilds(), 0u);
}

/// Links 1 and 2 each contribute ~9e307 at link 0's receiver (powers
/// ~1e305 over sub-unit distances), so with both in a class the true
/// interference sum at link 0 overflows the double range.
struct SaturationFixture {
  // dist(u1, v0) = 0.1 -> loss 1e-3 -> gain p1 * 1e3; dist(u2, v0) = 0.2
  // -> loss 8e-3 -> gain p2 * 125.
  testutil::Scenario scenario = line_pairs({0.0, 1.0, 1.1, 5.0, 1.2, 6.0});
  Instance instance = scenario.instance();
  std::vector<double> powers = {1.0, 9e304, 7.2e305};
  SinrParams params;  // alpha = 3, the exponent the losses above assume
  GainMatrix gains{instance, powers, params.alpha, Variant::directed};
};

TEST(IncrementalGainClassRemove, ExactPolicyRecoversFromSaturationByRebuilding) {
  // Link 0 is a member too, so its stored slot takes both ~9e307 gains
  // and its expansion saturates stickily. When one departs the
  // survivors' sum is representable again; subtraction alone cannot
  // unsaturate, so the exact policy must pay its one escape-hatch
  // rebuild and land bit-for-bit on the fresh-twin state.
  const SaturationFixture f;
  const GainMatrix& gains = f.gains;
  ASSERT_GT(gains.at_v(1, 0), 8e307);
  ASSERT_GT(gains.at_v(2, 0), 8e307);
  ASSERT_EQ(gains.at_v(1, 0) + gains.at_v(2, 0),
            std::numeric_limits<double>::infinity());

  IncrementalGainClass cls(gains, f.params, RemovePolicy::exact);
  cls.add(0);
  cls.add(1);
  cls.add(2);
  EXPECT_EQ(cls.accumulator_v(0), std::numeric_limits<double>::infinity());
  cls.remove(1);
  // The saturation escape hatch fired and restored the exact finite
  // state of a fresh build over the survivors.
  EXPECT_EQ(cls.removal_rebuilds(), 1u);
  EXPECT_EQ(cls.accumulator_v(0), gains.at_v(2, 0));
  EXPECT_EQ(cls.accumulator_drift(), 0.0);
  const IncrementalGainClass twin = exact_twin(gains, f.params, cls.members());
  expect_accumulators_identical(gains, cls, twin, "post-saturation");
  cls.remove(2);
  EXPECT_EQ(cls.accumulator_v(0), 0.0);
}

TEST(IncrementalGainClassRemove, ExactPolicySumsASaturatingNonMemberSlotOnDemand) {
  // Link 0 is NOT a member: its slot is never stored, only summed on
  // demand over the current members. The overflow shows in the readout
  // while both heavy interferers are in, and a departure leaves nothing
  // to repair — a finite readout with no rebuild.
  const SaturationFixture f;
  const GainMatrix& gains = f.gains;
  IncrementalGainClass cls(gains, f.params, RemovePolicy::exact);
  cls.add(1);
  cls.add(2);
  EXPECT_EQ(cls.accumulator_v(0), std::numeric_limits<double>::infinity());
  cls.remove(1);
  EXPECT_EQ(cls.removal_rebuilds(), 0u);
  EXPECT_TRUE(std::isfinite(cls.accumulator_v(0)));
  EXPECT_EQ(cls.accumulator_v(0), gains.at_v(2, 0));
  EXPECT_EQ(cls.accumulator_drift(), 0.0);
  const IncrementalGainClass twin = exact_twin(gains, f.params, cls.members());
  expect_accumulators_identical(gains, cls, twin, "non-member saturation");
}

/// Differential replay: the exact-policy scheduler against a rebuild-policy
/// twin on the same trace, then every live class against freshly built
/// exact twins (in sorted member order — the order-free claim). Traces
/// with link_update events need a backend that moves links (appendable or
/// computed).
ReplayResult run_policy_differential(const Instance& instance, const ChurnTrace& trace,
                                     GainBackend backend,
                                     std::shared_ptr<const PowerAssignment> fresh_power,
                                     const char* context) {
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = backend;
  options.fresh_power = fresh_power;
  EXPECT_EQ(options.remove_policy, RemovePolicy::exact);  // the default
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  const ReplayResult result = replay_trace(scheduler, trace);
  EXPECT_TRUE(result.validated) << context;
  EXPECT_EQ(result.stats.removal_rebuilds, 0u) << context;

  OnlineSchedulerOptions rebuild_options = options;
  rebuild_options.remove_policy = RemovePolicy::rebuild;
  OnlineScheduler twin(instance, powers, params, Variant::bidirectional,
                       rebuild_options);
  const ReplayResult reference = replay_trace(twin, trace);
  EXPECT_TRUE(reference.validated) << context;
  // Schedule and verdict equality, bit for bit, against the historical
  // replay-on-remove policy over the whole trace.
  EXPECT_EQ(result.final_schedule.color_of, reference.final_schedule.color_of)
      << context;
  EXPECT_EQ(result.final_colors, reference.final_colors) << context;
  EXPECT_EQ(result.final_active, reference.final_active) << context;
  EXPECT_EQ(result.final_worst_margin, reference.final_worst_margin) << context;
  EXPECT_GT(reference.stats.removal_rebuilds, 0u) << context;  // what exact saves

  // Accumulator equality: every live class equals a freshly built exact
  // class over its members, added in sorted order (NOT the arrival
  // order), because the exact state is a pure function of the member set.
  for (const IncrementalGainClass& cls : scheduler.classes()) {
    std::vector<std::size_t> members = cls.members();
    std::sort(members.begin(), members.end());
    IncrementalGainClass fresh(scheduler.gains(), params, RemovePolicy::exact);
    for (const std::size_t m : members) fresh.add(m);
    expect_accumulators_identical(scheduler.gains(), cls, fresh, context);
  }
  return result;
}

TEST(OnlineScheduler, ExactPolicyDifferentialFuzzAcrossTracesAndBackends) {
  const auto scenario = random_scenario(48, /*seed=*/123);
  const Instance instance = scenario.instance();
  for (const std::string kind : {"poisson", "flash", "adversarial", "hotspot"}) {
    for (const GainBackend backend : {GainBackend::dense, GainBackend::tiled,
                                      GainBackend::appendable, GainBackend::computed}) {
      Rng rng(911 + static_cast<std::uint64_t>(backend));
      const ChurnTrace trace =
          make_churn_trace(kind, instance.size(), /*target_events=*/800, rng);
      const std::string context = kind + "/" + to_string(backend);
      run_policy_differential(instance, trace, backend, nullptr, context.c_str());
    }
  }
}

TEST(OnlineScheduler, ExactPolicyDifferentialFuzzOnGrowingTraces) {
  // Universe growth (sync_universe extension of the exact expansions) on
  // the appendable backend: same differential gates as the fixed-universe
  // fuzz, ending on a grown universe.
  const auto scenario = random_scenario(40, /*seed=*/77);
  const Instance full = scenario.instance();
  const std::size_t n0 = full.size() / 2;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  Rng rng(2026);
  const ChurnTrace trace =
      make_churn_trace("growing", n0, /*target_events=*/800, rng, all.subspan(n0));
  run_policy_differential(base, trace, GainBackend::appendable,
                          std::make_shared<SqrtPower>(), "growing/appendable");
}

TEST(OnlineScheduler, LegacyTraceSchemaReplaysUnderTheExactDefault) {
  // An oisched-trace/1 document (the pre-growth schema) must replay under
  // the new default policy exactly like any fixed-universe trace.
  const auto scenario = random_scenario(8, /*seed=*/31);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const std::string legacy = R"({
    "schema": "oisched-trace/1",
    "universe": 8,
    "events": [
      {"t": 0.5, "kind": "arrival", "link": 3},
      {"t": 1.0, "kind": "arrival", "link": 5},
      {"t": 1.5, "kind": "arrival", "link": 0},
      {"t": 2.0, "kind": "departure", "link": 3},
      {"t": 2.5, "kind": "arrival", "link": 7},
      {"t": 3.0, "kind": "departure", "link": 5},
      {"t": 3.5, "kind": "arrival", "link": 3}
    ]
  })";
  const ChurnTrace trace = trace_from_json(parse_json(legacy));
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
  const ReplayResult result = replay_trace(scheduler, trace);
  EXPECT_TRUE(result.validated);
  EXPECT_EQ(result.stats.removal_rebuilds, 0u);
  EXPECT_EQ(result.final_active, 3u);
}

// ---------------------------------------------------------------------------
// Mobility: the link_update path (oisched-trace/3) on the backends that
// move links.

ChurnTrace mobility_trace(const Instance& instance, const std::string& kind,
                          std::uint64_t seed, std::size_t target_events = 400) {
  Rng rng(seed);
  return make_churn_trace(kind, instance.size(), target_events, rng,
                          /*fresh_links=*/{}, &instance.metric(),
                          instance.requests());
}

TEST(OnlineScheduler, MobilityDifferentialFuzzAcrossKindsAndBackends) {
  // The flagship differential gate of the update path: every mobility kind
  // replayed on both backends that move links, each run checked against a
  // rebuild-policy twin (bit-identical schedule), every live class against
  // a freshly built exact twin (bit-identical accumulators), zero
  // removal-triggered rebuilds under the exact default — and the two
  // backends agreeing with each other on the final schedule.
  const auto scenario = random_scenario(40, /*seed=*/321);
  const Instance instance = scenario.instance();
  std::uint64_t seed = 500;
  for (const std::string kind : {"waypoint", "commuter", "flashmob"}) {
    const ChurnTrace trace = mobility_trace(instance, kind, seed++);
    ASSERT_TRUE(trace.has_link_updates()) << kind;
    std::vector<ReplayResult> per_backend;
    for (const GainBackend backend : {GainBackend::appendable, GainBackend::computed}) {
      const std::string context = kind + "/" + to_string(backend);
      per_backend.push_back(run_policy_differential(
          instance, trace, backend, std::make_shared<SqrtPower>(), context.c_str()));
      EXPECT_GT(per_backend.back().stats.link_updates, 0u) << context;
    }
    for (std::size_t b = 1; b < per_backend.size(); ++b) {
      EXPECT_EQ(per_backend[b].final_schedule.color_of,
                per_backend[0].final_schedule.color_of)
          << kind << " backend " << b;
      EXPECT_EQ(per_backend[b].final_colors, per_backend[0].final_colors) << kind;
      EXPECT_EQ(per_backend[b].final_worst_margin, per_backend[0].final_worst_margin)
          << kind;
    }
  }
}

TEST(OnlineScheduler, AuditHoldsAfterLongChurnGrowthAndMotionReplays) {
  // audit() after long replays of each kind of event — churn on a shared
  // dense table, growth with slot reuse on appendable, motion on computed
  // — each differential against a rebuild-policy twin fed the same calls.
  const auto scenario = random_scenario(64, /*seed=*/404);
  const Instance full = scenario.instance();
  const std::size_t n0 = full.size() / 2;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto check = [&](const Instance& instance, GainBackend backend,
                         const auto& drive, const char* context) {
    const auto powers = SqrtPower{}.assign(instance, params.alpha);
    OnlineSchedulerOptions options;
    options.storage = backend;
    options.fresh_power = std::make_shared<SqrtPower>();
    OnlineScheduler exact(instance, powers, params, Variant::bidirectional, options);
    options.remove_policy = RemovePolicy::rebuild;
    OnlineScheduler twin(instance, powers, params, Variant::bidirectional, options);
    drive(exact);
    drive(twin);
    EXPECT_NO_THROW(exact.audit()) << context;
    EXPECT_NO_THROW(twin.audit()) << context;
    EXPECT_EQ(exact.snapshot().color_of, twin.snapshot().color_of) << context;
    EXPECT_EQ(exact.stats().migrations, twin.stats().migrations) << context;
    EXPECT_EQ(exact.stats().removal_rebuilds, 0u) << context;
    EXPECT_TRUE(exact.validate_against_direct()) << context;
  };

  Rng churn_rng(17);
  const ChurnTrace churn = make_churn_trace("poisson", full.size(), 3000, churn_rng);
  const auto replay_churn = [&](OnlineScheduler& s) { (void)replay_trace(s, churn, false); };
  check(full, GainBackend::dense, replay_churn, "churn/dense");

  Rng growth_rng(18);
  const ChurnTrace growth = make_churn_trace("growing", n0, 3000, growth_rng, all.subspan(n0));
  const auto grow_then_reuse = [&](OnlineScheduler& s) {
    (void)replay_trace(s, growth, false);
    // Retire what is inactive, then let fresh links recycle the slots.
    std::size_t retired = 0;
    for (std::size_t link = 0; link < s.universe() && retired < 8; ++link) {
      if (!s.is_active(link)) {
        s.retire_link(link);
        ++retired;
      }
    }
    for (std::size_t i = 0; i < retired; ++i) (void)s.on_link_arrival(all[n0 + i]);
  };
  check(base, GainBackend::appendable, grow_then_reuse, "growth/appendable");

  const ChurnTrace motion = mobility_trace(full, "waypoint", 19, 3000);
  const auto replay_motion = [&](OnlineScheduler& s) { (void)replay_trace(s, motion, false); };
  check(full, GainBackend::computed, replay_motion, "motion/computed");
}

TEST(OnlineScheduler, MobilityFinalStateRevalidatesOverTheMovedGeometry) {
  // End-to-end exactness: after a mobility replay the scheduler's final
  // coloring must pass the from-scratch direct checker evaluated over the
  // MOVED requests — the geometry the updates produced, not the one the
  // scheduler was built on.
  const auto scenario = random_scenario(32, /*seed=*/9);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  for (const Variant variant : both_variants()) {
    const ChurnTrace trace = mobility_trace(instance, "waypoint", 11);
    OnlineSchedulerOptions options;
    options.storage = GainBackend::computed;
    options.fresh_power = std::make_shared<SqrtPower>();
    OnlineScheduler scheduler(instance, powers, params, variant, options);
    const ReplayResult result = replay_trace(scheduler, trace);
    EXPECT_TRUE(result.validated);
    EXPECT_EQ(result.stats.events(), trace.events.size());
    EXPECT_GT(result.stats.link_updates, 0u);
    EXPECT_EQ(result.stats.removal_rebuilds, 0u);
    // Motion really happened: at least one request differs from the build.
    const auto final_requests = scheduler.gains().requests();
    bool moved = false;
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (!(final_requests[i] == instance.request(i))) moved = true;
    }
    EXPECT_TRUE(moved);
    // Moved links carry the oblivious power their NEW length dictates.
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const double loss =
          link_loss(instance.metric(), final_requests[i], params.alpha);
      EXPECT_EQ(scheduler.powers()[i], SqrtPower{}.power_for_loss(loss)) << i;
    }
    const auto classes = color_classes(result.final_schedule);
    for (const auto& members : classes) {
      EXPECT_TRUE(check_feasible(instance.metric(), final_requests,
                                 scheduler.powers(), members, params, variant)
                      .feasible);
    }
  }
}

TEST(OnlineScheduler, MotionThatBreaksFeasibilityMigratesTheLink) {
  // L0 = [0,2] and L1 = [100,102] happily share color 0. L1 then moves to
  // [2.5,4.5], right next to L0's receiver: its class goes infeasible and
  // the update path must re-place it first-fit into a new color, counting
  // one update_migration.
  const auto scenario = line_pairs({0.0, 2.0, 100.0, 102.0, 2.5, 4.5});
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = UniformPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = GainBackend::computed;
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  ASSERT_EQ(scheduler.on_arrival(0), 0);
  ASSERT_EQ(scheduler.on_arrival(1), 0);
  const int moved_color = scheduler.on_link_update(1, Request{4, 5});
  EXPECT_EQ(moved_color, 1);
  EXPECT_EQ(scheduler.color_of(0), 0);
  EXPECT_EQ(scheduler.color_of(1), 1);
  EXPECT_EQ(scheduler.stats().link_updates, 1u);
  EXPECT_EQ(scheduler.stats().update_migrations, 1u);
  EXPECT_EQ(scheduler.stats().removal_rebuilds, 0u);
  EXPECT_TRUE(scheduler.validate_against_direct());
  // Moving it back keeps it where it is: a feasible class never triggers a
  // migration (updates re-place only on breakage; compaction runs on
  // departure), even though color 0 would take the link again.
  const int back_color = scheduler.on_link_update(1, Request{2, 3});
  EXPECT_EQ(back_color, 1);
  EXPECT_EQ(scheduler.num_colors(), 2);
  EXPECT_EQ(scheduler.stats().link_updates, 2u);
  EXPECT_EQ(scheduler.stats().update_migrations, 1u);
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(OnlineScheduler, LinkUpdateGuardsItsPreconditions) {
  const auto scenario = random_scenario(8, /*seed=*/5);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const Request valid = instance.request(1);
  {
    // A cached dense or tiled matrix: the scheduler must refuse to mutate
    // shared gains.
    for (const GainBackend backend : {GainBackend::dense, GainBackend::tiled}) {
      OnlineSchedulerOptions cached_options;
      cached_options.storage = backend;
      OnlineScheduler cached(instance, powers, params, Variant::bidirectional, cached_options);
      (void)cached.on_arrival(0);
      EXPECT_THROW((void)cached.on_link_update(0, valid), PreconditionError)
          << to_string(backend);
    }
  }
  OnlineSchedulerOptions options;
  options.storage = GainBackend::computed;
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  // Updating an inactive link is an error...
  EXPECT_THROW((void)scheduler.on_link_update(0, valid), PreconditionError);
  (void)scheduler.on_arrival(0);
  // ...as are co-located endpoints (zero link loss).
  EXPECT_THROW((void)scheduler.on_link_update(0, Request{2, 2}), PreconditionError);
  // A well-formed update on an active link is fine and counted.
  (void)scheduler.on_link_update(0, valid);
  EXPECT_EQ(scheduler.stats().link_updates, 1u);
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(OnlineScheduler, MobilityOptionOwnsATablelessMatrix) {
  // The mobility flag is a synonym for the computed backend: the scheduler
  // owns a matrix with no table (only the n signals are resident) and
  // moves links in it.
  const auto scenario = random_scenario(24, /*seed=*/17);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.mobility = true;
  options.fresh_power = std::make_shared<SqrtPower>();
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  EXPECT_EQ(scheduler.gains().backend(), GainBackend::computed);
  EXPECT_EQ(scheduler.gains().resident_doubles(), instance.size());
  (void)scheduler.on_arrival(0);
  (void)scheduler.on_link_update(0, instance.request(1));
  EXPECT_EQ(scheduler.stats().link_updates, 1u);
  EXPECT_TRUE(scheduler.validate_against_direct());
}

TEST(IncrementalGainClassUpdate, InPlaceEqualsRemoveThenAddBitwiseUnderExact) {
  // The property the whole tentpole rests on: under RemovePolicy::exact,
  // begin_link_update -> GainMatrix::update_request -> finish_link_update
  // leaves the class bit-identical to the historical route (remove the
  // stale member, move the link, re-add it) run over an independent twin
  // matrix — and, for non-members, to a full from-scratch rebuild.
  Rng rng(8181);
  const auto scenario = random_scenario(24, /*seed=*/15);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  for (const Variant variant : both_variants()) {
    // Both backends that move links: appendable rewrites the row and
    // column, computed only the stores.
    GainBackend backend = GainBackend::computed;
    if (variant == Variant::directed) backend = GainBackend::appendable;
    GainMatrix inplace_gains(instance, powers, params.alpha, variant,
                             /*with_sender_gains=*/false, backend);
    GainMatrix twin_gains(instance, powers, params.alpha, variant,
                          /*with_sender_gains=*/false, backend);
    IncrementalGainClass inplace(inplace_gains, params, RemovePolicy::exact);
    IncrementalGainClass twin(twin_gains, params, RemovePolicy::exact);
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (inplace.can_add(i)) {
        inplace.add(i);
        twin.add(i);
      }
    }
    ASSERT_GE(inplace.size(), 2u);
    const MetricSpace& metric = instance.metric();
    for (int step = 0; step < 120; ++step) {
      std::size_t link = rng.uniform_index(instance.size());
      if (rng.bernoulli(0.7)) {
        link = inplace.members()[rng.uniform_index(inplace.size())];
      }
      Request moved;
      do {
        moved.u = static_cast<NodeId>(rng.uniform_index(metric.size()));
        moved.v = static_cast<NodeId>(rng.uniform_index(metric.size()));
      } while (!(metric.distance(moved.u, moved.v) > 0.0));
      const double power =
          SqrtPower{}.power_for_loss(link_loss(metric, moved, params.alpha));
      inplace.begin_link_update(link);
      inplace_gains.update_request(link, moved, power);
      inplace.finish_link_update(link);
      if (twin.contains(link)) {
        twin.remove(link);
        twin_gains.update_request(link, moved, power);
        twin.add(link);
      } else {
        // A non-member contributes nothing — the matrix move alone is the
        // whole remove-then-add.
        twin_gains.update_request(link, moved, power);
      }
      ASSERT_EQ(inplace.removal_rebuilds(), 0u) << "step " << step;
      ASSERT_EQ(inplace.accumulator_drift(), 0.0) << "step " << step;
      // remove-then-add covers every slot EXCEPT the moved link's own (a
      // link's row never includes itself, so neither remove nor add can see
      // the changed column) — bitwise equality on all the others.
      for (std::size_t i = 0; i < instance.size(); ++i) {
        if (i == link) continue;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(inplace.accumulator_v(i)),
                  std::bit_cast<std::uint64_t>(twin.accumulator_v(i)))
            << "step " << step << " acc_v slot " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(inplace.accumulator_u(i)),
                  std::bit_cast<std::uint64_t>(twin.accumulator_u(i)))
            << "step " << step << " acc_u slot " << i;
      }
      // The own slot is exactly what rederive_slot exists for: against a
      // freshly rebuilt twin the in-place state matches on EVERY slot.
      twin.rebuild();
      expect_accumulators_identical(inplace_gains, inplace, twin,
                                    "in-place vs freshly rebuilt twin");
    }
  }
}

TEST(IncrementalGainClassUpdate, UpdateHandshakeGuardsItsStates) {
  const auto scenario = random_scenario(6, /*seed=*/2);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  const GainMatrix gains(instance, powers, params.alpha, Variant::bidirectional);
  IncrementalGainClass cls(gains, params, RemovePolicy::exact);
  EXPECT_THROW(cls.finish_link_update(0), PreconditionError);
  EXPECT_THROW(cls.begin_link_update(instance.size()), PreconditionError);
  cls.begin_link_update(0);
  EXPECT_THROW(cls.begin_link_update(0), PreconditionError);
  cls.finish_link_update(0);  // no matrix change: a clean no-op round trip
  EXPECT_EQ(cls.accumulator_drift(), 0.0);
}

TEST(OnlineScheduler, LegacySchemasOneAndTwoReplayIdentically) {
  // The same fixed-universe event stream serialized as oisched-trace/1 and
  // as oisched-trace/2 must replay to bit-identical final states under the
  // current scheduler.
  const auto scenario = random_scenario(8, /*seed=*/31);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const std::string events = R"("events": [
      {"t": 0.5, "kind": "arrival", "link": 3},
      {"t": 1.0, "kind": "arrival", "link": 5},
      {"t": 1.5, "kind": "arrival", "link": 0},
      {"t": 2.0, "kind": "departure", "link": 3},
      {"t": 2.5, "kind": "arrival", "link": 7},
      {"t": 3.0, "kind": "departure", "link": 5},
      {"t": 3.5, "kind": "arrival", "link": 3}
    ])";
  std::vector<ReplayResult> results;
  for (const std::string schema : {"oisched-trace/1", "oisched-trace/2"}) {
    const std::string doc =
        "{\"schema\": \"" + schema + "\", \"universe\": 8, " + events + "}";
    const ChurnTrace trace = trace_from_json(parse_json(doc));
    OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional);
    results.push_back(replay_trace(scheduler, trace));
    EXPECT_TRUE(results.back().validated) << schema;
    EXPECT_EQ(results.back().stats.removal_rebuilds, 0u) << schema;
  }
  EXPECT_EQ(results[0].final_schedule.color_of, results[1].final_schedule.color_of);
  EXPECT_EQ(results[0].final_colors, results[1].final_colors);
  EXPECT_EQ(results[0].final_active, results[1].final_active);
  EXPECT_EQ(results[0].final_worst_margin, results[1].final_worst_margin);
}

// ---------------------------------------------------------------------------
// Slot reuse: retired links hand their gain-table rows to future fresh
// links, so the appendable universe stops growing without bound. Reuse
// needs no option: the first retire_link switches it on.

TEST(OnlineScheduler, RetiredSlotsAreReusedWithoutChangingDecisions) {
  const auto scenario = random_scenario(16, /*seed=*/41);
  const Instance full = scenario.instance();
  const std::size_t n0 = 8;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(base, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = GainBackend::appendable;
  options.fresh_power = std::make_shared<SqrtPower>();
  // Same options on both sides: only the calls differ.
  OnlineScheduler reuse(base, powers, params, Variant::bidirectional, options);
  OnlineScheduler twin(base, powers, params, Variant::bidirectional, options);
  const auto both_arrive = [&](const Request& r) {
    (void)reuse.on_link_arrival(r);
    (void)twin.on_link_arrival(r);
  };
  const auto both_depart = [&](std::size_t link) {
    reuse.on_departure(link);
    twin.on_departure(link);
  };
  for (std::size_t i = 0; i < 4; ++i) (void)reuse.on_arrival(i), (void)twin.on_arrival(i);
  // Eight fresh links grow both universes...
  for (std::size_t i = n0; i < full.size(); ++i) both_arrive(all[i]);
  EXPECT_EQ(reuse.physical_slots(), full.size());
  // ...then four of them leave forever. Only the reuse scheduler retires
  // them and may reclaim their rows.
  for (std::size_t link = n0; link < n0 + 4; ++link) {
    both_depart(link);
    reuse.retire_link(link);
  }
  EXPECT_EQ(reuse.stats().retired_links, 4u);
  // Four more fresh links: the reuse side rewrites the retired rows in
  // place while the twin keeps growing.
  for (std::size_t i = n0; i < n0 + 4; ++i) both_arrive(all[i]);
  EXPECT_EQ(reuse.stats().reused_slots, 4u);
  EXPECT_EQ(reuse.physical_slots(), full.size());
  EXPECT_EQ(twin.physical_slots(), full.size() + 4);
  EXPECT_LT(reuse.gains().resident_doubles(), twin.gains().resident_doubles());
  // External ids, colorings and universes are untouched by the remap: the
  // snapshot equals the never-reusing twin's bit for bit.
  EXPECT_EQ(reuse.universe(), twin.universe());
  EXPECT_EQ(reuse.snapshot().color_of, twin.snapshot().color_of);
  EXPECT_EQ(reuse.num_colors(), twin.num_colors());
  // Classes hold physical slots, which differ, but admit in the same
  // order: every member accumulator is bit-identical position by position.
  ASSERT_EQ(reuse.classes().size(), twin.classes().size());
  for (std::size_t c = 0; c < reuse.classes().size(); ++c) {
    const IncrementalGainClass& a = reuse.classes()[c];
    const IncrementalGainClass& b = twin.classes()[c];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t pos = 0; pos < a.size(); ++pos) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.member_accumulator_v(pos)),
                std::bit_cast<std::uint64_t>(b.member_accumulator_v(pos)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.member_accumulator_u(pos)),
                std::bit_cast<std::uint64_t>(b.member_accumulator_u(pos)));
    }
  }
  EXPECT_EQ(reuse.stats().migrations, twin.stats().migrations);
  EXPECT_EQ(reuse.stats().classes_opened, twin.stats().classes_opened);
  EXPECT_TRUE(reuse.validate_against_direct());
  EXPECT_TRUE(twin.validate_against_direct());
  // Retired ids stay retired: they can never become active again.
  EXPECT_EQ(reuse.color_of(n0), -1);
  EXPECT_THROW((void)reuse.on_arrival(n0), PreconditionError);
}

TEST(OnlineScheduler, RetireGuardsItsPreconditions) {
  const auto scenario = random_scenario(8, /*seed=*/6);
  const Instance instance = scenario.instance();
  SinrParams params;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  {
    // Slot reuse recycles rows of a growable matrix: retire_link on a
    // dense scheduler throws and leaves the link arrivable.
    OnlineScheduler dense(instance, powers, params, Variant::bidirectional);
    EXPECT_THROW(dense.retire_link(0), PreconditionError);
    EXPECT_EQ(dense.stats().retired_links, 0u);
    EXPECT_GE(dense.on_arrival(0), 0);
  }
  OnlineSchedulerOptions options;
  options.storage = GainBackend::appendable;
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  (void)scheduler.on_arrival(0);
  EXPECT_THROW(scheduler.retire_link(0), PreconditionError);  // still active
  scheduler.on_departure(0);
  scheduler.retire_link(0);
  EXPECT_THROW(scheduler.retire_link(0), PreconditionError);  // already retired
}

// ---------------------------------------------------------------------------
// Compaction victim selection (CompactionVictim::smallest_first).

TEST(OnlineScheduler, SmallestFirstDissolvesAMiddleClassTrailingNeverRevisits) {
  // Uniform powers, alpha 3, beta 1, length-4 links on a line: two links
  // conflict iff their closest endpoints sit within ~4 of each other.
  // P = [0,4], Q = [200,204], W = [88,92] and X = [100,104] all share
  // color 0; R = [97,101] conflicts only X -> color 1; S = [93,97]
  // conflicts W, X and R -> color 2. When X departs, R could join color 0
  // but S never can (W stays). The trailing pass only looks at color 2,
  // skips S, and keeps three colors; smallest_first picks the singleton
  // middle class, migrates R, and ends with two.
  const auto scenario = line_pairs(
      {0.0, 4.0, 200.0, 204.0, 88.0, 92.0, 100.0, 104.0, 97.0, 101.0, 93.0, 97.0});
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = UniformPower{}.assign(instance, params.alpha);
  for (const bool smallest : {false, true}) {
    OnlineSchedulerOptions options;
    options.compaction_victim =
        smallest ? CompactionVictim::smallest_first : CompactionVictim::trailing;
    OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional,
                              options);
    ASSERT_EQ(scheduler.on_arrival(0), 0);  // P
    ASSERT_EQ(scheduler.on_arrival(1), 0);  // Q
    ASSERT_EQ(scheduler.on_arrival(2), 0);  // W
    ASSERT_EQ(scheduler.on_arrival(3), 0);  // X
    ASSERT_EQ(scheduler.on_arrival(4), 1);  // R (blocked by X)
    ASSERT_EQ(scheduler.on_arrival(5), 2);  // S (blocked by W, X and R)
    scheduler.on_departure(3);              // X leaves
    if (smallest) {
      EXPECT_EQ(scheduler.num_colors(), 2);
      EXPECT_EQ(scheduler.color_of(4), 0);  // R migrated into the anchors
      EXPECT_EQ(scheduler.stats().migrations, 1u);
    } else {
      EXPECT_EQ(scheduler.num_colors(), 3);
      EXPECT_EQ(scheduler.color_of(4), 1);  // the middle class was never tried
      EXPECT_EQ(scheduler.stats().migrations, 0u);
    }
    EXPECT_TRUE(scheduler.validate_against_direct());
  }
}

TEST(OnlineScheduler, SmallestFirstSkipsLessOnTheAdversarialTrace) {
  const auto scenario = random_scenario(32, /*seed=*/29);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  const ChurnTrace trace = trace_for("adversarial", instance.size(), 97);
  OnlineSchedulerOptions trailing;
  OnlineSchedulerOptions smallest;
  smallest.compaction_victim = CompactionVictim::smallest_first;
  OnlineScheduler a(instance, powers, params, Variant::bidirectional, trailing);
  OnlineScheduler b(instance, powers, params, Variant::bidirectional, smallest);
  const ReplayResult trailing_result = replay_trace(a, trace);
  const ReplayResult smallest_result = replay_trace(b, trace);
  EXPECT_TRUE(trailing_result.validated);
  EXPECT_TRUE(smallest_result.validated);
  // The size-ordered victim attacks the cheapest class first, so a failed
  // pass burns fewer skips — and dissolving mid-palette classes keeps the
  // color count no worse.
  EXPECT_LT(smallest_result.stats.compaction_skips,
            trailing_result.stats.compaction_skips);
  EXPECT_LE(smallest_result.final_colors, trailing_result.final_colors);
}

TEST(OnlineScheduler, RebuildPolicyStillCountsItsReplays) {
  const auto scenario = random_scenario(24, /*seed=*/6);
  const Instance instance = scenario.instance();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.remove_policy = RemovePolicy::rebuild;
  OnlineScheduler scheduler(instance, powers, params, Variant::bidirectional, options);
  const ChurnTrace trace = trace_for("poisson", instance.size(), 55);
  const ReplayResult result = replay_trace(scheduler, trace);
  EXPECT_TRUE(result.validated);
  // Under rebuild every departure and every compaction migration pays a
  // full replay.
  EXPECT_EQ(result.stats.removal_rebuilds,
            result.stats.departures + result.stats.migrations);
}

TEST(OnlineScheduler, FarFieldOptionHasNoEffectOnAnyMetric) {
  // options.farfield and farfield_options outlived the layer they enabled:
  // setting them must change nothing — not the schedule, not a counter —
  // under either policy, on a Euclidean metric and on the same distances
  // as an explicit matrix (which the layer's cell grid could not take).
  const auto scenario = random_scenario(40, /*seed=*/88);
  const Instance euclidean = scenario.instance();
  const Instance matrix(std::make_shared<MatrixMetric>(MatrixMetric::from(*scenario.metric)),
                        scenario.requests);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const ChurnTrace trace = trace_for("poisson", euclidean.size(), 71);
  for (const Instance* instance : {&euclidean, &matrix}) {
    const auto powers = SqrtPower{}.assign(*instance, params.alpha);
    for (const RemovePolicy policy : {RemovePolicy::exact, RemovePolicy::rebuild}) {
      const char* metric_name = instance == &matrix ? "matrix" : "euclidean";
      const std::string context = std::string(metric_name) + "/" + to_string(policy);
      OnlineSchedulerOptions plain;
      plain.remove_policy = policy;
      OnlineSchedulerOptions far = plain;
      far.farfield = true;
      far.farfield_options.target_cells = 16;
      far.farfield_options.near_radius = 3;
      OnlineScheduler with(*instance, powers, params, Variant::bidirectional, far);
      OnlineScheduler without(*instance, powers, params, Variant::bidirectional, plain);
      const ReplayResult a = replay_trace(with, trace);
      const ReplayResult b = replay_trace(without, trace);
      EXPECT_TRUE(a.validated) << context;
      EXPECT_EQ(a.final_schedule.color_of, b.final_schedule.color_of) << context;
      EXPECT_EQ(a.final_colors, b.final_colors) << context;
      EXPECT_EQ(a.final_worst_margin, b.final_worst_margin) << context;
      EXPECT_EQ(a.stats.arrivals, b.stats.arrivals) << context;
      EXPECT_EQ(a.stats.departures, b.stats.departures) << context;
      EXPECT_EQ(a.stats.migrations, b.stats.migrations) << context;
      EXPECT_EQ(a.stats.compaction_skips, b.stats.compaction_skips) << context;
      EXPECT_EQ(a.stats.classes_opened, b.stats.classes_opened) << context;
      EXPECT_EQ(a.stats.classes_closed, b.stats.classes_closed) << context;
      EXPECT_EQ(a.stats.removal_rebuilds, b.stats.removal_rebuilds) << context;
      EXPECT_EQ(a.stats.peak_colors, b.stats.peak_colors) << context;
      EXPECT_EQ(a.stats.bound_hits, 0u) << context;
      EXPECT_EQ(a.stats.exact_fallbacks, 0u) << context;
    }
  }
}

}  // namespace
}  // namespace oisched
