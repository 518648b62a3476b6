// Equivalence suite for the shared gain-matrix engine: every query answered
// from the precomputed tables must agree bit-for-bit with the direct
// (metric-recomputing) path — verdicts, margins, and whole schedules alike —
// across line, grid and random fixtures, both variants, and randomized
// seeded subsets.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributed.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/max_feasible.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "core/sqrt_coloring.h"
#include "sinr/feasibility.h"
#include "sinr/gain_matrix.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::grid_scenario;
using testutil::iota_indices;
using testutil::line_pairs;
using testutil::random_scenario;

std::vector<testutil::Scenario> fixtures() {
  std::vector<testutil::Scenario> scenarios;
  scenarios.push_back(line_pairs({0.0, 2.0, 50.0, 53.0, 120.0, 121.0, 200.0, 207.0}));
  scenarios.push_back(grid_scenario(4, 6));
  scenarios.push_back(random_scenario(24, /*seed=*/7));
  scenarios.push_back(random_scenario(40, /*seed=*/1234));
  return scenarios;
}

std::vector<Variant> both_variants() {
  return {Variant::directed, Variant::bidirectional};
}

TEST(GainMatrix, TablesMatchDirectStrengths) {
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    for (const Variant variant : both_variants()) {
      const GainMatrix gains(instance, powers, 3.0, variant);
      ASSERT_EQ(gains.size(), instance.size());
      for (std::size_t j = 0; j < instance.size(); ++j) {
        for (std::size_t i = 0; i < instance.size(); ++i) {
          if (i == j) continue;
          // interference_at over the singleton {j} is the direct path's
          // contribution of j at any node.
          const std::vector<std::size_t> only_j = {j};
          const double direct_v =
              interference_at(instance.metric(), instance.requests(), powers, only_j,
                              instance.request(i).v, 3.0, variant, only_j.size());
          EXPECT_EQ(gains.at_v(j, i), direct_v) << "at_v(" << j << "," << i << ")";
        }
      }
    }
  }
}

TEST(GainMatrix, PrefetchRowChangesNothingOnAnyBackend) {
  // prefetch_row is a cache hint on dense and a no-op on the tableless
  // and appendable backends: every read and the residency stay as they
  // were.
  const auto scenario = random_scenario(24, /*seed=*/7);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const std::size_t n = instance.size();
  for (const GainBackend backend :
       {GainBackend::dense, GainBackend::appendable, GainBackend::computed}) {
    for (const Variant variant : both_variants()) {
      const GainMatrix gains(instance, powers, 3.0, variant,
                             /*with_sender_gains=*/false, backend);
      std::vector<double> before;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          before.push_back(gains.at_v(j, i));
          before.push_back(gains.at_u(j, i));
        }
      }
      const std::size_t resident = gains.resident_doubles();
      for (std::size_t j = 0; j < n; ++j) gains.prefetch_row(j);
      EXPECT_EQ(gains.resident_doubles(), resident) << to_string(backend);
      std::size_t k = 0;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(gains.at_v(j, i), before[k++]) << to_string(backend);
          ASSERT_EQ(gains.at_u(j, i), before[k++]) << to_string(backend);
        }
      }
    }
  }
}

TEST(GainMatrix, CheckFeasibleAgreesOnRandomSubsets) {
  Rng rng(99);
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    for (const auto& assignment : standard_assignments()) {
      const auto powers = assignment->assign(instance, 3.0);
      SinrParams params;
      params.alpha = 3.0;
      params.beta = 0.5;
      for (const Variant variant : both_variants()) {
        const GainMatrix gains(instance, powers, params.alpha, variant);
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<std::size_t> active;
          for (std::size_t i = 0; i < instance.size(); ++i) {
            if (rng.bernoulli(0.4)) active.push_back(i);
          }
          const FeasibilityReport direct = check_feasible(
              instance.metric(), instance.requests(), powers, active, params, variant);
          const FeasibilityReport tabled = check_feasible(gains, active, params);
          EXPECT_EQ(direct.feasible, tabled.feasible);
          EXPECT_EQ(direct.worst_margin, tabled.worst_margin);
          EXPECT_EQ(direct.worst_request, tabled.worst_request);
        }
      }
    }
  }
}

TEST(GainMatrix, IncrementalClassesAgreeAlongRandomInsertions) {
  Rng rng(4242);
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      const GainMatrix gains(instance, powers, params.alpha, variant);
      for (int trial = 0; trial < 10; ++trial) {
        IncrementalClass direct(instance.metric(), instance.requests(), powers, params,
                                variant);
        IncrementalGainClass tabled(gains, params);
        std::vector<std::size_t> order = rng.permutation(instance.size());
        for (const std::size_t j : order) {
          const bool direct_ok = direct.can_add(j);
          ASSERT_EQ(direct_ok, tabled.can_add(j)) << "candidate " << j;
          if (direct_ok) {
            direct.add(j);
            tabled.add(j);
          }
        }
        EXPECT_EQ(direct.members(), tabled.members());
      }
    }
  }
}

TEST(GainMatrix, GreedyFeasibleSubsetIdentical) {
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = UniformPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      const GainMatrix gains(instance, powers, params.alpha, variant);
      const auto order = iota_indices(instance.size());
      EXPECT_EQ(greedy_feasible_subset(instance.metric(), instance.requests(), powers,
                                       order, params, variant),
                greedy_feasible_subset(gains, order, params));
    }
  }
}

TEST(GreedyEngines, DirectAndGainMatrixProduceIdenticalSchedules) {
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const auto& assignment : standard_assignments()) {
      const auto powers = assignment->assign(instance, params.alpha);
      for (const Variant variant : both_variants()) {
        for (const RequestOrder order :
             {RequestOrder::as_given, RequestOrder::longest_first,
              RequestOrder::shortest_first}) {
          const Schedule direct = greedy_coloring(instance, powers, params, variant,
                                                  order, FeasibilityEngine::direct);
          const Schedule gain = greedy_coloring(instance, powers, params, variant, order,
                                                FeasibilityEngine::gain_matrix);
          EXPECT_EQ(direct.color_of, gain.color_of)
              << assignment->name() << " direct vs gain";
          EXPECT_EQ(direct.num_colors, gain.num_colors);
          // The engines must also produce genuinely valid schedules.
          EXPECT_TRUE(
              validate_schedule(instance, powers, gain, params, variant).valid);
        }
      }
    }
  }
}

TEST(SqrtColoringEngines, DirectAndGainMatrixIdentical) {
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      for (const bool use_lp : {false, true}) {
        SqrtColoringOptions direct_options;
        direct_options.seed = 5;
        direct_options.use_lp = use_lp;
        direct_options.engine = FeasibilityEngine::direct;
        SqrtColoringOptions gain_options = direct_options;
        gain_options.engine = FeasibilityEngine::gain_matrix;

        const SqrtColoringResult direct =
            sqrt_coloring(instance, params, variant, direct_options);
        const SqrtColoringResult gain =
            sqrt_coloring(instance, params, variant, gain_options);
        EXPECT_EQ(direct.schedule.color_of, gain.schedule.color_of)
            << "use_lp=" << use_lp;
        EXPECT_EQ(direct.schedule.num_colors, gain.schedule.num_colors);
        EXPECT_EQ(direct.stats.rounds, gain.stats.rounds);
        EXPECT_EQ(direct.stats.lp_solves, gain.stats.lp_solves);
        EXPECT_EQ(direct.stats.greedy_fallbacks, gain.stats.greedy_fallbacks);
      }
    }
  }
}

TEST(DistributedEngines, DirectAndGainMatrixIdentical) {
  for (const auto& scenario : fixtures()) {
    const Instance instance = scenario.instance();
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      DistributedOptions direct_options;
      direct_options.seed = 21;
      direct_options.engine = FeasibilityEngine::direct;
      DistributedOptions gain_options = direct_options;
      gain_options.engine = FeasibilityEngine::gain_matrix;

      const DistributedResult direct =
          distributed_coloring(instance, powers, params, variant, direct_options);
      const DistributedResult gain =
          distributed_coloring(instance, powers, params, variant, gain_options);
      EXPECT_EQ(direct.schedule.color_of, gain.schedule.color_of);
      EXPECT_EQ(direct.slots, gain.slots);
      EXPECT_EQ(direct.transmissions, gain.transmissions);
      EXPECT_EQ(direct.collisions, gain.collisions);
    }
  }
}

TEST(ExactEngines, GainBackedOracleMatchesDirectPartition) {
  // exact_min_colors runs on the gain engine internally; re-deriving the
  // oracle directly must give the same optimum.
  const auto scenario = random_scenario(9, /*seed=*/31);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  for (const Variant variant : both_variants()) {
    const ExactResult exact = exact_min_colors(instance, powers, params, variant);
    EXPECT_TRUE(validate_schedule(instance, powers, exact.schedule, params, variant).valid);
    // The greedy upper bound can never beat the optimum.
    const Schedule greedy = greedy_coloring(instance, powers, params, variant);
    EXPECT_LE(exact.num_colors, greedy.num_colors);
  }
}

TEST(GainCache, SameKeyReturnsSameTable) {
  const auto scenario = random_scenario(12, /*seed=*/3);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const auto first = instance.gains(powers, 3.0, Variant::bidirectional);
  const auto second = instance.gains(powers, 3.0, Variant::bidirectional);
  EXPECT_EQ(first.get(), second.get());  // one build, shared
  EXPECT_EQ(instance.cached_gain_tables(), 1u);

  // The bidirectional variant always builds the sender table, so the flag
  // is normalized out of the key — no duplicate build.
  EXPECT_EQ(instance.gains(powers, 3.0, Variant::bidirectional, true).get(),
            first.get());

  // Any key component actually changing forces (and caches) a fresh build;
  // for the directed variant the sender-side table is a real distinction.
  const auto directed = instance.gains(powers, 3.0, Variant::directed);
  EXPECT_NE(directed.get(), first.get());
  EXPECT_NE(instance.gains(powers, 3.0, Variant::directed, true).get(),
            directed.get());
  const auto uniform = UniformPower{}.assign(instance, 3.0);
  EXPECT_NE(instance.gains(uniform, 3.0, Variant::bidirectional).get(), first.get());
  EXPECT_EQ(instance.cached_gain_tables(), 4u);
}

TEST(GainCache, BackendIsACacheKeyDimension) {
  const auto scenario = random_scenario(12, /*seed=*/31);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const auto dense = instance.gains(powers, 3.0, Variant::bidirectional);
  const auto computed = instance.gains(powers, 3.0, Variant::bidirectional, false,
                                       GainBackend::computed);
  EXPECT_NE(dense.get(), computed.get());  // distinct keys, distinct builds
  EXPECT_EQ(dense->backend(), GainBackend::dense);
  EXPECT_EQ(computed->backend(), GainBackend::computed);
  // Same key -> same table, and both answer identically.
  EXPECT_EQ(instance
                .gains(powers, 3.0, Variant::bidirectional, false, GainBackend::computed)
                .get(),
            computed.get());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (i == j) continue;
      EXPECT_EQ(computed->at_v(j, i), dense->at_v(j, i));
    }
  }
}

TEST(GainCache, ConcurrentMixedKeysBuildOnceEach) {
  // Per-entry once-initialization: many threads racing on a mix of cold
  // keys must each get a fully built table, same-key callers sharing one
  // build — and nobody deadlocks behind another key's cold build.
  const auto scenario = random_scenario(48, /*seed=*/8);
  const Instance instance = scenario.instance();
  const auto sqrt_powers = SqrtPower{}.assign(instance, 3.0);
  const auto uniform_powers = UniformPower{}.assign(instance, 3.0);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const GainMatrix>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Even threads hammer the sqrt key, odd threads the uniform key.
      const auto& powers = t % 2 == 0 ? sqrt_powers : uniform_powers;
      for (int round = 0; round < 4; ++round) {
        seen[t] = instance.gains(powers, 3.0, Variant::bidirectional);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t]->size(), instance.size());
    // Same key -> the one shared build.
    EXPECT_EQ(seen[t].get(), seen[t % 2].get());
  }
  EXPECT_NE(seen[0].get(), seen[1].get());
  EXPECT_EQ(instance.cached_gain_tables(), 2u);
}

TEST(GainCache, SharedAcrossCopiesAndBoundedWithSafeEviction) {
  const auto scenario = random_scenario(10, /*seed=*/9);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const auto table = instance.gains(powers, 3.0, Variant::bidirectional);

  // Copies share the cache: the copy sees the same table.
  const Instance copy = instance;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.gains(powers, 3.0, Variant::bidirectional).get(), table.get());

  // Flood the cache with distinct keys; the original entry gets evicted but
  // the handed-out shared_ptr stays fully usable (entries own their data).
  for (int k = 1; k <= 6; ++k) {
    (void)instance.gains(powers, 3.0 + k, Variant::bidirectional);
  }
  EXPECT_LE(instance.cached_gain_tables(), 4u);
  EXPECT_NE(instance.gains(powers, 3.0, Variant::bidirectional).get(), table.get());
  EXPECT_EQ(table->size(), instance.size());
  EXPECT_GT(table->signal(0), 0.0);  // still answers queries after eviction
}

TEST(GainCache, CachedTableMatchesDirectBuild) {
  const auto scenario = random_scenario(14, /*seed=*/21);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  for (const Variant variant : both_variants()) {
    const auto cached = instance.gains(powers, 3.0, variant);
    const GainMatrix direct(instance, powers, 3.0, variant);
    ASSERT_EQ(cached->size(), direct.size());
    for (std::size_t j = 0; j < direct.size(); ++j) {
      EXPECT_EQ(cached->signal(j), direct.signal(j));
      for (std::size_t i = 0; i < direct.size(); ++i) {
        if (i == j) continue;
        EXPECT_EQ(cached->at_v(j, i), direct.at_v(j, i));
        EXPECT_EQ(cached->at_u(j, i), direct.at_u(j, i));
      }
    }
  }
}

TEST(RemovePolicyNames, RoundTripThroughToStringAndParse) {
  for (const RemovePolicy policy : {RemovePolicy::rebuild, RemovePolicy::exact}) {
    RemovePolicy parsed = RemovePolicy::rebuild;
    ASSERT_TRUE(parse_remove_policy(to_string(policy), parsed));
    EXPECT_EQ(parsed, policy);
  }
  RemovePolicy parsed = RemovePolicy::rebuild;
  EXPECT_FALSE(parse_remove_policy("telepathic", parsed));
  EXPECT_FALSE(parse_remove_policy("", parsed));
}

TEST(MaxFeasibleEngines, ExactSubsetStillDominatesGreedy) {
  const auto scenario = random_scenario(12, /*seed=*/77);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  for (const Variant variant : both_variants()) {
    const auto exact = exact_max_feasible_subset(instance, powers, params, variant);
    const auto greedy = greedy_max_feasible_subset(instance, powers, params, variant,
                                                   RequestOrder::longest_first);
    EXPECT_GE(exact.size(), greedy.size());
    EXPECT_TRUE(check_feasible(instance.metric(), instance.requests(), powers, exact,
                               params, variant)
                    .feasible);
  }
}

TEST(GainMatrixUpdate, UpdateRequestMatchesAFreshBuildOnEveryBackend) {
  // Moving a link in place must leave the matrix bit-identical to one
  // built from scratch over the moved geometry — on both backends that
  // move links, both table sides included.
  const auto scenario = random_scenario(24, /*seed=*/7);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const MetricSpace& metric = instance.metric();
  Rng rng(606);
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    // A handful of random moves, applied identically to every backend.
    std::vector<Request> moved_requests(instance.requests().begin(),
                                        instance.requests().end());
    std::vector<double> moved_powers(powers.begin(), powers.end());
    std::vector<std::pair<std::size_t, Request>> moves;
    for (int m = 0; m < 6; ++m) {
      const std::size_t link = rng.uniform_index(instance.size());
      Request moved;
      do {
        moved.u = static_cast<NodeId>(rng.uniform_index(metric.size()));
        moved.v = static_cast<NodeId>(rng.uniform_index(metric.size()));
      } while (!(metric.distance(moved.u, moved.v) > 0.0));
      moves.emplace_back(link, moved);
      moved_requests[link] = moved;
      moved_powers[link] =
          SqrtPower{}.power_for_loss(link_loss(metric, moved, 3.0));
    }
    const GainMatrix reference(metric, moved_requests, moved_powers, 3.0, variant,
                               /*with_sender_gains=*/true, GainBackend::dense);
    for (const GainBackend backend : {GainBackend::appendable, GainBackend::computed}) {
      GainMatrix gains(instance, powers, 3.0, variant,
                       /*with_sender_gains=*/true, backend);
      for (const auto& [link, request] : moves) {
        gains.update_request(link, request, moved_powers[link]);
      }
      for (std::size_t j = 0; j < instance.size(); ++j) {
        ASSERT_EQ(gains.signal(j), reference.signal(j)) << to_string(backend);
        EXPECT_EQ(gains.requests()[j] == moved_requests[j], true);
        ASSERT_EQ(gains.powers()[j], moved_powers[j]);
        for (std::size_t i = 0; i < instance.size(); ++i) {
          if (i == j) continue;
          ASSERT_EQ(gains.at_v(j, i), reference.at_v(j, i))
              << to_string(backend) << " at_v(" << j << "," << i << ")";
          ASSERT_EQ(gains.at_u(j, i), reference.at_u(j, i))
              << to_string(backend) << " at_u(" << j << "," << i << ")";
        }
      }
    }
  }
}

TEST(GainMatrixUpdate, UpdateRequestGuardsItsPreconditions) {
  const auto scenario = random_scenario(6, /*seed=*/3);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix gains(instance, powers, 3.0, Variant::bidirectional,
                   /*with_sender_gains=*/false, GainBackend::computed);
  const Request valid = instance.request(1);
  EXPECT_THROW(gains.update_request(instance.size(), valid, 1.0), PreconditionError);
  EXPECT_THROW(gains.update_request(0, Request{0, 0}, 1.0), PreconditionError);
  const NodeId out = static_cast<NodeId>(instance.metric().size());
  EXPECT_THROW(gains.update_request(0, Request{out, 0}, 1.0), PreconditionError);
  EXPECT_THROW(gains.update_request(0, valid, 0.0), PreconditionError);
  EXPECT_THROW(gains.update_request(0, valid,
                                    std::numeric_limits<double>::infinity()),
               PreconditionError);
  // A failed update leaves the table untouched.
  EXPECT_EQ(gains.requests()[0] == instance.request(0), true);
  gains.update_request(0, valid, 2.0);
  EXPECT_EQ(gains.powers()[0], 2.0);
}

TEST(GainMatrixUpdate, DenseTablesAreFrozen) {
  // Only appendable and computed move links; a dense matrix refuses the
  // update and keeps its stores as built.
  const auto scenario = random_scenario(6, /*seed=*/3);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix gains(instance, powers, 3.0, Variant::bidirectional,
                   /*with_sender_gains=*/false, GainBackend::dense);
  EXPECT_THROW(gains.update_request(0, instance.request(1), 2.0), PreconditionError);
  EXPECT_EQ(gains.requests()[0] == instance.request(0), true);
  EXPECT_EQ(gains.powers()[0], powers[0]);
}

}  // namespace
}  // namespace oisched
