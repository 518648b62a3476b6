// Storage-backend equivalence suite: the dense, appendable and computed
// gain backends must answer every query bit-for-bit identically — raw
// table entries, feasibility verdicts and margins, whole greedy schedules
// and whole online replays — across the line/grid/random/adversarial
// fixtures and both variants. Plus the computed memory model: a large
// universe keeps only its n signals resident.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "core/sqrt_coloring.h"
#include "gen/adversarial.h"
#include "gen/generators.h"
#include "metric/checks.h"
#include "metric/euclidean.h"
#include "metric/matrix_metric.h"
#include "metric/star_metric.h"
#include "metric/tree_metric.h"
#include "online/online_scheduler.h"
#include "sinr/feasibility.h"
#include "sinr/gain_matrix.h"
#include "sinr/gain_storage.h"
#include "sinr/model.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::grid_scenario;
using testutil::line_pairs;
using testutil::random_scenario;

/// line/grid/random fixtures plus the Theorem-1 adversarial family (which
/// lives in the directed variant but tabulates fine under both).
std::vector<Instance> fixture_instances() {
  std::vector<Instance> instances;
  instances.push_back(
      line_pairs({0.0, 2.0, 50.0, 53.0, 120.0, 121.0, 200.0, 207.0}).instance());
  instances.push_back(grid_scenario(4, 6).instance());
  instances.push_back(random_scenario(32, /*seed=*/17).instance());
  instances.push_back(theorem1_family(12, LinearPower{}, 3.0).instance);
  return instances;
}

std::vector<Variant> both_variants() {
  return {Variant::directed, Variant::bidirectional};
}

std::vector<GainBackend> all_backends() {
  return {GainBackend::dense, GainBackend::appendable, GainBackend::computed};
}

TEST(GainBackendNames, RoundTrip) {
  for (const GainBackend backend : all_backends()) {
    GainBackend parsed = GainBackend::dense;
    ASSERT_TRUE(parse_gain_backend(to_string(backend), parsed));
    EXPECT_EQ(parsed, backend);
  }
  GainBackend parsed = GainBackend::dense;
  EXPECT_FALSE(parse_gain_backend("sparse", parsed));
}

TEST(GainStorageBackends, TablesAreBitIdentical) {
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, 3.0, variant,
                             /*with_sender_gains=*/true, GainBackend::dense);
      for (const GainBackend backend : {GainBackend::appendable, GainBackend::computed}) {
        const GainMatrix other(instance, powers, 3.0, variant,
                               /*with_sender_gains=*/true, backend);
        ASSERT_EQ(other.size(), dense.size());
        EXPECT_EQ(other.backend(), backend);
        for (std::size_t j = 0; j < dense.size(); ++j) {
          EXPECT_EQ(other.signal(j), dense.signal(j));
          for (std::size_t i = 0; i < dense.size(); ++i) {
            if (i == j) continue;
            ASSERT_EQ(other.at_v(j, i), dense.at_v(j, i))
                << to_string(backend) << " at_v(" << j << "," << i << ")";
            ASSERT_EQ(other.at_u(j, i), dense.at_u(j, i))
                << to_string(backend) << " at_u(" << j << "," << i << ")";
          }
        }
      }
    }
  }
}

TEST(GainStorageBackends, VerdictsAndMarginsAgreeOnRandomSubsets) {
  Rng rng(4711);
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 0.5;
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, params.alpha, variant,
                             /*with_sender_gains=*/false, GainBackend::dense);
      const GainMatrix computed(instance, powers, params.alpha, variant,
                                /*with_sender_gains=*/false, GainBackend::computed);
      const GainMatrix appendable(instance, powers, params.alpha, variant,
                                  /*with_sender_gains=*/false, GainBackend::appendable);
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < instance.size(); ++i) {
          if (rng.bernoulli(0.4)) active.push_back(i);
        }
        const FeasibilityReport expect = check_feasible(dense, active, params);
        for (const GainMatrix* gains : {&computed, &appendable}) {
          const FeasibilityReport got = check_feasible(*gains, active, params);
          EXPECT_EQ(got.feasible, expect.feasible);
          EXPECT_EQ(got.worst_margin, expect.worst_margin);
          EXPECT_EQ(got.worst_request, expect.worst_request);
        }
      }
    }
  }
}

TEST(GainStorageBackends, GreedySchedulesIdenticalThroughTheCache) {
  for (const Instance& instance : fixture_instances()) {
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const auto& assignment : standard_assignments()) {
      const auto powers = assignment->assign(instance, params.alpha);
      for (const Variant variant : both_variants()) {
        const Schedule dense =
            greedy_coloring(instance, powers, params, variant,
                            RequestOrder::longest_first, FeasibilityEngine::gain_matrix,
                            GainBackend::dense);
        const Schedule computed =
            greedy_coloring(instance, powers, params, variant,
                            RequestOrder::longest_first, FeasibilityEngine::gain_matrix,
                            GainBackend::computed);
        EXPECT_EQ(dense.color_of, computed.color_of) << assignment->name();
        EXPECT_EQ(dense.num_colors, computed.num_colors);
      }
    }
  }
}

TEST(GainStorageBackends, OnlineReplaysIdenticalAcrossBackends) {
  for (const Instance& instance : fixture_instances()) {
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    const auto powers = SqrtPower{}.assign(instance, params.alpha);
    for (const Variant variant : both_variants()) {
      Rng rng(77);
      const ChurnTrace trace =
          make_churn_trace("poisson", instance.size(), /*target_events=*/400, rng);
      ReplayResult reference;
      bool have_reference = false;
      for (const GainBackend backend : all_backends()) {
        OnlineSchedulerOptions options;
        options.storage = backend;
        OnlineScheduler scheduler(instance, powers, params, variant, options);
        const ReplayResult replay = replay_trace(scheduler, trace);
        EXPECT_TRUE(replay.validated) << to_string(backend);
        if (!have_reference) {
          reference = replay;
          have_reference = true;
          continue;
        }
        // The whole replayed trajectory is backend-invariant: same final
        // coloring, same color count, same compaction work.
        EXPECT_EQ(replay.final_schedule.color_of, reference.final_schedule.color_of)
            << to_string(backend);
        EXPECT_EQ(replay.final_colors, reference.final_colors);
        EXPECT_EQ(replay.stats.migrations, reference.stats.migrations);
        EXPECT_EQ(replay.stats.compaction_skips, reference.stats.compaction_skips);
        EXPECT_EQ(replay.final_worst_margin, reference.final_worst_margin);
      }
    }
  }
}

TEST(AppendableBackend, GrowthMatchesAFullDenseBuildBitForBit) {
  const auto scenario = random_scenario(24, /*seed=*/5);
  const Instance full = scenario.instance();
  const auto powers = SqrtPower{}.assign(full, 3.0);
  for (const Variant variant : both_variants()) {
    const GainMatrix dense(full, powers, 3.0, variant, /*with_sender_gains=*/true,
                           GainBackend::dense);
    const std::size_t n0 = 10;
    const auto all = full.requests();
    GainMatrix growing(full.metric(), all.subspan(0, n0),
                       std::span<const double>(powers).subspan(0, n0), 3.0, variant,
                       /*with_sender_gains=*/true, GainBackend::appendable);
    for (std::size_t k = n0; k < full.size(); ++k) {
      const std::size_t index = growing.append_request(all[k], powers[k]);
      EXPECT_EQ(index, k);
    }
    ASSERT_EQ(growing.size(), dense.size());
    EXPECT_EQ(growing.requests().size(), full.size());
    for (std::size_t j = 0; j < dense.size(); ++j) {
      EXPECT_EQ(growing.signal(j), dense.signal(j));
      for (std::size_t i = 0; i < dense.size(); ++i) {
        if (i == j) continue;
        ASSERT_EQ(growing.at_v(j, i), dense.at_v(j, i)) << j << "," << i;
        ASSERT_EQ(growing.at_u(j, i), dense.at_u(j, i)) << j << "," << i;
      }
    }
  }
}

TEST(AppendableBackend, OnlyAppendableGrows) {
  const auto scenario = random_scenario(6, /*seed=*/2);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix dense(instance, powers, 3.0, Variant::bidirectional);
  EXPECT_THROW((void)dense.append_request(instance.request(0), 1.0), PreconditionError);
  // And the shared per-instance cache refuses to hand out growable tables.
  EXPECT_THROW((void)instance.gains(powers, 3.0, Variant::bidirectional, false,
                                    GainBackend::appendable),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Computed (tableless) backend: every answer is recomputed through the
// filler, so the tables cost O(1) memory — and must still be bit-identical.

TEST(ComputedBackend, NameRoundTripsThroughTheParser) {
  GainBackend parsed = GainBackend::dense;
  ASSERT_TRUE(parse_gain_backend("computed", parsed));
  EXPECT_EQ(parsed, GainBackend::computed);
  EXPECT_STREQ(to_string(GainBackend::computed), "computed");
}

TEST(ComputedBackend, AnswersMatchDenseBitForBit) {
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, 3.0, variant,
                             /*with_sender_gains=*/true, GainBackend::dense);
      const GainMatrix computed(instance, powers, 3.0, variant,
                                /*with_sender_gains=*/true, GainBackend::computed);
      EXPECT_EQ(computed.backend(), GainBackend::computed);
      for (std::size_t j = 0; j < dense.size(); ++j) {
        EXPECT_EQ(computed.signal(j), dense.signal(j));
        for (std::size_t i = 0; i < dense.size(); ++i) {
          if (i == j) continue;
          ASSERT_EQ(computed.at_v(j, i), dense.at_v(j, i)) << j << "," << i;
          ASSERT_EQ(computed.at_u(j, i), dense.at_u(j, i)) << j << "," << i;
        }
      }
      // The whole point: no tables. Only the signals are resident.
      EXPECT_EQ(computed.resident_doubles(), computed.size());
      EXPECT_TRUE(computed.dense_row(0).empty());
    }
  }
}

TEST(ComputedBackend, CannotGrowButEntersTheInstanceCache) {
  const auto scenario = random_scenario(6, /*seed=*/3);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix computed(instance, powers, 3.0, Variant::bidirectional,
                      /*with_sender_gains=*/false, GainBackend::computed);
  EXPECT_THROW((void)computed.append_request(instance.request(0), 1.0),
               PreconditionError);
  // The per-instance cache hands out const computed matrices: one shared
  // build per key, reading the dense entries bit for bit.
  const auto cached = instance.gains(powers, 3.0, Variant::bidirectional, false,
                                     GainBackend::computed);
  EXPECT_EQ(cached->backend(), GainBackend::computed);
  EXPECT_EQ(instance.gains(powers, 3.0, Variant::bidirectional, false,
                           GainBackend::computed)
                .get(),
            cached.get());
  const auto dense = instance.gains(powers, 3.0, Variant::bidirectional);
  EXPECT_NE(dense.get(), cached.get());  // distinct keys, distinct builds
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t j = 0; j < instance.size(); ++j) {
    EXPECT_EQ(bits(cached->signal(j)), bits(dense->signal(j)));
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (i == j) continue;
      ASSERT_EQ(bits(cached->at_v(j, i)), bits(dense->at_v(j, i))) << j << "," << i;
      ASSERT_EQ(bits(cached->at_u(j, i)), bits(dense->at_u(j, i))) << j << "," << i;
    }
  }
}

TEST(IncrementalGainClassGrowth, SyncedAccumulatorsMatchAFreshReplay) {
  const auto scenario = random_scenario(20, /*seed=*/13);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const std::size_t n0 = 12;
  const auto all = instance.requests();
  GainMatrix growing(instance.metric(), all.subspan(0, n0),
                     std::span<const double>(powers).subspan(0, n0), params.alpha,
                     Variant::bidirectional, /*with_sender_gains=*/false,
                     GainBackend::appendable);
  IncrementalGainClass cls(growing, params);
  for (std::size_t i = 0; i < n0; ++i) {
    if (cls.can_add(i)) cls.add(i);
  }
  // Unsynced use after growth is rejected; after sync the class is
  // bit-identical to a from-scratch replay over the grown universe.
  (void)growing.append_request(all[n0], powers[n0]);
  EXPECT_THROW((void)cls.can_add(n0), PreconditionError);
  cls.sync_universe();
  EXPECT_EQ(cls.accumulator_drift(), 0.0);
  IncrementalGainClass twin(growing, params);
  for (const std::size_t m : cls.members()) twin.add(m);
  for (std::size_t cand = 0; cand <= n0; ++cand) {
    if (cls.contains(cand)) continue;
    EXPECT_EQ(cls.can_add(cand), twin.can_add(cand)) << cand;
  }
}

TEST(IncrementalGainClassGrowth, ExactPolicySyncedSlotsMatchAFreshExactBuild) {
  // Universe growth under the exact policy: sync_universe has nothing to
  // extend (only member slots are stored), and the grown links' slots,
  // summed on demand, must read bit for bit what a from-scratch exact
  // build over the grown universe reads.
  const auto scenario = random_scenario(20, /*seed=*/13);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const std::size_t n0 = 12;
  const auto all = instance.requests();
  GainMatrix growing(instance.metric(), all.subspan(0, n0),
                     std::span<const double>(powers).subspan(0, n0), params.alpha,
                     Variant::bidirectional, /*with_sender_gains=*/false,
                     GainBackend::appendable);
  IncrementalGainClass cls(growing, params, RemovePolicy::exact);
  for (std::size_t i = 0; i < n0; ++i) {
    if (cls.can_add(i)) cls.add(i);
  }
  for (std::size_t grow = n0; grow < instance.size(); ++grow) {
    (void)growing.append_request(all[grow], powers[grow]);
    cls.sync_universe();
    EXPECT_EQ(cls.accumulator_drift(), 0.0);
    IncrementalGainClass twin(growing, params, RemovePolicy::exact);
    for (const std::size_t m : cls.members()) twin.add(m);
    for (std::size_t i = 0; i <= grow; ++i) {
      ASSERT_EQ(cls.accumulator_v(i), twin.accumulator_v(i)) << "slot " << i;
      ASSERT_EQ(cls.accumulator_u(i), twin.accumulator_u(i)) << "slot " << i;
    }
  }
}

/// Drives one class per backend through the same add/remove workout and
/// asserts bit-identical verdicts and accumulator slots after every step.
/// The classes consume table entries — point lookups, or the raw dense row
/// under the rebuild policy's row walks — whose values agree bit for bit,
/// so every backend must yield the same class states.
void expect_accumulators_identical_across_backends(RemovePolicy policy) {
  const auto scenario = random_scenario(24, /*seed=*/51);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const Variant variant : both_variants()) {
    std::vector<std::unique_ptr<GainMatrix>> matrices;
    std::vector<IncrementalGainClass> classes;
    for (const GainBackend backend : all_backends()) {
      matrices.push_back(std::make_unique<GainMatrix>(instance, powers, params.alpha, variant,
                                                      /*with_sender_gains=*/false, backend));
      classes.emplace_back(*matrices.back(), params, policy);
    }
    Rng rng(404);
    std::vector<std::size_t> in_class;
    for (int step = 0; step < 120; ++step) {
      if (!in_class.empty() && rng.bernoulli(0.4)) {
        const std::size_t pos = rng.uniform_index(in_class.size());
        const std::size_t victim = in_class[pos];
        in_class.erase(in_class.begin() + static_cast<std::ptrdiff_t>(pos));
        for (IncrementalGainClass& cls : classes) cls.remove(victim);
      } else {
        const std::size_t cand = rng.uniform_index(instance.size());
        if (classes[0].contains(cand)) continue;
        const bool accepted = classes[0].can_add(cand);
        for (std::size_t b = 1; b < classes.size(); ++b) {
          ASSERT_EQ(classes[b].can_add(cand), accepted)
              << to_string(matrices[b]->backend()) << " step " << step;
        }
        if (!accepted) continue;
        for (IncrementalGainClass& cls : classes) cls.add(cand);
        in_class.push_back(cand);
      }
      for (std::size_t b = 1; b < classes.size(); ++b) {
        for (std::size_t i = 0; i < instance.size(); ++i) {
          ASSERT_EQ(bits(classes[b].accumulator_v(i)), bits(classes[0].accumulator_v(i)))
              << to_string(matrices[b]->backend()) << " step " << step << " slot " << i;
          ASSERT_EQ(bits(classes[b].accumulator_u(i)), bits(classes[0].accumulator_u(i)))
              << to_string(matrices[b]->backend()) << " step " << step << " slot " << i;
        }
      }
    }
  }
}

TEST(GainStorageBackends, ExactAccumulatorsBitIdenticalAcrossBackends) {
  expect_accumulators_identical_across_backends(RemovePolicy::exact);
}

TEST(GainStorageBackends, RebuildAccumulatorsBitIdenticalAcrossBackends) {
  expect_accumulators_identical_across_backends(RemovePolicy::rebuild);
}

TEST(GainStorageBackends, RowAdditionIsBitIdenticalAcrossBackends) {
  // add_row_to is the row walk of the rebuild policy and of the sqrt
  // coloring's selection sums: raw row pointer on dense, point lookups
  // everywhere else, one add per slot in column order on all of them.
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    const std::size_t n = instance.size();
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, 3.0, variant,
                             /*with_sender_gains=*/true, GainBackend::dense);
      std::vector<double> expect_v(n, 0.25);
      std::vector<double> expect_u(n, -0.0);
      for (std::size_t j = 0; j < n; ++j) {
        dense.add_row_to(j, /*sender_side=*/false, 0, n, expect_v.data());
        dense.add_row_to(j, /*sender_side=*/true, j / 2, n, expect_u.data());
      }
      for (const GainBackend backend : {GainBackend::appendable, GainBackend::computed}) {
        const GainMatrix other(instance, powers, 3.0, variant,
                               /*with_sender_gains=*/true, backend);
        std::vector<double> got_v(n, 0.25);
        std::vector<double> got_u(n, -0.0);
        for (std::size_t j = 0; j < n; ++j) {
          other.add_row_to(j, /*sender_side=*/false, 0, n, got_v.data());
          other.add_row_to(j, /*sender_side=*/true, j / 2, n, got_u.data());
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got_v[i]),
                    std::bit_cast<std::uint64_t>(expect_v[i]))
              << to_string(backend) << " slot " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got_u[i]),
                    std::bit_cast<std::uint64_t>(expect_u[i]))
              << to_string(backend) << " slot " << i;
        }
      }
    }
  }
}

TEST(GainStorageBackends, SqrtColoringIdenticalOnComputed) {
  for (const Instance& instance : fixture_instances()) {
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const Variant variant : both_variants()) {
      SqrtColoringOptions options;
      options.seed = 5;
      const SqrtColoringResult dense = sqrt_coloring(instance, params, variant, options);
      options.storage = GainBackend::computed;
      const SqrtColoringResult computed = sqrt_coloring(instance, params, variant, options);
      EXPECT_EQ(dense.schedule.color_of, computed.schedule.color_of);
      EXPECT_EQ(dense.schedule.num_colors, computed.schedule.num_colors);
      EXPECT_EQ(dense.powers, computed.powers);
    }
  }
}

TEST(ComputedBackend, SparseScheduleAtN4096HoldsNoTable) {
  // A 4096-link universe on the tableless backend: a dense table per side
  // would be 4096^2 doubles (128 MiB); computed keeps only the signals,
  // however many entries a schedule reads.
  const auto scenario = random_scenario(4096, /*seed=*/1, /*side=*/2000.0);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const GainMatrix gains(instance, powers, params.alpha, Variant::bidirectional,
                         /*with_sender_gains=*/false, GainBackend::computed);
  EXPECT_EQ(gains.resident_doubles(), instance.size());

  std::vector<std::size_t> candidates(32);
  for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  const std::vector<std::size_t> kept =
      greedy_feasible_subset(gains, candidates, params);
  EXPECT_GT(kept.size(), 0u);
  EXPECT_EQ(gains.resident_doubles(), instance.size());  // reads left nothing

  // The sparse subset answers exactly as the direct engine does.
  const FeasibilityReport direct = check_feasible(
      instance.metric(), instance.requests(), powers, kept, params,
      Variant::bidirectional);
  const FeasibilityReport tabled = check_feasible(gains, kept, params);
  EXPECT_EQ(direct.feasible, tabled.feasible);
  EXPECT_EQ(direct.worst_margin, tabled.worst_margin);
  EXPECT_EQ(direct.worst_request, tabled.worst_request);
}

TEST(GainStorageUnits, BackendsAnswerAndReportResidency) {
  const GainFiller fill = [](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : static_cast<double>(10 * j + i);
  };
  // Dense tables are GainMatrix's own interleaved buffer (DenseLayout
  // below): the storage factory serves only the two filler backends.
  EXPECT_THROW((void)make_gain_storage(GainBackend::dense, 4, fill), PreconditionError);

  ComputedGainStorage computed(4, fill);
  EXPECT_EQ(computed.kind(), GainBackend::computed);
  EXPECT_EQ(computed.at(2, 3), 23.0);
  EXPECT_EQ(computed.at(1, 1), 0.0);
  EXPECT_EQ(computed.resident_doubles(), 0u);

  AppendableGainStorage appendable(2, fill);
  EXPECT_EQ(appendable.kind(), GainBackend::appendable);
  EXPECT_EQ(appendable.at(0, 1), 1.0);
  appendable.grow_to(4);
  EXPECT_EQ(appendable.size(), 4u);
  EXPECT_EQ(appendable.at(0, 3), 3.0);   // new column of an old row
  EXPECT_EQ(appendable.at(3, 1), 31.0);  // old column of a new row
  EXPECT_EQ(appendable.at(3, 3), 0.0);
  EXPECT_EQ(appendable.resident_doubles(), 16u);
}

/// One gain entry by the filler's formula: the variant's interferer loss
/// from request j to request i's receiver (or sender), +inf when
/// co-located, 0 on the diagonal.
double filler_entry(const Instance& instance, std::span<const double> powers, double alpha,
                    Variant variant, std::size_t j, std::size_t i, bool sender_side) {
  if (i == j) return 0.0;
  const Request& rj = instance.request(j);
  const NodeId target = sender_side ? instance.request(i).u : instance.request(i).v;
  const double loss = variant == Variant::directed
                          ? path_loss(instance.metric().distance(rj.u, target), alpha)
                          : min_endpoint_loss(instance.metric(), rj, target, alpha);
  return loss == 0.0 ? std::numeric_limits<double>::infinity() : powers[j] / loss;
}

/// Four metric kinds over the same 40 nodes and 129 links that share
/// endpoints (+inf cells); the integer-valued metrics make equal distances
/// common.
struct SharedNodeFixture {
  std::vector<std::shared_ptr<const MetricSpace>> metrics;
  std::vector<Request> links;
  std::vector<double> powers;
};

SharedNodeFixture shared_node_fixture() {
  constexpr std::size_t kNodes = 40;
  SharedNodeFixture fixture;
  Rng rng(2406);
  std::vector<Point> points;
  for (std::size_t v = 0; v < kNodes; ++v) {
    points.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0), 0.0});
  }
  const auto euclidean = std::make_shared<EuclideanMetric>(points);
  // Rounding Euclidean distances up keeps the triangle inequality.
  std::vector<double> rounded(kNodes * kNodes);
  for (std::size_t a = 0; a < kNodes; ++a) {
    for (std::size_t b = 0; b < kNodes; ++b) {
      rounded[a * kNodes + b] = std::ceil(euclidean->distance(a, b) / 10.0);
    }
  }
  std::vector<TreeEdge> edges;
  for (NodeId v = 1; v < kNodes; ++v) {
    edges.push_back({rng.uniform_index(v), v, 1.0 + static_cast<double>(rng.uniform_index(3))});
  }
  std::vector<double> radii;
  for (std::size_t v = 0; v < kNodes; ++v) {
    radii.push_back(1.0 + static_cast<double>(rng.uniform_index(3)));
  }
  fixture.metrics.push_back(euclidean);
  fixture.metrics.push_back(std::make_shared<MatrixMetric>(kNodes, rounded));
  fixture.metrics.push_back(std::make_shared<TreeMetric>(kNodes, edges));
  fixture.metrics.push_back(std::make_shared<StarMetric>(radii));
  while (fixture.links.size() < 129) {
    const NodeId u = rng.uniform_index(kNodes);
    const NodeId v = rng.uniform_index(kNodes);
    if (u == v) continue;
    fixture.links.push_back({u, v});
    // A reversed copy of every eighth link: the pair's cross distances
    // d(u_i, v_j) and d(v_i, u_j) are both 0.
    if (fixture.links.size() % 8 == 0) fixture.links.push_back({v, u});
  }
  fixture.links.resize(129);
  for (std::size_t i = 0; i < fixture.links.size(); ++i) {
    fixture.powers.push_back(rng.uniform(0.5, 2.0));
  }
  return fixture;
}

/// An instance with the powers its dense table is built from.
struct PoweredInstance {
  Instance instance;
  std::vector<double> powers;
};

/// The fixture instances under square-root powers, prefixes of the
/// shared-node links on every metric kind at 1, 2, 63, 64, 65 and 129
/// links, on both sides of the dense build's 64-link tile edge, and
/// random-square universes of 256 and 512 links, whose unpadded rows
/// (4 KiB at 256 links of width 2 and 512 of width 1) are multiples of
/// 4 KiB, the stride the row padding breaks. The pair build rests on exact
/// metric symmetry, so each metric must pass `verify_metric_axioms` here
/// too.
std::vector<PoweredInstance> dense_layout_cases(double alpha) {
  std::vector<PoweredInstance> cases;
  for (Instance& instance : fixture_instances()) {
    std::vector<double> powers = SqrtPower{}.assign(instance, alpha);
    cases.push_back({std::move(instance), std::move(powers)});
  }
  const auto [metrics, links, powers] = shared_node_fixture();
  for (const auto& metric : metrics) {
    const MetricCheckReport axioms = verify_metric_axioms(*metric);
    EXPECT_TRUE(axioms.ok) << metric->name() << ": " << axioms.violation;
    for (const std::size_t n : {1, 2, 63, 64, 65, 129}) {
      cases.push_back({Instance(metric, {links.begin(), links.begin() + n}),
                       {powers.begin(), powers.begin() + n}});
    }
  }
  Rng rng(4096);
  for (const std::size_t n : {256, 512}) {
    Instance instance = random_square(n, {}, rng);
    std::vector<double> powers = SqrtPower{}.assign(instance, alpha);
    cases.push_back({std::move(instance), std::move(powers)});
  }
  return cases;
}

TEST(DenseLayout, InterleavedCellsMatchTheFillerBitForBit) {
  // Width 1 (directed), width 2 (directed with sender gains) and the
  // bidirectional variant: every read of the interleaved buffer is the
  // filler's double, row walks sum it in column order, verdicts equal the
  // direct engine's, dense_row(j) holds row j's cells, rows lie an odd
  // number of 64-byte lines apart (so no row stride is a multiple of
  // 4 KiB; width * n + 8 doubles for the 4 KiB rows at 256 and 512
  // links), and the residency is those n padded rows plus the signals.
  // The build walks each pair {i, j} once in 64-link tiles and writes both
  // cells from one read of the endpoint distances, with one std::pow per
  // distinct min; the shared-node cases (+inf cells, equal mins, every
  // metric kind, sizes around a tile edge) exercise each of those paths.
  struct Layout {
    Variant variant;
    bool with_sender_gains;
    std::size_t width;
  };
  const Layout layouts[] = {{Variant::directed, false, 1},
                            {Variant::directed, true, 2},
                            {Variant::bidirectional, false, 2}};
  constexpr double kAlpha = 3.0;
  SinrParams params;
  params.alpha = kAlpha;
  const std::vector<PoweredInstance> cases = dense_layout_cases(kAlpha);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Instance& instance = cases[c].instance;
    const std::span<const double> powers = cases[c].powers;
    const std::size_t n = instance.size();
    for (const Layout& layout : layouts) {
      const GainMatrix dense(instance, powers, kAlpha, layout.variant,
                             layout.with_sender_gains, GainBackend::dense);
      const std::size_t pitch = ((n * layout.width + 7) / 8 | 1) * 8;
      if (n >= 2) {
        EXPECT_EQ(dense.dense_row(1).data() - dense.dense_row(0).data(),
                  static_cast<std::ptrdiff_t>(pitch));
      }
      EXPECT_EQ(dense.resident_doubles(), n + n * pitch);
      const bool sender_built = layout.width == 2;
      for (std::size_t j = 0; j < n; ++j) {
        const std::span<const double> row = dense.dense_row(j);
        ASSERT_EQ(row.size(), n * layout.width);
        for (std::size_t i = 0; i < n; ++i) {
          const double v = filler_entry(instance, powers, kAlpha, layout.variant, j, i, false);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(dense.at_v(j, i)),
                    std::bit_cast<std::uint64_t>(v))
              << "at_v(" << j << "," << i << ") width " << layout.width;
          const double u = sender_built ? filler_entry(instance, powers, kAlpha,
                                                       layout.variant, j, i, true)
                                        : 0.0;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(dense.at_u(j, i)),
                    std::bit_cast<std::uint64_t>(u))
              << "at_u(" << j << "," << i << ") width " << layout.width;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i * layout.width]),
                    std::bit_cast<std::uint64_t>(v))
              << "dense_row(" << j << ")[" << i << "] width " << layout.width;
          if (sender_built) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i * 2 + 1]),
                      std::bit_cast<std::uint64_t>(u))
                << "dense_row(" << j << ")[" << i << "] sender side";
          }
        }
      }
      // Row walks at stride width(), one add per slot in column order.
      for (const bool sender_side : {false, true}) {
        if (sender_side && !sender_built) continue;
        std::vector<double> got(n, 0.5);
        std::vector<double> want(n, 0.5);
        for (std::size_t j = 0; j < n; ++j) {
          dense.add_row_to(j, sender_side, j / 3, n - j / 4, got.data());
          for (std::size_t i = j / 3; i < n - j / 4; ++i) {
            want[i] += filler_entry(instance, powers, kAlpha, layout.variant, j, i,
                                    sender_side);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "slot " << i << " sender " << sender_side << " width " << layout.width;
        }
      }
      // check_feasible over the buffer equals the direct engine's report.
      Rng rng(4242);
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::size_t> subset;
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.uniform_index(3) == 0) subset.push_back(i);
        }
        const FeasibilityReport direct =
            check_feasible(instance.metric(), instance.requests(), powers, subset, params,
                           layout.variant);
        const FeasibilityReport tabled = check_feasible(dense, subset, params);
        EXPECT_EQ(direct.feasible, tabled.feasible);
        EXPECT_EQ(direct.worst_margin, tabled.worst_margin);
        EXPECT_EQ(direct.worst_request, tabled.worst_request);
      }
    }
  }
}

TEST(LinkLossMatrix, BothPhasesMatchThePerSlotLossBitForBit) {
  // loss_vu is filled as the transpose of loss_uv; each entry must still
  // be the loss the simulator would compute per slot.
  const SharedNodeFixture fixture = shared_node_fixture();
  const std::vector<Request>& links = fixture.links;
  constexpr double kAlpha = 2.5;
  for (const auto& metric : fixture.metrics) {
    const std::size_t n = links.size();
    const LinkLossMatrix losses(*metric, links, kAlpha, Variant::bidirectional);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const double uv = path_loss(metric->distance(links[j].u, links[i].v), kAlpha);
        const double vu = path_loss(metric->distance(links[j].v, links[i].u), kAlpha);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(losses.loss_uv(j, i)),
                  std::bit_cast<std::uint64_t>(uv))
            << metric->name() << " loss_uv(" << j << "," << i << ")";
        ASSERT_EQ(std::bit_cast<std::uint64_t>(losses.loss_vu(j, i)),
                  std::bit_cast<std::uint64_t>(vu))
            << metric->name() << " loss_vu(" << j << "," << i << ")";
      }
    }
  }
}

TEST(GainStorageUnits, AppendableRefreshLinkRewritesTheRowAndColumn) {
  // The filler reads shared mutable state — exactly how GainMatrix wires
  // it (fillers capture the request/power stores). After the state changes,
  // refresh_link(1) must rewrite link 1's row and column in place while
  // every other entry keeps its original value.
  const auto scale = std::make_shared<double>(1.0);
  const GainFiller fill = [scale](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : *scale * static_cast<double>(10 * j + i);
  };
  AppendableGainStorage appendable(4, fill);
  *scale = 3.0;
  appendable.refresh_link(1);
  // Row 1 and column 1 read the new state...
  EXPECT_EQ(appendable.at(1, 2), 36.0);
  EXPECT_EQ(appendable.at(2, 1), 63.0);
  EXPECT_EQ(appendable.at(1, 1), 0.0);
  // ...every other entry keeps the pre-refresh value.
  EXPECT_EQ(appendable.at(0, 2), 2.0);
  EXPECT_EQ(appendable.at(3, 2), 32.0);
}

}  // namespace
}  // namespace oisched
