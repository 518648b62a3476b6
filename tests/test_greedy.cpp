// Tests for greedy first-fit coloring (fixed powers and power control).
#include <gtest/gtest.h>

#include <memory>

#include "core/greedy.h"
#include "core/power_assignment.h"
#include "gen/generators.h"
#include "metric/euclidean.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace oisched {
namespace {

TEST(OrderedIndices, OrdersByLength) {
  // Lengths 5, 1, 3.
  const Instance inst = testutil::line_pairs({0, 5, 10, 11, 20, 23}).instance();
  EXPECT_EQ(ordered_indices(inst, RequestOrder::as_given),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(ordered_indices(inst, RequestOrder::longest_first),
            (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(ordered_indices(inst, RequestOrder::shortest_first),
            (std::vector<std::size_t>{1, 2, 0}));
}

/// Greedy must produce a complete, valid schedule for every combination of
/// generator, variant and assignment in this sweep.
class GreedyValidity
    : public ::testing::TestWithParam<std::tuple<int, Variant, int>> {};

TEST_P(GreedyValidity, SchedulesAreValid) {
  const auto [generator, variant, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 997 + 13);
  Instance inst = [&] {
    switch (generator) {
      case 0:
        return random_square(24, {}, rng);
      case 1:
        return clustered(24, {}, rng);
      default:
        return nested_chain(12, 2.0, 3.0);
    }
  }();
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  for (const auto& assignment : standard_assignments()) {
    const auto powers = assignment->assign(inst, params.alpha);
    const Schedule schedule = greedy_coloring(inst, powers, params, variant);
    const auto report = validate_schedule(inst, powers, schedule, params, variant);
    EXPECT_TRUE(report.valid) << assignment->name();
    EXPECT_GE(schedule.num_colors, 1);
    EXPECT_LE(schedule.num_colors, static_cast<int>(inst.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyValidity,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(Variant::directed, Variant::bidirectional),
                       ::testing::Range(1, 4)));

TEST(Greedy, SeparatedPairsShareOneColor) {
  const Instance inst = testutil::line_pairs({0, 1, 1000, 1001, 2000, 2001}).instance();
  SinrParams params;
  const auto powers = UniformPower{}.assign(inst, params.alpha);
  const Schedule s = greedy_coloring(inst, powers, params, Variant::directed);
  EXPECT_EQ(s.num_colors, 1);
}

TEST(Greedy, NestedChainSeparatesUnderUniformPower) {
  // Section 1.2: under uniform power, nested requests cannot share colors;
  // greedy must use nearly n colors.
  const Instance inst = nested_chain(10, 2.0, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto uniform = UniformPower{}.assign(inst, params.alpha);
  const Schedule s_uniform =
      greedy_coloring(inst, uniform, params, Variant::bidirectional);
  const auto sqrt_powers = SqrtPower{}.assign(inst, params.alpha);
  const Schedule s_sqrt =
      greedy_coloring(inst, sqrt_powers, params, Variant::bidirectional);
  EXPECT_GT(s_uniform.num_colors, s_sqrt.num_colors);
  EXPECT_LE(s_sqrt.num_colors, 4);  // constant for the square root
}

TEST(GreedyPowerControl, ValidSchedulesWithWitnessPowers) {
  Rng rng(5);
  const Instance inst = random_square(16, {}, rng);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    const PowerControlColoring result =
        greedy_power_control_coloring(inst, params, variant);
    EXPECT_TRUE(result.schedule.complete());
    const auto report = validate_schedule_classwise(inst, result.class_powers,
                                                    result.schedule, params, variant);
    EXPECT_TRUE(report.valid);
  }
}

TEST(GreedyPowerControl, NeverWorseThanBestObliviousOnNestedChain) {
  const Instance inst = nested_chain(9, 2.0, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const PowerControlColoring pc =
      greedy_power_control_coloring(inst, params, Variant::bidirectional);
  int best_oblivious = static_cast<int>(inst.size()) + 1;
  for (const auto& assignment : standard_assignments()) {
    const auto powers = assignment->assign(inst, params.alpha);
    const Schedule s = greedy_coloring(inst, powers, params, Variant::bidirectional);
    best_oblivious = std::min(best_oblivious, s.num_colors);
  }
  EXPECT_LE(pc.schedule.num_colors, best_oblivious);
}

TEST(Greedy, ParallelScanIsBitIdenticalToSequentialOnEveryEngine) {
  Rng rng(4242);
  const Instance inst = random_square(28, {}, rng);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto assignments = standard_assignments();
  const auto powers = assignments.front()->assign(inst, params.alpha);
  for (const Variant variant : {Variant::directed, Variant::bidirectional}) {
    for (const FeasibilityEngine engine :
         {FeasibilityEngine::direct, FeasibilityEngine::gain_matrix}) {
      const Schedule sequential =
          greedy_coloring(inst, powers, params, variant, RequestOrder::longest_first,
                          engine, GainBackend::dense, /*scan_threads=*/1);
      const Schedule parallel =
          greedy_coloring(inst, powers, params, variant, RequestOrder::longest_first,
                          engine, GainBackend::dense, /*scan_threads=*/3);
      EXPECT_EQ(sequential.color_of, parallel.color_of)
          << "engine " << static_cast<int>(engine);
      EXPECT_EQ(sequential.num_colors, parallel.num_colors);
    }
  }
  // The tableless backend goes through the same scan: its entries are
  // evaluated on demand from const stores, so probing extra classes
  // concurrently must not shift a single color.
  const Schedule computed_seq =
      greedy_coloring(inst, powers, params, Variant::bidirectional,
                      RequestOrder::longest_first, FeasibilityEngine::gain_matrix,
                      GainBackend::computed, /*scan_threads=*/1);
  const Schedule computed_par =
      greedy_coloring(inst, powers, params, Variant::bidirectional,
                      RequestOrder::longest_first, FeasibilityEngine::gain_matrix,
                      GainBackend::computed, /*scan_threads=*/3);
  EXPECT_EQ(computed_seq.color_of, computed_par.color_of);
}

TEST(Greedy, PowerVectorSizeIsChecked) {
  Rng rng(6);
  const Instance inst = random_square(4, {}, rng);
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW((void)greedy_coloring(inst, wrong, SinrParams{}, Variant::directed),
               PreconditionError);
}

}  // namespace
}  // namespace oisched
