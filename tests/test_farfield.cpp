// Far-field aggregation suite: SpatialIndex distance-bound conservatism,
// FarFieldContext gain-bound conservatism and bookkeeping, and the
// bit-identity gate of bound-gated feasibility tests — a class consulting
// far-field aggregates must make exactly the decisions an exact-only class
// makes, across backends, traces and variants, with the exact fallback
// firing only when the bounds straddle the SINR threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/power_assignment.h"
#include "gen/churn.h"
#include "online/online_scheduler.h"
#include "sinr/farfield.h"
#include "sinr/gain_matrix.h"
#include "sinr/spatial_index.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::line_pairs;
using testutil::random_scenario;

std::vector<Variant> both_variants() {
  return {Variant::directed, Variant::bidirectional};
}

TEST(SpatialIndex, DistanceBoundsBracketEveryPointPair) {
  for (const std::size_t target : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    const auto scenario = random_scenario(48, /*seed=*/7);
    const auto& points = scenario.metric->points();
    const SpatialIndex grid(points, target);
    ASSERT_GE(grid.num_cells(), 1u);
    for (std::size_t a = 0; a < points.size(); ++a) {
      const std::size_t ca = grid.cell_of(points[a]);
      ASSERT_LT(ca, grid.num_cells());
      for (std::size_t b = 0; b < points.size(); ++b) {
        const std::size_t cb = grid.cell_of(points[b]);
        const double d = scenario.metric->distance(a, b);
        EXPECT_LE(grid.min_distance(ca, cb), d)
            << "target " << target << " pair " << a << "," << b;
        EXPECT_GE(grid.max_distance(ca, cb), d)
            << "target " << target << " pair " << a << "," << b;
      }
    }
  }
}

TEST(SpatialIndex, DegenerateGeometriesCollapseGracefully) {
  // A line collapses the flat axis to one cell...
  const auto line = line_pairs({0.0, 1.0, 500.0, 501.0, 999.0, 1000.0});
  const SpatialIndex line_grid(line.metric->points(), 16);
  EXPECT_EQ(line_grid.cells_y(), 1u);
  EXPECT_GT(line_grid.cells_x(), 1u);
  // ...and coincident points become a single everything-near cell.
  const std::vector<Point> one{{3.0, 4.0, 0.0}, {3.0, 4.0, 0.0}};
  const SpatialIndex point_grid(one, 64);
  EXPECT_EQ(point_grid.num_cells(), 1u);
  EXPECT_EQ(point_grid.cell_of(one[0]), 0u);
  EXPECT_EQ(point_grid.min_distance(0, 0), 0.0);
}

TEST(FarFieldContext, GainBoundsBracketTheExactTables) {
  const auto scenario = random_scenario(40, /*seed=*/11);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  for (const Variant variant : both_variants()) {
    const GainMatrix gains(instance, powers, 3.0, variant);
    FarFieldOptions options;
    options.target_cells = 32;
    const FarFieldContext ctx(scenario.metric, scenario.requests, powers, 3.0, variant,
                              options);
    ASSERT_EQ(ctx.size(), instance.size());
    for (std::size_t j = 0; j < instance.size(); ++j) {
      // A link is always near its own endpoint cells: self-interference
      // can never leak into a far aggregate.
      EXPECT_TRUE(ctx.is_near(j, ctx.cell_v(j)));
      EXPECT_TRUE(ctx.is_near(j, ctx.cell_u(j)));
      for (std::size_t i = 0; i < instance.size(); ++i) {
        const std::size_t cell = ctx.cell_v(i);
        if (ctx.is_near(j, cell)) continue;
        const double gain = gains.at_v(j, i);
        EXPECT_LE(ctx.bound_lo(j, cell), gain) << "link " << j << " at " << i;
        EXPECT_GE(ctx.bound_hi(j, cell), gain) << "link " << j << " at " << i;
        EXPECT_LT(ctx.bound_hi(j, cell), std::numeric_limits<double>::infinity());
      }
    }
  }
}

TEST(FarFieldContext, SlotListsTrackUpdates) {
  const auto scenario = random_scenario(16, /*seed=*/3);
  const auto powers = SqrtPower{}.assign(scenario.instance(), 3.0);
  FarFieldContext ctx(scenario.metric, scenario.requests, powers, 3.0,
                      Variant::directed, {/*target_cells=*/16, /*near_radius=*/1});
  // Every slot appears exactly once in the v-lists and once in the u-lists.
  std::vector<int> seen_v(ctx.size(), 0), seen_u(ctx.size(), 0);
  for (std::size_t cell = 0; cell < ctx.num_cells(); ++cell) {
    for (const std::size_t s : ctx.slots_v(cell)) {
      EXPECT_EQ(ctx.cell_v(s), cell);
      ++seen_v[s];
    }
    for (const std::size_t s : ctx.slots_u(cell)) {
      EXPECT_EQ(ctx.cell_u(s), cell);
      ++seen_u[s];
    }
  }
  for (std::size_t s = 0; s < ctx.size(); ++s) {
    EXPECT_EQ(seen_v[s], 1) << s;
    EXPECT_EQ(seen_u[s], 1) << s;
  }
  // Moving a link re-files it under its new cells.
  const Request moved = scenario.requests[1];
  ctx.update_link(0, moved, powers[1]);
  EXPECT_EQ(ctx.cell_v(0), ctx.cell_v(1));
  EXPECT_EQ(ctx.cell_u(0), ctx.cell_u(1));
  // Growth mirrors GainMatrix::append_request.
  ctx.append_link(scenario.requests[2], powers[2]);
  EXPECT_EQ(ctx.size(), scenario.requests.size() + 1);
  EXPECT_EQ(ctx.cell_v(ctx.size() - 1), ctx.cell_v(2));
}

/// Random add/remove/can_add churn on one class pair: far-field mode vs
/// exact-only, every verdict compared. The far class's decisions must be a
/// pure function of the member set — identical to the exact-only twin's.
void run_class_differential(const testutil::Scenario& scenario, Variant variant,
                            std::size_t target_cells, std::uint64_t seed) {
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const GainMatrix gains(instance, powers, params.alpha, variant);
  FarFieldOptions options;
  options.target_cells = target_cells;
  const FarFieldContext ctx(scenario.metric, scenario.requests, powers, params.alpha,
                            variant, options);
  IncrementalGainClass far_cls(gains, params, RemovePolicy::exact, &ctx);
  IncrementalGainClass exact_cls(gains, params, RemovePolicy::exact);
  Rng rng(seed);
  std::vector<std::size_t> in_class;
  const std::string context =
      std::string(variant == Variant::directed ? "directed" : "bidirectional") +
      "/cells" + std::to_string(target_cells);
  for (int step = 0; step < 300; ++step) {
    if (!in_class.empty() && rng.bernoulli(0.4)) {
      const std::size_t pos = rng.uniform_index(in_class.size());
      const std::size_t victim = in_class[pos];
      in_class.erase(in_class.begin() + static_cast<std::ptrdiff_t>(pos));
      far_cls.remove(victim);
      exact_cls.remove(victim);
    } else {
      const std::size_t cand = rng.uniform_index(instance.size());
      if (far_cls.contains(cand)) continue;
      const bool far_verdict = far_cls.can_add(cand);
      const bool exact_verdict = exact_cls.can_add(cand);
      ASSERT_EQ(far_verdict, exact_verdict)
          << context << " step " << step << " candidate " << cand;
      if (far_verdict) {
        far_cls.add(cand);
        exact_cls.add(cand);
        in_class.push_back(cand);
      }
    }
    ASSERT_EQ(far_cls.members(), exact_cls.members()) << context << " step " << step;
    ASSERT_EQ(far_cls.members_feasible(), exact_cls.members_feasible())
        << context << " step " << step;
  }
  // The layer actually worked: bounds answered some tests outright.
  EXPECT_GT(ctx.bound_hits(), 0u) << context;
}

TEST(IncrementalGainClassFarField, VerdictsMatchExactOnlyUnderChurn) {
  const auto scenario = random_scenario(48, /*seed=*/123);
  std::uint64_t seed = 900;
  for (const Variant variant : both_variants()) {
    for (const std::size_t cells : {std::size_t{16}, std::size_t{64}}) {
      run_class_differential(scenario, variant, cells, seed++);
    }
  }
}

TEST(IncrementalGainClassFarField, StraddlingBoundsFireTheExactFallback) {
  // Two clusters ~1000 apart on a line, 32 cells: the far cluster's gain
  // bounds at the near cluster's cell are finite, positive and strictly
  // ordered. Choosing beta so the SINR threshold lands strictly between
  // them forces the bound gate into its inconclusive case — the exact
  // fallback must fire, and the verdict must still equal the exact-only
  // twin's bit for bit.
  const auto scenario =
      line_pairs({0.0, 1.0, 2.0, 3.0, 1000.0, 1001.0, 1002.0, 1003.0});
  const Instance instance = scenario.instance();
  const std::vector<double> powers(instance.size(), 1.0);
  const double alpha = 3.0;
  const GainMatrix gains(instance, powers, alpha, Variant::directed);
  FarFieldOptions options;
  options.target_cells = 32;
  const FarFieldContext ctx(scenario.metric, scenario.requests, powers, alpha,
                            Variant::directed, options);
  // Link 2 ([1000,1001]) is far from link 0's receiver cell.
  const std::size_t cell = ctx.cell_v(0);
  ASSERT_FALSE(ctx.is_near(2, cell));
  const double lo = ctx.bound_lo(2, cell);
  const double hi = ctx.bound_hi(2, cell);
  ASSERT_GT(lo, 0.0);
  ASSERT_LT(lo, hi);
  const double signal = gains.signal(0);
  SinrParams params;
  params.alpha = alpha;
  // Threshold at the geometric mean of the bounds: beta * lo < signal <
  // beta * hi, so neither certification can succeed.
  params.beta = signal / std::sqrt(lo * hi);
  IncrementalGainClass far_cls(gains, params, RemovePolicy::exact, &ctx);
  IncrementalGainClass exact_cls(gains, params, RemovePolicy::exact);
  far_cls.add(0);
  exact_cls.add(0);
  const std::uint64_t fallbacks_before = ctx.exact_fallbacks();
  const bool far_verdict = far_cls.can_add(2);
  const bool exact_verdict = exact_cls.can_add(2);
  EXPECT_EQ(far_verdict, exact_verdict);
  EXPECT_GT(ctx.exact_fallbacks(), fallbacks_before);
}

TEST(IncrementalGainClassFarField, RequiresExactPolicyAndMatchingContext) {
  const auto scenario = random_scenario(8, /*seed=*/5);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  const GainMatrix gains(instance, powers, params.alpha, Variant::directed);
  const FarFieldContext ctx(scenario.metric, scenario.requests, powers, params.alpha,
                            Variant::directed, {/*target_cells=*/8, /*near_radius=*/1});
  EXPECT_THROW(IncrementalGainClass(gains, params, RemovePolicy::rebuild, &ctx),
               PreconditionError);
  const FarFieldContext wrong_variant(scenario.metric, scenario.requests, powers,
                                      params.alpha, Variant::bidirectional,
                                      {/*target_cells=*/8, /*near_radius=*/1});
  EXPECT_THROW(IncrementalGainClass(gains, params, RemovePolicy::exact, &wrong_variant),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Scheduler-level differential: far-field on vs off, whole traces.

/// Replays `trace` twice — far-field mode against the plain exact path —
/// and demands bit-identical final schedules, color counts and margins.
ReplayResult run_scheduler_differential(
    const Instance& instance, const ChurnTrace& trace, GainBackend backend,
    std::shared_ptr<const PowerAssignment> fresh_power, std::size_t target_cells,
    const char* context) {
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = backend;
  options.fresh_power = std::move(fresh_power);
  options.mobility = trace.has_link_updates();
  OnlineSchedulerOptions far_options = options;
  far_options.farfield = true;
  far_options.farfield_options.target_cells = target_cells;
  OnlineScheduler far(instance, powers, params, Variant::bidirectional, far_options);
  OnlineScheduler exact(instance, powers, params, Variant::bidirectional, options);
  const ReplayResult far_result = replay_trace(far, trace);
  const ReplayResult exact_result = replay_trace(exact, trace);
  EXPECT_TRUE(far_result.validated) << context;
  EXPECT_TRUE(exact_result.validated) << context;
  EXPECT_EQ(far_result.final_schedule.color_of, exact_result.final_schedule.color_of)
      << context;
  EXPECT_EQ(far_result.final_colors, exact_result.final_colors) << context;
  EXPECT_EQ(far_result.final_worst_margin, exact_result.final_worst_margin) << context;
  EXPECT_EQ(far_result.final_active, exact_result.final_active) << context;
  EXPECT_GT(far_result.stats.bound_hits + far_result.stats.exact_fallbacks, 0u)
      << context;
  EXPECT_EQ(exact_result.stats.bound_hits, 0u) << context;
  return far_result;
}

TEST(OnlineSchedulerFarField, DifferentialFuzzAcrossTracesAndBackends) {
  const auto scenario = random_scenario(48, /*seed=*/321);
  const Instance instance = scenario.instance();
  for (const std::string kind : {"poisson", "flash", "adversarial"}) {
    for (const GainBackend backend :
         {GainBackend::dense, GainBackend::tiled, GainBackend::appendable,
          GainBackend::computed}) {
      Rng rng(1300 + static_cast<std::uint64_t>(backend));
      const ChurnTrace trace =
          make_churn_trace(kind, instance.size(), /*target_events=*/600, rng);
      const std::string context = kind + "/" + to_string(backend);
      (void)run_scheduler_differential(instance, trace, backend, nullptr,
                                       /*target_cells=*/32, context.c_str());
    }
  }
}

TEST(OnlineSchedulerFarField, DifferentialFuzzOnMobilityTraces) {
  // Mobility is the bound-refresh stressor: every link_update moves a
  // link between cells, forcing far aggregates in every class to shed the
  // stale bounds and absorb the new ones mid-replay.
  const auto scenario = random_scenario(40, /*seed=*/99);
  const Instance instance = scenario.instance();
  std::uint64_t seed = 4200;
  for (const std::string kind : {"waypoint", "flashmob"}) {
    for (const GainBackend backend : {GainBackend::dense, GainBackend::computed}) {
      Rng rng(seed++);
      const ChurnTrace trace =
          make_churn_trace(kind, instance.size(), /*target_events=*/400, rng,
                           /*fresh_links=*/{}, &instance.metric(),
                           instance.requests());
      ASSERT_TRUE(trace.has_link_updates()) << kind;
      const std::string context = kind + "/" + to_string(backend);
      const ReplayResult result = run_scheduler_differential(
          instance, trace, backend, std::make_shared<SqrtPower>(),
          /*target_cells=*/32, context.c_str());
      EXPECT_GT(result.stats.link_updates, 0u) << context;
    }
  }
}

TEST(OnlineSchedulerFarField, DifferentialFuzzOnGrowingTraces) {
  const auto scenario = random_scenario(40, /*seed=*/77);
  const Instance full = scenario.instance();
  const std::size_t n0 = full.size() / 2;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  Rng rng(2027);
  const ChurnTrace trace =
      make_churn_trace("growing", n0, /*target_events=*/600, rng, all.subspan(n0));
  const ReplayResult result = run_scheduler_differential(
      base, trace, GainBackend::appendable, std::make_shared<SqrtPower>(),
      /*target_cells=*/32, "growing/appendable");
  EXPECT_GT(result.stats.fresh_links, 0u);
}

TEST(OnlineSchedulerFarField, GuardsItsPreconditions) {
  const auto scenario = random_scenario(8, /*seed=*/2);
  const Instance instance = scenario.instance();
  SinrParams params;
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  OnlineSchedulerOptions options;
  options.farfield = true;
  options.remove_policy = RemovePolicy::rebuild;
  EXPECT_THROW(
      OnlineScheduler(instance, powers, params, Variant::directed, options),
      PreconditionError);
}

}  // namespace
}  // namespace oisched
