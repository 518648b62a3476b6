// Layer microbenchmarks for the online scheduler's accumulators and the
// service's ingest path.
//
// Member-indexed classes store one filtered slot per member (a plain
// running sum and its forward error bound) and sum a candidate's own slot
// on demand, so an event costs O(class size). These timings take that
// cost apart:
//
//   * filtered member slots: a class of k members takes a link (its own
//     slot summed, one update per member slot), re-validates every member
//     with certified verdicts, and lets the link go again (one update per
//     member slot) — reported per slot touched;
//   * the dense table's build: one bidirectional n-link table, every cell
//     of both sides from the metric and std::pow;
//   * one gain entry: a load from the dense table, the computed backend's
//     inline Euclidean kernel (distances, std::pow, divide), and the
//     kernel's pow-free estimate the filter reads on that backend;
//   * exact summation of k gains, the filter's fallback: one ExactSum::add
//     per gain against ExactSum::sum_of;
//   * the exact own-slot gather-and-sum on the dense backend: read k
//     members' gain entries at one link (a table column, strided by n),
//     then sum them exactly with ExactSum::sum_of;
//   * the record-streamed own slot on the tableless computed backend:
//     k kernel estimates at one link over a class's contiguous member
//     records (no link -> request -> point gather), plain-summed;
//   * IncrementalGainClass::can_add on a class of k members: the member
//     scan and the own-slot sum together, directed on both backends and
//     bidirectional on both (dense reads both gains of a pair from one
//     interleaved cell; computed is the benchmark's scale workload), over
//     a 4096-link universe and a 4000-link one: the own-slot sum reads a
//     table column, and the second size tells a power-of-two table width
//     apart from the table's size;
//   * the service's ingest spine: an MpscQueue push per event and one
//     drain per batch, and the LatencyHistogram::observe every event pays.
//
//   ./build/bench/bench_layers --benchmark_min_time=0.2
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/power_assignment.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "sinr/gain_matrix.h"
#include "util/exact_sum.h"
#include "util/mpsc_queue.h"
#include "util/rng.h"

namespace {

using namespace oisched;

constexpr std::uint64_t kSeed = 20090810;
constexpr std::size_t kUniverse = 4096;

/// k gains spread over six decades, like the interference a class sees.
std::vector<double> gain_row(std::size_t k, Rng& rng) {
  std::vector<double> row(k);
  for (double& x : row) x = std::pow(10.0, rng.uniform(-9.0, -3.0));
  return row;
}

/// The summation half of an own-slot sum, on k gains already in cache:
/// one add() per gain against ExactSum::sum_of.
void BM_ExactSumOfGains(benchmark::State& state, bool batched) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(kSeed);
  const std::vector<double> gains = gain_row(k, rng);
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(ExactSum::sum_of(gains).value());
    } else {
      ExactSum sum;
      for (const double x : gains) sum.add(x);
      benchmark::DoNotOptimize(sum.value());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK_CAPTURE(BM_ExactSumOfGains, add_loop, false)->Arg(16)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_ExactSumOfGains, sum_of, true)->Arg(16)->Arg(256)->Arg(1024);

/// A random-square universe (4096 links unless told otherwise) with
/// square-root powers and k distinct random members; the rest of the
/// universe are candidates.
struct ClassFixture {
  explicit ClassFixture(std::size_t k, GainBackend backend,
                        Variant variant = Variant::directed,
                        std::size_t universe = kUniverse)
      : instance(make_instance(universe)),
        powers(SqrtPower{}.assign(instance, params.alpha)),
        gains(instance, powers, params.alpha, variant,
              /*with_sender_gains=*/false, backend) {
    std::vector<std::size_t> order(instance.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(kSeed + 1);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    members.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
    candidates.assign(order.begin() + static_cast<std::ptrdiff_t>(k), order.end());
  }

  static Instance make_instance(std::size_t universe) {
    Rng rng(kSeed);
    return random_square(universe, {}, rng);
  }

  SinrParams params;
  Instance instance;
  std::vector<double> powers;
  GainMatrix gains;
  std::vector<std::size_t> members;
  std::vector<std::size_t> candidates;
};

enum class EntryRead { dense_load, exact_kernel, estimate };

/// One receiver-side gain per item, at random (j, i) pairs of the
/// universe: what a member scan pays per member.
void BM_GainEntry(benchmark::State& state, EntryRead read) {
  const ClassFixture fixture(0, read == EntryRead::dense_load ? GainBackend::dense
                                                              : GainBackend::computed);
  const GainMatrix& gains = fixture.gains;
  const EuclideanGainKernel* kernel = gains.euclidean_kernel();
  Rng rng(kSeed + 2);
  std::vector<std::pair<std::size_t, std::size_t>> pairs(4096);
  for (auto& [j, i] : pairs) {
    j = rng.uniform_index(kUniverse);
    i = rng.uniform_index(kUniverse);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto [j, i] = pairs[next++ % pairs.size()];
    benchmark::DoNotOptimize(read == EntryRead::estimate
                                 ? kernel->estimate(j, i, /*sender_side=*/false)
                                 : gains.at_v(j, i));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_GainEntry, dense_load, EntryRead::dense_load);
BENCHMARK_CAPTURE(BM_GainEntry, exact_kernel, EntryRead::exact_kernel);
BENCHMARK_CAPTURE(BM_GainEntry, estimate, EntryRead::estimate);

/// The dense table's build on a bidirectional random-square universe of
/// n links (sqrt powers): both sides of every cell, n^2 cells per
/// iteration.
void BM_DenseBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(kSeed);
  const Instance instance = random_square(n, {}, rng);
  const SinrParams params;
  const std::vector<double> powers = SqrtPower{}.assign(instance, params.alpha);
  for (auto _ : state) {
    const GainMatrix gains(instance, powers, params.alpha, Variant::bidirectional,
                           /*with_sender_gains=*/false, GainBackend::dense);
    benchmark::DoNotOptimize(gains.at_v(n - 1, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n * n));
}
BENCHMARK(BM_DenseBuild)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_OwnSlotGatherSum(benchmark::State& state, GainBackend backend) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const ClassFixture fixture(k, backend);
  std::vector<double> gathered(k);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t link = fixture.candidates[next++ % fixture.candidates.size()];
    for (std::size_t p = 0; p < k; ++p) {
      gathered[p] = fixture.gains.at_v(fixture.members[p], link);
    }
    benchmark::DoNotOptimize(ExactSum::sum_of(gathered).value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK_CAPTURE(BM_OwnSlotGatherSum, dense, GainBackend::dense)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

/// The plain own-slot sum an exact class streams on a computed Euclidean
/// matrix: one pow-free kernel estimate per member record at the link's
/// receiver, summed in member order.
void BM_OwnSlotStreamedSum(benchmark::State& state, GainBackend backend) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const ClassFixture fixture(k, backend);
  SinrParams params = fixture.params;
  params.beta = 1e-300;  // every member joins
  IncrementalGainClass cls(fixture.gains, params, RemovePolicy::exact);
  for (const std::size_t m : fixture.members) cls.add(m);
  const EuclideanGainKernel kernel = *fixture.gains.euclidean_kernel();
  const std::span<const MemberRecord> records = cls.records();
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t link = fixture.candidates[next++ % fixture.candidates.size()];
    const Point& target = kernel.points[kernel.requests[link].v];
    double sum = 0.0;
    for (const MemberRecord& record : records) {
      sum += kernel.estimate(record.u, record.v, record.power, target);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK_CAPTURE(BM_OwnSlotStreamedSum, computed, GainBackend::computed)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

/// can_add on a class of k = range(0) members over a universe of
/// range(1) links.
void BM_CanAdd(benchmark::State& state, GainBackend backend, Variant variant) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto universe = static_cast<std::size_t>(state.range(1));
  const ClassFixture fixture(k, backend, variant, universe);
  // A vanishing SINR threshold, so every member joins and every candidate
  // runs the full member scan plus the own-slot sum.
  SinrParams params = fixture.params;
  params.beta = 1e-300;
  IncrementalGainClass cls(fixture.gains, params, RemovePolicy::exact);
  for (const std::size_t m : fixture.members) cls.add(m);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t link = fixture.candidates[next++ % fixture.candidates.size()];
    benchmark::DoNotOptimize(cls.can_add(link));
  }
}
BENCHMARK_CAPTURE(BM_CanAdd, dense, GainBackend::dense, Variant::directed)
    ->ArgsProduct({{16, 64, 256, 1024}, {kUniverse, 4000}});
BENCHMARK_CAPTURE(BM_CanAdd, dense_bidirectional, GainBackend::dense, Variant::bidirectional)
    ->ArgsProduct({{16, 64, 256, 1024}, {kUniverse, 4000}});
BENCHMARK_CAPTURE(BM_CanAdd, computed, GainBackend::computed, Variant::directed)
    ->ArgsProduct({{16, 64, 256, 1024}, {kUniverse, 4000}});
BENCHMARK_CAPTURE(BM_CanAdd, computed_bidirectional, GainBackend::computed,
                  Variant::bidirectional)
    ->ArgsProduct({{16, 64, 256, 1024}, {kUniverse, 4000}});

/// One iteration: add a link to a class of k members (its own slot plus
/// k member-slot updates), re-validate the k + 1 members with certified
/// verdicts, and remove the link (k member-slot updates). Items are slot
/// operations, so the rate reads as time per slot.
void BM_FilteredMemberSlots(benchmark::State& state, GainBackend backend) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const ClassFixture fixture(k, backend);
  SinrParams params = fixture.params;
  params.beta = 1e-300;  // every member joins; verdicts certify at once
  IncrementalGainClass cls(fixture.gains, params, RemovePolicy::exact);
  for (const std::size_t m : fixture.members) cls.add(m);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t link = fixture.candidates[next++ % fixture.candidates.size()];
    cls.add(link);
    benchmark::DoNotOptimize(cls.members_feasible());
    cls.remove(link);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * (3 * k + 2)));
  state.counters["fallbacks"] = static_cast<double>(cls.exact_fallbacks());
}
BENCHMARK_CAPTURE(BM_FilteredMemberSlots, dense, GainBackend::dense)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

/// A batch of pushes from one producer, then the consumer's one drain —
/// the per-event cost of the service's ingest queue without contention.
void BM_MpscPushDrain(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  MpscQueue<std::size_t> queue;
  std::vector<std::size_t> drained;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) benchmark::DoNotOptimize(queue.push(i));
    benchmark::DoNotOptimize(queue.try_drain(drained));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_MpscPushDrain)->Arg(1)->Arg(16)->Arg(256);

/// Event latencies spread over 1 us .. 10 ms, observed one per item.
void BM_HistogramObserve(benchmark::State& state) {
  Rng rng(kSeed);
  std::vector<double> samples(4096);
  for (double& x : samples) x = std::pow(10.0, rng.uniform(-6.0, -2.0));
  obs::LatencyHistogram histogram;
  std::size_t next = 0;
  for (auto _ : state) {
    histogram.observe(samples[next++ % samples.size()]);
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
