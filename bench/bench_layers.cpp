// Layer microbenchmarks for the online scheduler's exact accumulators.
//
// Member-indexed classes store one exact slot per member and sum a
// candidate's own slot on demand, so an event costs O(class size). These
// timings take that cost apart:
//
//   * member-slot update plus rounded readout — one add or subtract per
//     member slot, then the correctly rounded value — for the two slot
//     layouts: a vector<ExactSum> and a member-sized ExactSumBank, whose
//     fused add-round returns the readout from registers;
//   * exact summation of k gains: one ExactSum::add per gain against
//     ExactSum::sum_of;
//   * the own-slot gather-and-sum: read k members' gains at one link (a
//     table column, strided by n on the dense backend; a filler call per
//     entry on the tableless computed backend), then sum them exactly
//     with ExactSum::sum_of;
//   * IncrementalGainClass::can_add on a class of k members: the member
//     scan and the own-slot sum together.
//
//   ./build/bench/bench_layers --benchmark_min_time=0.2
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/power_assignment.h"
#include "gen/generators.h"
#include "sinr/gain_matrix.h"
#include "util/exact_bank.h"
#include "util/exact_sum.h"
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

/// Slots holding the sum of k/2 gains each, so expansions carry the
/// multi-component state of a populated class.
template <typename AddFn>
void prefill(std::size_t k, Rng& rng, AddFn add) {
  for (std::size_t round = 0; round < k / 2 + 1; ++round) {
    const std::vector<double> row = gain_row(k, rng);
    for (std::size_t p = 0; p < k; ++p) add(p, row[p]);
  }
}

// One benchmark iteration applies a member's row to every slot (add on
// even iterations, subtract on odd ones, so the state stays bounded) and
// publishes each slot's rounded value.

void BM_MemberSlotsExactSumVector(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(kSeed);
  std::vector<ExactSum> slots(k);
  prefill(k, rng, [&](std::size_t p, double x) { slots[p].add(x); });
  const std::vector<double> row = gain_row(k, rng);
  std::vector<double> readout(k);
  bool subtract = false;
  for (auto _ : state) {
    for (std::size_t p = 0; p < k; ++p) {
      if (subtract) {
        slots[p].subtract(row[p]);
      } else {
        slots[p].add(row[p]);
      }
      readout[p] = slots[p].value();
    }
    subtract = !subtract;
    benchmark::DoNotOptimize(readout.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK(BM_MemberSlotsExactSumVector)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MemberSlotsBank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(kSeed);
  ExactSumBank bank;
  bank.resize(k);
  prefill(k, rng, [&](std::size_t p, double x) { (void)bank.add(p, x); });
  const std::vector<double> row = gain_row(k, rng);
  std::vector<double> readout(k);
  bool subtract = false;
  for (auto _ : state) {
    for (std::size_t p = 0; p < k; ++p) {
      readout[p] = subtract ? bank.subtract(p, row[p]) : bank.add(p, row[p]);
    }
    subtract = !subtract;
    benchmark::DoNotOptimize(readout.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK(BM_MemberSlotsBank)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

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

/// A 4096-link random-square universe with square-root powers and k
/// distinct random members; the rest of the universe are candidates.
struct ClassFixture {
  explicit ClassFixture(std::size_t k, GainBackend backend)
      : instance(make_instance()),
        powers(SqrtPower{}.assign(instance, params.alpha)),
        gains(instance, powers, params.alpha, Variant::directed,
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

  static Instance make_instance() {
    Rng rng(kSeed);
    return random_square(kUniverse, {}, rng);
  }

  SinrParams params;
  Instance instance;
  std::vector<double> powers;
  GainMatrix gains;
  std::vector<std::size_t> members;
  std::vector<std::size_t> candidates;
};

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
BENCHMARK_CAPTURE(BM_OwnSlotGatherSum, computed, GainBackend::computed)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

void BM_CanAdd(benchmark::State& state, GainBackend backend) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const ClassFixture fixture(k, backend);
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
BENCHMARK_CAPTURE(BM_CanAdd, dense, GainBackend::dense)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_CanAdd, computed, GainBackend::computed)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
