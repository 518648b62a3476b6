// Benchmark-owned workload inputs: link geometry and event streams.
//
// Every point and every event the benchmark feeds the scheduler is made
// here, from the run's --seed, with a private generator. The program under
// test receives only the finished Instance and ChurnEvents, so an edit to
// the library's own generators (src/gen, util/rng) cannot silently change
// the traffic a measurement runs on.
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/churn.h"
#include "metric/euclidean.h"
#include "sinr/model.h"

namespace perfbench {

/// splitmix64 stream: small, fast and fully specified here, so inputs are
/// identical on every platform and library version.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double uniform() noexcept;
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  /// Uniform in [0, n); n > 0.
  std::size_t index(std::size_t n) noexcept;
  /// Exponential with the given mean.
  double exponential(double mean) noexcept;

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for one purpose of one run.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) noexcept;

/// Links in a square: senders uniform, receivers at a uniform angle and a
/// log-uniform length in [1, 64] — the library's "random square" shape.
/// Request i joins points 2i and 2i + 1.
struct LinkSet {
  std::vector<oisched::Point> points;
  std::vector<oisched::Request> requests;
};
LinkSet square_links(std::size_t n, double side, BenchRng& rng);

/// An event stream whose first `warmup` events fill the universe to its
/// steady state and are applied untimed.
struct EventStream {
  std::vector<oisched::ChurnEvent> events;
  std::size_t warmup = 0;
  /// Links that moved at least once, with their lengths before the first
  /// and after the last move (mobility streams only).
  std::vector<double> moved_initial_length;
  std::vector<double> moved_final_length;
};

struct ChurnShape {
  /// Start in steady state: half the links, chosen at random, arrive at
  /// t = 0 as the untimed warm-up. Otherwise the stream starts empty and
  /// every event is timed.
  bool stationary_start = true;
  std::size_t timed_events = 0;
};

/// Poisson arrivals over the inactive links at rate n / 16 with
/// exponential holding times of mean 8, so half the universe is active in
/// steady state.
EventStream poisson_churn(std::size_t n, const ChurnShape& shape, BenchRng& rng);

/// Random-waypoint motion over Poisson churn, with n / 2 motion events per
/// unit time, each moving one random active link. Its sender walks 24
/// units toward a waypoint drawn uniformly in the square of the given side;
/// its receiver follows at the link's own original length (jittered by at
/// most 10%) in a slowly turning direction, so motion changes where links
/// are, not how long they are. Every position is appended to
/// `links.points` (the metric must hold all of them before the run);
/// link_update events name the new node ids.
EventStream waypoint_churn(LinkSet& links, double side, const ChurnShape& shape,
                           BenchRng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
