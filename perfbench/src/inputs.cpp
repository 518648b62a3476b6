#include "inputs.h"

#include <cmath>
#include <functional>
#include <limits>
#include <numbers>
#include <queue>
#include <utility>

namespace perfbench {

using oisched::ChurnEvent;
using oisched::Point;
using oisched::Request;

std::uint64_t BenchRng::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double BenchRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t BenchRng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

double BenchRng::exponential(double mean) noexcept {
  return -mean * std::log1p(-uniform());
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) noexcept {
  BenchRng mix(seed * 0x100000001b3ULL ^ purpose);
  return mix.next();
}

LinkSet square_links(std::size_t n, double side, BenchRng& rng) {
  LinkSet links;
  links.points.reserve(2 * n);
  links.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point sender{rng.uniform(0.0, side), rng.uniform(0.0, side), 0.0};
    const double length = std::exp(rng.uniform(0.0, std::log(64.0)));
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    links.points.push_back(sender);
    links.points.push_back(
        Point{sender.x + length * std::cos(angle), sender.y + length * std::sin(angle), 0.0});
    links.requests.push_back(Request{2 * i, 2 * i + 1});
  }
  return links;
}

namespace {

constexpr double kMeanHolding = 8.0;
constexpr double kWaypointStep = 24.0;

/// A set of link ids with O(1) insert, erase and uniform sampling.
class IndexSet {
 public:
  explicit IndexSet(std::size_t universe) : where_(universe, kAbsent) {}
  void insert(std::size_t id) {
    where_[id] = items_.size();
    items_.push_back(id);
  }
  void erase(std::size_t id) {
    const std::size_t at = where_[id];
    items_[at] = items_.back();
    where_[items_[at]] = at;
    items_.pop_back();
    where_[id] = kAbsent;
  }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t sample(BenchRng& rng) const { return items_[rng.index(size())]; }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> items_;
  std::vector<std::size_t> where_;
};

/// The churn process shared by both stream kinds; `on_move` (optional)
/// turns a motion tick into a link_update for a random active link.
EventStream simulate(std::size_t n, const ChurnShape& shape, double move_rate,
                     BenchRng& rng,
                     const std::function<Request(std::size_t)>& on_move = {}) {
  const double arrival_rate = static_cast<double>(n) / (2.0 * kMeanHolding);
  IndexSet inactive(n);
  IndexSet active(n);
  for (std::size_t i = 0; i < n; ++i) inactive.insert(i);
  using Departure = std::pair<double, std::size_t>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;
  EventStream stream;
  const auto arrive = [&](std::size_t link, double t) {
    inactive.erase(link);
    active.insert(link);
    stream.events.push_back(ChurnEvent{ChurnEvent::Kind::arrival, link, t, {}});
    departures.emplace(t + rng.exponential(kMeanHolding), link);
  };
  if (shape.stationary_start) {
    for (std::size_t k = 0; k < n / 2; ++k) arrive(inactive.sample(rng), 0.0);
  }
  stream.warmup = stream.events.size();
  const std::size_t total = stream.warmup + shape.timed_events;
  double next_arrival = rng.exponential(1.0 / arrival_rate);
  double next_move = move_rate > 0.0 ? rng.exponential(1.0 / move_rate)
                                     : std::numeric_limits<double>::infinity();
  while (stream.events.size() < total) {
    const double next_departure = departures.empty()
                                      ? std::numeric_limits<double>::infinity()
                                      : departures.top().first;
    if (next_departure <= next_arrival && next_departure <= next_move) {
      const std::size_t link = departures.top().second;
      departures.pop();
      active.erase(link);
      inactive.insert(link);
      stream.events.push_back(
          ChurnEvent{ChurnEvent::Kind::departure, link, next_departure, {}});
    } else if (next_move < next_arrival) {
      if (!active.empty()) {
        const std::size_t link = active.sample(rng);
        stream.events.push_back(
            ChurnEvent{ChurnEvent::Kind::link_update, link, next_move, on_move(link)});
      }
      next_move += rng.exponential(1.0 / move_rate);
    } else {
      // With every link active the arrival stream idles until a departure.
      if (!inactive.empty()) arrive(inactive.sample(rng), next_arrival);
      next_arrival += rng.exponential(1.0 / arrival_rate);
    }
  }
  return stream;
}

}  // namespace

EventStream poisson_churn(std::size_t n, const ChurnShape& shape, BenchRng& rng) {
  return simulate(n, shape, 0.0, rng);
}

EventStream waypoint_churn(LinkSet& links, double side, const ChurnShape& shape,
                           BenchRng& rng) {
  const std::size_t n = links.requests.size();
  struct Walker {
    Point sender;
    Point waypoint;
    double heading = 0.0;
    double length = 0.0;
    bool moved = false;
  };
  std::vector<Walker> walkers(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& s = links.points[links.requests[i].u];
    const Point& r = links.points[links.requests[i].v];
    walkers[i].sender = s;
    walkers[i].waypoint = Point{rng.uniform(0.0, side), rng.uniform(0.0, side), 0.0};
    walkers[i].heading = std::atan2(r.y - s.y, r.x - s.x);
    walkers[i].length = oisched::euclidean_distance(s, r);
  }
  std::vector<double> final_length(n, 0.0);
  const auto move = [&](std::size_t link) {
    Walker& w = walkers[link];
    const double dx = w.waypoint.x - w.sender.x;
    const double dy = w.waypoint.y - w.sender.y;
    const double distance = std::hypot(dx, dy);
    if (distance <= kWaypointStep) {
      w.sender = w.waypoint;
      w.waypoint = Point{rng.uniform(0.0, side), rng.uniform(0.0, side), 0.0};
    } else {
      w.sender.x += dx / distance * kWaypointStep;
      w.sender.y += dy / distance * kWaypointStep;
    }
    w.heading += rng.uniform(-0.3, 0.3);
    const double length = w.length * rng.uniform(0.9, 1.1);
    w.moved = true;
    final_length[link] = length;
    links.points.push_back(w.sender);
    links.points.push_back(Point{w.sender.x + length * std::cos(w.heading),
                                 w.sender.y + length * std::sin(w.heading), 0.0});
    return Request{links.points.size() - 2, links.points.size() - 1};
  };
  EventStream stream = simulate(n, shape, static_cast<double>(n) / 2.0, rng, move);
  for (std::size_t i = 0; i < n; ++i) {
    if (!walkers[i].moved) continue;
    stream.moved_initial_length.push_back(walkers[i].length);
    stream.moved_final_length.push_back(final_length[i]);
  }
  return stream;
}

}  // namespace perfbench
