#include "gen/churn.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <queue>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "metric/metric_space.h"
#include "util/error.h"
#include "util/json_reader.h"

namespace oisched {
namespace {

/// A pending departure: ordered by time, ties broken by insertion sequence
/// so the stream is deterministic however the heap reorders equal times.
struct PendingDeparture {
  double time = 0.0;
  std::size_t seq = 0;
  std::size_t link = 0;

  bool operator>(const PendingDeparture& other) const {
    return std::tie(time, seq) > std::tie(other.time, other.seq);
  }
};

using DepartureQueue =
    std::priority_queue<PendingDeparture, std::vector<PendingDeparture>,
                        std::greater<PendingDeparture>>;

/// Removes and returns a uniformly random element of `pool` (swap-remove,
/// so the pick is O(1) and deterministic in the rng stream).
std::size_t pick_from_pool(std::vector<std::size_t>& pool, Rng& rng) {
  const std::size_t k = static_cast<std::size_t>(rng.uniform_index(pool.size()));
  const std::size_t link = pool[k];
  pool[k] = pool.back();
  pool.pop_back();
  return link;
}

const char* kind_name(ChurnEvent::Kind kind) {
  switch (kind) {
    case ChurnEvent::Kind::arrival:
      return "arrival";
    case ChurnEvent::Kind::departure:
      return "departure";
    case ChurnEvent::Kind::link_arrival:
      return "link_arrival";
    case ChurnEvent::Kind::link_update:
      return "link_update";
  }
  return "unknown";
}

}  // namespace

void ChurnTrace::validate() const {
  // State only for the links the events name: memory follows the stream,
  // not the universe a (possibly hostile) document claims.
  std::unordered_set<std::size_t> active;
  std::size_t next_fresh = universe;
  double last_time = 0.0;
  for (const ChurnEvent& event : events) {
    require(event.time >= last_time, "ChurnTrace: time must be non-decreasing");
    last_time = event.time;
    if (event.kind == ChurnEvent::Kind::link_arrival) {
      require(event.link == next_fresh,
              "ChurnTrace: fresh links must take the next universe index");
      ++next_fresh;
      active.insert(event.link);  // a fresh link arrives active
      continue;
    }
    require(event.link < next_fresh, "ChurnTrace: link index out of universe");
    if (event.kind == ChurnEvent::Kind::arrival) {
      require(active.insert(event.link).second,
              "ChurnTrace: arrival of an already active link");
    } else if (event.kind == ChurnEvent::Kind::link_update) {
      // Motion targets live links only: a never-arrived or departed link
      // has no gain row to refresh and no class to re-validate.
      require(active.contains(event.link), "ChurnTrace: update of an inactive link");
    } else {
      require(active.erase(event.link) == 1, "ChurnTrace: departure of an inactive link");
    }
  }
}

std::size_t ChurnTrace::final_universe() const {
  std::size_t total = universe;
  for (const ChurnEvent& event : events) {
    if (event.kind == ChurnEvent::Kind::link_arrival) ++total;
  }
  return total;
}

bool ChurnTrace::has_fresh_links() const {
  for (const ChurnEvent& event : events) {
    if (event.kind == ChurnEvent::Kind::link_arrival) return true;
  }
  return false;
}

bool ChurnTrace::has_link_updates() const {
  for (const ChurnEvent& event : events) {
    if (event.kind == ChurnEvent::Kind::link_update) return true;
  }
  return false;
}

std::vector<std::size_t> ChurnTrace::final_active() const {
  std::vector<char> active(universe, 0);
  for (const ChurnEvent& event : events) {
    if (event.kind == ChurnEvent::Kind::link_arrival) {
      active.push_back(1);
    } else if (event.kind != ChurnEvent::Kind::link_update) {
      active[event.link] = event.kind == ChurnEvent::Kind::arrival ? 1 : 0;
    }
  }
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i]) result.push_back(i);
  }
  return result;
}

std::size_t ChurnTrace::peak_active() const {
  std::size_t now = 0;
  std::size_t peak = 0;
  for (const ChurnEvent& event : events) {
    if (event.kind == ChurnEvent::Kind::departure) {
      --now;
    } else if (event.kind != ChurnEvent::Kind::link_update) {
      peak = std::max(peak, ++now);
    }
  }
  return peak;
}

namespace {

/// The shared Poisson churn loop: arrivals drawn from `inactive`,
/// exponential holding times, until `max_events` events (or the pool dries
/// up both ways). poisson_trace runs it over the whole universe,
/// hotspot_trace over a window of it.
void poisson_churn_over_pool(ChurnTrace& trace, std::vector<std::size_t>& inactive,
                             double arrival_rate, double mean_holding_time,
                             std::size_t max_events, Rng& rng) {
  DepartureQueue pending;
  std::size_t seq = 0;

  double t = 0.0;
  double next_arrival = rng.exponential(arrival_rate);
  while (trace.events.size() < max_events) {
    const bool can_arrive = !inactive.empty();
    const bool can_depart = !pending.empty();
    if (!can_arrive && !can_depart) break;  // pool exhausted both ways
    if (can_arrive && (!can_depart || next_arrival <= pending.top().time)) {
      // When the pool was saturated the arrival waited for a free link; it
      // then fires immediately, never before the freeing departure.
      t = std::max(t, next_arrival);
      const std::size_t link = pick_from_pool(inactive, rng);
      trace.events.push_back({ChurnEvent::Kind::arrival, link, t, {}});
      pending.push({t + rng.exponential(1.0 / mean_holding_time), seq++, link});
      next_arrival += rng.exponential(arrival_rate);
    } else {
      const PendingDeparture departure = pending.top();
      pending.pop();
      t = std::max(t, departure.time);
      trace.events.push_back({ChurnEvent::Kind::departure, departure.link, t, {}});
      inactive.push_back(departure.link);
    }
  }
}

}  // namespace

ChurnTrace poisson_trace(std::size_t universe, const PoissonChurnOptions& options,
                         Rng& rng) {
  require(universe > 0, "poisson_trace: universe must be non-empty");
  require(options.arrival_rate > 0.0, "poisson_trace: arrival rate must be positive");
  require(options.mean_holding_time > 0.0,
          "poisson_trace: mean holding time must be positive");

  ChurnTrace trace;
  trace.universe = universe;
  trace.events.reserve(options.max_events);
  std::vector<std::size_t> inactive(universe);
  for (std::size_t i = 0; i < universe; ++i) inactive[i] = i;
  poisson_churn_over_pool(trace, inactive, options.arrival_rate,
                          options.mean_holding_time, options.max_events, rng);
  return trace;
}

ChurnTrace hotspot_trace(std::size_t universe, const HotspotChurnOptions& options,
                         Rng& rng) {
  require(universe > 0, "hotspot_trace: universe must be non-empty");
  const std::size_t window =
      options.window > 0 ? options.window : std::min<std::size_t>(universe, 128);
  require(window <= universe, "hotspot_trace: window cannot exceed the universe");
  require(options.mean_holding_time > 0.0,
          "hotspot_trace: mean holding time must be positive");
  const double rate =
      options.arrival_rate > 0.0
          ? options.arrival_rate
          : std::max(1.0, static_cast<double>(window) / (2.0 * options.mean_holding_time));
  const std::size_t max_events =
      options.max_events > 0 ? options.max_events : 8 * window;

  ChurnTrace trace;
  trace.universe = universe;
  trace.events.reserve(max_events);
  std::vector<std::size_t> inactive(window);
  for (std::size_t i = 0; i < window; ++i) inactive[i] = i;
  poisson_churn_over_pool(trace, inactive, rate, options.mean_holding_time, max_events,
                          rng);
  return trace;
}

ChurnTrace growing_trace(std::size_t initial_universe,
                         std::span<const Request> fresh_links,
                         const GrowingChurnOptions& options, Rng& rng) {
  require(initial_universe > 0, "growing_trace: initial universe must be non-empty");
  require(!fresh_links.empty(), "growing_trace: need at least one fresh link");
  require(options.mean_holding_time > 0.0,
          "growing_trace: mean holding time must be positive");
  const std::size_t final_universe = initial_universe + fresh_links.size();
  const double rate = options.arrival_rate > 0.0
                          ? options.arrival_rate
                          : std::max(1.0, static_cast<double>(final_universe) /
                                              (2.0 * options.mean_holding_time));
  const std::size_t max_events =
      options.max_events > 0 ? options.max_events : 16 * final_universe;
  // The generator's contract is that EVERY fresh link gets introduced; a
  // budget at or below the pool size could not keep it, so it is rejected
  // rather than silently truncating the growth.
  require(max_events > fresh_links.size(),
          "growing_trace: event budget must exceed the fresh-link pool");
  // Fresh links are introduced evenly across the event budget (by ordinal
  // event position — deterministic regardless of how the churn falls).
  // interval >= 1 and fresh * interval < max_events, so the last
  // introduction always lands inside the budget.
  const std::size_t interval =
      std::max<std::size_t>(1, max_events / (fresh_links.size() + 1));

  ChurnTrace trace;
  trace.universe = initial_universe;
  trace.events.reserve(max_events);

  std::vector<std::size_t> inactive(initial_universe);
  for (std::size_t i = 0; i < initial_universe; ++i) inactive[i] = i;
  DepartureQueue pending;
  std::size_t seq = 0;
  std::size_t introduced = 0;

  double t = 0.0;
  double next_arrival = rng.exponential(rate);
  while (trace.events.size() < max_events) {
    if (introduced < fresh_links.size() &&
        trace.events.size() >= (introduced + 1) * interval) {
      // Grow the universe: the fresh link takes the next index, arrives
      // active at the current time, and drains like any other link.
      const std::size_t link = initial_universe + introduced;
      trace.events.push_back(
          {ChurnEvent::Kind::link_arrival, link, t, fresh_links[introduced]});
      pending.push({t + rng.exponential(1.0 / options.mean_holding_time), seq++, link});
      ++introduced;
      continue;
    }
    const bool can_arrive = !inactive.empty();
    const bool can_depart = !pending.empty();
    if (!can_arrive && !can_depart) {
      if (introduced >= fresh_links.size()) break;
      // Nothing to churn yet, but fresh links remain: introduce the next
      // one early rather than stall.
      const std::size_t link = initial_universe + introduced;
      trace.events.push_back(
          {ChurnEvent::Kind::link_arrival, link, t, fresh_links[introduced]});
      pending.push({t + rng.exponential(1.0 / options.mean_holding_time), seq++, link});
      ++introduced;
      continue;
    }
    if (can_arrive && (!can_depart || next_arrival <= pending.top().time)) {
      t = std::max(t, next_arrival);
      const std::size_t link = pick_from_pool(inactive, rng);
      trace.events.push_back({ChurnEvent::Kind::arrival, link, t, {}});
      pending.push({t + rng.exponential(1.0 / options.mean_holding_time), seq++, link});
      next_arrival += rng.exponential(rate);
    } else {
      const PendingDeparture departure = pending.top();
      pending.pop();
      t = std::max(t, departure.time);
      trace.events.push_back({ChurnEvent::Kind::departure, departure.link, t, {}});
      inactive.push_back(departure.link);
    }
  }
  return trace;
}

ChurnTrace flash_crowd_trace(std::size_t universe, const FlashCrowdOptions& options,
                             Rng& rng) {
  require(universe > 0, "flash_crowd_trace: universe must be non-empty");
  require(options.bursts > 0, "flash_crowd_trace: need at least one burst");
  require(options.burst_spacing > 0.0 && options.burst_width > 0.0,
          "flash_crowd_trace: burst geometry must be positive");
  require(options.mean_holding_time > 0.0,
          "flash_crowd_trace: mean holding time must be positive");
  const std::size_t burst_size =
      options.burst_size > 0 ? options.burst_size : std::max<std::size_t>(1, universe / 4);

  // All crowd arrival instants first (one rng pass), then a deterministic
  // time sweep that merges them with the departures they trigger.
  std::vector<double> arrivals;
  arrivals.reserve(options.bursts * burst_size);
  for (std::size_t b = 0; b < options.bursts; ++b) {
    const double front = static_cast<double>(b) * options.burst_spacing;
    for (std::size_t k = 0; k < burst_size; ++k) {
      arrivals.push_back(front + rng.uniform(0.0, options.burst_width));
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end());

  ChurnTrace trace;
  trace.universe = universe;
  std::vector<std::size_t> inactive(universe);
  for (std::size_t i = 0; i < universe; ++i) inactive[i] = i;
  DepartureQueue pending;
  std::size_t seq = 0;
  std::size_t next = 0;
  double t = 0.0;
  while (next < arrivals.size() || !pending.empty()) {
    if (next < arrivals.size() &&
        (pending.empty() || arrivals[next] <= pending.top().time)) {
      t = std::max(t, arrivals[next]);
      ++next;
      if (inactive.empty()) continue;  // crowd overflow: the universe is full
      const std::size_t link = pick_from_pool(inactive, rng);
      trace.events.push_back({ChurnEvent::Kind::arrival, link, t});
      pending.push({t + rng.exponential(1.0 / options.mean_holding_time), seq++, link});
    } else {
      const PendingDeparture departure = pending.top();
      pending.pop();
      t = std::max(t, departure.time);
      trace.events.push_back({ChurnEvent::Kind::departure, departure.link, t});
      inactive.push_back(departure.link);
    }
  }
  return trace;
}

ChurnTrace adversarial_chain_trace(std::size_t universe,
                                   const AdversarialChurnOptions& options, Rng& rng) {
  require(universe > 0, "adversarial_chain_trace: universe must be non-empty");
  require(options.chain_length >= 2,
          "adversarial_chain_trace: chains need at least two links");
  require(options.chain_length <= universe,
          "adversarial_chain_trace: chain cannot exceed the universe");
  // Every round retires one link for good, so only so many rounds fit.
  const std::size_t max_rounds = universe - options.chain_length + 1;
  std::size_t rounds = options.rounds > 0 ? options.rounds : universe / 2;
  rounds = std::min(rounds, max_rounds);

  ChurnTrace trace;
  trace.universe = universe;
  std::vector<std::size_t> inactive(universe);
  for (std::size_t i = 0; i < universe; ++i) inactive[i] = i;
  double t = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::size_t> chain;
    chain.reserve(options.chain_length);
    for (std::size_t k = 0; k < options.chain_length; ++k) {
      chain.push_back(pick_from_pool(inactive, rng));
    }
    for (const std::size_t link : chain) {
      trace.events.push_back({ChurnEvent::Kind::arrival, link, t});
      t += 1.0;
    }
    // Delete all but the last insert; the survivor fragments every future
    // first-fit pass a little more.
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      trace.events.push_back({ChurnEvent::Kind::departure, chain[k], t});
      t += 1.0;
      inactive.push_back(chain[k]);
    }
  }
  return trace;
}

namespace {

/// Metric-only geodesic interpolation: the node whose distances best split
/// the from -> target geodesic at `travel` of the way (minimizing
/// |d(from, x) - travel| + |d(x, target) - (d - travel)|; ties go to the
/// lowest id, so the pick is deterministic). Nodes co-located with `avoid`
/// are excluded — a moved endpoint must stay at a distinct position from
/// its partner, the invariant every gain table requires. `from` itself
/// always qualifies (the caller guarantees d(from, avoid) > 0), so the
/// step never strands an endpoint without a legal position.
NodeId step_toward(const MetricSpace& metric, NodeId from, NodeId target,
                   double fraction, NodeId avoid) {
  const double total = metric.distance(from, target);
  if (total == 0.0) return from;
  const double travel = fraction * total;
  NodeId best = from;
  double best_score = std::numeric_limits<double>::infinity();
  for (NodeId x = 0; x < metric.size(); ++x) {
    if (metric.distance(x, avoid) == 0.0) continue;
    const double score = std::abs(metric.distance(from, x) - travel) +
                         std::abs(metric.distance(x, target) - (total - travel));
    if (score < best_score) {
      best_score = score;
      best = x;
    }
  }
  return best;
}

/// Steps request `r` toward the anchor pair (wu, wv); returns true when an
/// endpoint actually moved. The sender steps first (avoiding the old
/// receiver), then the receiver (avoiding the new sender) — each step's
/// avoid node sits at a positive distance from the stepped endpoint's old
/// position, so the updated endpoints are always at distinct positions.
bool step_link(const MetricSpace& metric, Request& r, NodeId wu, NodeId wv,
               double fraction) {
  const NodeId nu = step_toward(metric, r.u, wu, fraction, r.v);
  const NodeId nv = step_toward(metric, r.v, wv, fraction, nu);
  if (nu == r.u && nv == r.v) return false;
  r.u = nu;
  r.v = nv;
  return true;
}

/// True when `r` sits on the anchor pair (both geodesic remainders zero).
bool at_anchor(const MetricSpace& metric, const Request& r, NodeId wu, NodeId wv) {
  return metric.distance(r.u, wu) == 0.0 && metric.distance(r.v, wv) == 0.0;
}

void require_mobility_inputs(const MetricSpace& metric,
                             std::span<const Request> requests,
                             const std::string& who) {
  require(!requests.empty(), who + ": universe must be non-empty");
  require(metric.size() >= 2, who + ": motion needs at least two nodes");
  for (const Request& r : requests) {
    require(r.u < metric.size() && r.v < metric.size(),
            who + ": request endpoint out of metric range");
  }
}

}  // namespace

ChurnTrace waypoint_trace(const MetricSpace& metric, std::span<const Request> requests,
                          const WaypointMobilityOptions& options, Rng& rng) {
  require_mobility_inputs(metric, requests, "waypoint_trace");
  require(options.mean_holding_time > 0.0,
          "waypoint_trace: mean holding time must be positive");
  require(options.step_fraction > 0.0 && options.step_fraction <= 1.0,
          "waypoint_trace: step fraction must be in (0, 1]");
  const std::size_t universe = requests.size();
  const double arrival_rate =
      options.arrival_rate > 0.0
          ? options.arrival_rate
          : std::max(1.0,
                     static_cast<double>(universe) / (2.0 * options.mean_holding_time));
  const double move_rate = options.move_rate > 0.0
                               ? options.move_rate
                               : std::max(1.0, static_cast<double>(universe) / 2.0);
  const std::size_t max_events =
      options.max_events > 0 ? options.max_events : 16 * universe;
  constexpr double kNever = std::numeric_limits<double>::infinity();

  ChurnTrace trace;
  trace.universe = universe;
  trace.events.reserve(max_events);
  std::vector<Request> current(requests.begin(), requests.end());
  std::vector<std::pair<NodeId, NodeId>> waypoint(universe);
  for (auto& w : waypoint) {
    w = {static_cast<NodeId>(rng.uniform_index(metric.size())),
         static_cast<NodeId>(rng.uniform_index(metric.size()))};
  }

  std::vector<std::size_t> inactive(universe);
  for (std::size_t i = 0; i < universe; ++i) inactive[i] = i;
  std::vector<std::size_t> active;
  DepartureQueue pending;
  std::size_t seq = 0;

  double t = 0.0;
  double next_arrival = rng.exponential(arrival_rate);
  double next_move = rng.exponential(move_rate);
  // Motion ticks that change nothing emit no event; the tick budget stops
  // a pathological all-parked stream from spinning forever.
  std::size_t ticks = 0;
  const std::size_t max_ticks = 8 * max_events;
  while (trace.events.size() < max_events && ticks++ < max_ticks) {
    const bool can_arrive = !inactive.empty();
    const bool can_depart = !pending.empty();
    const bool can_move = !active.empty();
    if (!can_arrive && !can_depart) break;
    const double arrival_at = can_arrive ? next_arrival : kNever;
    const double departure_at = can_depart ? pending.top().time : kNever;
    const double move_at = can_move ? next_move : kNever;
    if (arrival_at <= departure_at && arrival_at <= move_at) {
      t = std::max(t, arrival_at);
      const std::size_t link = pick_from_pool(inactive, rng);
      trace.events.push_back({ChurnEvent::Kind::arrival, link, t, {}});
      active.push_back(link);
      pending.push({t + rng.exponential(1.0 / options.mean_holding_time), seq++, link});
      next_arrival += rng.exponential(arrival_rate);
    } else if (move_at <= departure_at) {
      t = std::max(t, move_at);
      next_move += rng.exponential(move_rate);
      const std::size_t link = active[rng.uniform_index(active.size())];
      const auto [wu, wv] = waypoint[link];
      const bool moved = step_link(metric, current[link], wu, wv, options.step_fraction);
      if (moved) {
        trace.events.push_back({ChurnEvent::Kind::link_update, link, t, current[link]});
      }
      if (!moved || at_anchor(metric, current[link], wu, wv)) {
        // Arrived (or parked against the distinct-endpoint constraint):
        // wander on toward a fresh waypoint.
        waypoint[link] = {static_cast<NodeId>(rng.uniform_index(metric.size())),
                          static_cast<NodeId>(rng.uniform_index(metric.size()))};
      }
    } else {
      const PendingDeparture departure = pending.top();
      pending.pop();
      t = std::max(t, departure.time);
      trace.events.push_back({ChurnEvent::Kind::departure, departure.link, t, {}});
      const auto it = std::find(active.begin(), active.end(), departure.link);
      *it = active.back();
      active.pop_back();
      inactive.push_back(departure.link);
    }
  }
  return trace;
}

ChurnTrace commuter_trace(const MetricSpace& metric, std::span<const Request> requests,
                          const CommuterMobilityOptions& options, Rng& rng) {
  require_mobility_inputs(metric, requests, "commuter_trace");
  require(options.rounds > 0, "commuter_trace: need at least one motion round");
  require(options.step_fraction > 0.0 && options.step_fraction <= 1.0,
          "commuter_trace: step fraction must be in (0, 1]");
  const std::size_t universe = requests.size();
  const std::size_t max_events =
      options.max_events > 0 ? options.max_events : universe * (1 + options.rounds);

  ChurnTrace trace;
  trace.universe = universe;
  trace.events.reserve(max_events);
  std::vector<Request> current(requests.begin(), requests.end());
  const std::vector<Request> home(requests.begin(), requests.end());
  std::vector<Request> work(universe);
  std::vector<char> heading_to_work(universe, 1);
  for (Request& anchor : work) {
    anchor = {static_cast<NodeId>(rng.uniform_index(metric.size())),
              static_cast<NodeId>(rng.uniform_index(metric.size()))};
  }

  double t = 0.0;
  // The whole town wakes up: every link arrives before the commute starts.
  for (std::size_t i = 0; i < universe && trace.events.size() < max_events; ++i) {
    trace.events.push_back({ChurnEvent::Kind::arrival, i, t, {}});
    t += 1.0;
  }
  for (std::size_t round = 0; round < options.rounds; ++round) {
    if (trace.events.size() >= max_events) break;
    for (const std::size_t link : rng.permutation(universe)) {
      if (trace.events.size() >= max_events) break;
      const Request& target = heading_to_work[link] ? work[link] : home[link];
      const bool moved =
          step_link(metric, current[link], target.u, target.v, options.step_fraction);
      if (moved) {
        trace.events.push_back({ChurnEvent::Kind::link_update, link, t, current[link]});
        t += 1.0;
      }
      if (!moved || at_anchor(metric, current[link], target.u, target.v)) {
        heading_to_work[link] = heading_to_work[link] ? 0 : 1;  // turn around
      }
    }
  }
  return trace;
}

ChurnTrace flash_mob_trace(const MetricSpace& metric, std::span<const Request> requests,
                           const FlashMobOptions& options, Rng& rng) {
  require_mobility_inputs(metric, requests, "flash_mob_trace");
  require(options.mobs > 0, "flash_mob_trace: need at least one mob");
  require(options.drift_steps > 0, "flash_mob_trace: need at least one drift step");
  require(options.step_fraction > 0.0 && options.step_fraction <= 1.0,
          "flash_mob_trace: step fraction must be in (0, 1]");
  const std::size_t universe = requests.size();
  const std::size_t crowd_size = std::min(
      universe,
      options.crowd > 0 ? options.crowd : std::max<std::size_t>(1, universe / 4));
  const std::size_t churn_links = options.churn_links > 0
                                      ? options.churn_links
                                      : std::max<std::size_t>(1, universe / 8);
  const std::size_t max_events =
      options.max_events > 0 ? options.max_events : 16 * universe;

  ChurnTrace trace;
  trace.universe = universe;
  trace.events.reserve(max_events);
  std::vector<Request> current(requests.begin(), requests.end());
  std::vector<char> active(universe, 0);

  double t = 0.0;
  const auto emit = [&](ChurnEvent event) {
    if (trace.events.size() >= max_events) return false;
    event.time = t;
    trace.events.push_back(event);
    t += 1.0;
    return true;
  };
  // Everyone shows up before the first mob forms.
  for (std::size_t i = 0; i < universe; ++i) {
    if (emit({ChurnEvent::Kind::arrival, i, 0.0, {}})) active[i] = 1;
  }
  for (std::size_t mob = 0; mob < options.mobs; ++mob) {
    // The mob: a random crowd of active links drifts toward one hotspot.
    const NodeId hotspot = static_cast<NodeId>(rng.uniform_index(metric.size()));
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < universe; ++i) {
      if (active[i]) pool.push_back(i);
    }
    std::vector<std::size_t> crowd;
    for (std::size_t k = 0; k < crowd_size && !pool.empty(); ++k) {
      crowd.push_back(pick_from_pool(pool, rng));
    }
    std::vector<Request> before;  // the positions the crowd disperses back to
    before.reserve(crowd.size());
    for (const std::size_t link : crowd) before.push_back(current[link]);
    for (std::size_t step = 0; step < options.drift_steps; ++step) {
      for (const std::size_t link : crowd) {
        if (step_link(metric, current[link], hotspot, hotspot, options.step_fraction)) {
          emit({ChurnEvent::Kind::link_update, link, 0.0, current[link]});
        }
      }
    }
    // The mob disperses the way it came.
    for (std::size_t step = 0; step < options.drift_steps; ++step) {
      for (std::size_t k = 0; k < crowd.size(); ++k) {
        const std::size_t link = crowd[k];
        if (step_link(metric, current[link], before[k].u, before[k].v,
                      options.step_fraction)) {
          emit({ChurnEvent::Kind::link_update, link, 0.0, current[link]});
        }
      }
    }
    // Background churn between mobs: a few links leave and return.
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < universe; ++i) {
      if (active[i]) alive.push_back(i);
    }
    std::vector<std::size_t> leavers;
    for (std::size_t k = 0; k < churn_links && !alive.empty(); ++k) {
      leavers.push_back(pick_from_pool(alive, rng));
    }
    for (const std::size_t link : leavers) {
      if (emit({ChurnEvent::Kind::departure, link, 0.0, {}})) active[link] = 0;
    }
    for (const std::size_t link : leavers) {
      if (active[link] == 0 && emit({ChurnEvent::Kind::arrival, link, 0.0, {}})) {
        active[link] = 1;
      }
    }
  }
  return trace;
}

ChurnTrace make_churn_trace(const std::string& kind, std::size_t universe,
                            std::size_t target_events, Rng& rng,
                            std::span<const Request> fresh_links,
                            const MetricSpace* metric,
                            std::span<const Request> initial_requests) {
  if (kind == "waypoint" || kind == "commuter" || kind == "flashmob") {
    require(fresh_links.empty(),
            "make_churn_trace: only growing traces take fresh links");
    require(metric != nullptr && initial_requests.size() == universe,
            "make_churn_trace: mobility traces need the metric and the universe's "
            "requests");
    if (kind == "waypoint") {
      WaypointMobilityOptions options;
      if (target_events > 0) options.max_events = target_events;
      return waypoint_trace(*metric, initial_requests, options, rng);
    }
    if (kind == "commuter") {
      CommuterMobilityOptions options;
      if (target_events > 0) options.max_events = target_events;
      return commuter_trace(*metric, initial_requests, options, rng);
    }
    FlashMobOptions options;
    if (target_events > 0) options.max_events = target_events;
    return flash_mob_trace(*metric, initial_requests, options, rng);
  }
  if (kind == "hotspot") {
    HotspotChurnOptions options;
    if (target_events > 0) options.max_events = target_events;
    return hotspot_trace(universe, options, rng);
  }
  if (kind == "growing") {
    require(!fresh_links.empty(),
            "make_churn_trace: growing traces need the fresh-link pool");
    GrowingChurnOptions options;
    if (target_events > 0) options.max_events = target_events;
    return growing_trace(universe, fresh_links, options, rng);
  }
  require(fresh_links.empty(),
          "make_churn_trace: only growing traces take fresh links");
  if (kind == "poisson") {
    PoissonChurnOptions options;
    // Arrival rate scaled so steady state keeps ~half the universe active
    // (rate * holding ≈ n/2); enough events by default that steady-state
    // churn dominates the warm-up ramp.
    options.arrival_rate =
        std::max(1.0, static_cast<double>(universe) / (2.0 * options.mean_holding_time));
    options.max_events = target_events > 0 ? target_events : 16 * universe;
    return poisson_trace(universe, options, rng);
  }
  if (kind == "flash") {
    FlashCrowdOptions options;
    // Every crowd arrival eventually departs: ~2 * bursts * burst_size
    // events total.
    if (target_events > 0) {
      options.burst_size = std::max<std::size_t>(1, target_events / (2 * options.bursts));
    }
    return flash_crowd_trace(universe, options, rng);
  }
  if (kind == "adversarial") {
    require(universe >= 2, "make_churn_trace: adversarial chains need >= 2 links");
    AdversarialChurnOptions options;
    // Chains cannot exceed the universe (tiny instances get short chains).
    options.chain_length = std::min(options.chain_length, universe);
    // Each round emits chain_length arrivals + (chain_length - 1) departures.
    if (target_events > 0) {
      options.rounds =
          std::max<std::size_t>(1, target_events / (2 * options.chain_length - 1));
    }
    return adversarial_chain_trace(universe, options, rng);
  }
  throw PreconditionError("make_churn_trace: unknown trace kind '" + kind + "'");
}

JsonValue trace_to_json(const ChurnTrace& trace) {
  JsonValue root = JsonValue::object();
  root["schema"] = "oisched-trace/3";
  root["universe"] = trace.universe;
  JsonValue events = JsonValue::array();
  for (const ChurnEvent& event : trace.events) {
    JsonValue entry = JsonValue::object();
    entry["t"] = event.time;
    entry["kind"] = kind_name(event.kind);
    entry["link"] = event.link;
    if (event.kind == ChurnEvent::Kind::link_arrival ||
        event.kind == ChurnEvent::Kind::link_update) {
      entry["u"] = event.request.u;
      entry["v"] = event.request.v;
    }
    events.push_back(std::move(entry));
  }
  root["events"] = std::move(events);
  return root;
}

ChurnTrace trace_from_json(const JsonValue& document) {
  const std::string& schema = document.at("schema").as_string();
  // "/1" is the legacy fixed-universe schema: same layout, no
  // universe-growing events — still read for old trace files.
  const bool fixed_universe_only = schema == "oisched-trace/1";
  // "/2" added universe-growing link_arrival events; "/3" adds
  // endpoint-motion link_update events. Each kind is only legal from the
  // schema revision that introduced it.
  const bool churn_only = fixed_universe_only || schema == "oisched-trace/2";
  require(churn_only || schema == "oisched-trace/3",
          "trace_from_json: unsupported trace schema");
  const std::int64_t universe = document.at("universe").as_int();
  require(universe >= 0, "trace_from_json: universe must be non-negative");

  ChurnTrace trace;
  trace.universe = static_cast<std::size_t>(universe);
  const JsonValue& events = document.at("events");
  trace.events.reserve(events.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    const JsonValue& entry = events.item(k);
    ChurnEvent event;
    event.time = entry.at("t").as_double();
    const std::string& kind = entry.at("kind").as_string();
    if (kind == "arrival") {
      event.kind = ChurnEvent::Kind::arrival;
    } else if (kind == "departure") {
      event.kind = ChurnEvent::Kind::departure;
    } else if ((kind == "link_arrival" && !fixed_universe_only) ||
               (kind == "link_update" && !churn_only)) {
      event.kind = kind == "link_arrival" ? ChurnEvent::Kind::link_arrival
                                          : ChurnEvent::Kind::link_update;
      const JsonValue* u_field = entry.find("u");
      const JsonValue* v_field = entry.find("v");
      require(u_field != nullptr && v_field != nullptr,
              "trace_from_json: " + kind + " record is missing its endpoints");
      const std::int64_t u = u_field->as_int();
      const std::int64_t v = v_field->as_int();
      require(u >= 0 && v >= 0, "trace_from_json: endpoints must be non-negative");
      event.request.u = static_cast<NodeId>(u);
      event.request.v = static_cast<NodeId>(v);
    } else {
      throw PreconditionError("trace_from_json: unknown event kind '" + kind + "'");
    }
    const std::int64_t link = entry.at("link").as_int();
    require(link >= 0, "trace_from_json: link must be non-negative");
    event.link = static_cast<std::size_t>(link);
    trace.events.push_back(event);
  }
  trace.validate();
  return trace;
}

void save_trace(const std::string& path, const ChurnTrace& trace) {
  std::ofstream out(path);
  require(out.good(), "save_trace: cannot open '" + path + "' for writing");
  out << trace_to_json(trace).dump() << '\n';
  require(out.good(), "save_trace: write to '" + path + "' failed");
}

namespace {

std::string read_trace_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_trace: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

ChurnTrace load_trace(const std::string& path) {
  return trace_from_json(parse_json(read_trace_file(path)));
}

Expected<ChurnTrace> try_parse_trace(std::string_view bytes) {
  try {
    return trace_from_json(parse_json(bytes));
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}

Expected<ChurnTrace> try_load_trace(const std::string& path) {
  std::string bytes;
  try {
    bytes = read_trace_file(path);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return try_parse_trace(bytes);
}

}  // namespace oisched
