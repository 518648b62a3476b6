#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/greedy.h"
#include "core/instance.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "inputs.h"
#include "online/online_scheduler.h"
#include "probe.h"
#include "service/scheduler_service.h"
#include "sinr/gain_matrix.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using oisched::ChurnEvent;
using oisched::ChurnTrace;
using oisched::GainBackend;
using oisched::Instance;
using oisched::OnlineScheduler;
using oisched::OnlineSchedulerOptions;
using oisched::OnlineStats;
using oisched::Request;
using oisched::SchedulerService;
using oisched::SinrParams;
using oisched::Stopwatch;
using oisched::Variant;
namespace obs = oisched::obs;

// The library's random-square defaults: path loss alpha = 3, SINR gain
// beta = 1, no noise, bidirectional constraints, square-root power.
const SinrParams kParams{3.0, 1.0, 0.0};
constexpr Variant kVariant = Variant::bidirectional;

/// A round repeats its set-up until this much set-up time is spent, so a
/// set-up of tens of milliseconds is the median of many builds, not one
/// timer reading.
constexpr double kMinSetupSeconds = 0.05;
/// Probe passes run right before and right after each timed build, and
/// after the offline reference, to scale those timings (probe.h).
constexpr std::size_t kBracketPasses = 256;
// Each round yields one throughput and one latency median and p99, all
// scaled to the reference speed (probe.h); a run reports the median of
// each over its rounds.

struct Spec {
  std::size_t n = 0;
  /// Side of the square the links live in.
  double side = 1000.0;
  /// Independent instances (geometry + event stream) per run. Rounds cycle
  /// through them, so the colour counts are means over this many instances
  /// and no single instance's quirks dominate.
  std::size_t instances = 6;
  GainBackend backend = GainBackend::dense;
  bool mobility = false;
  bool farfield = false;
  /// Start in steady state (untimed warm-up fills half the universe) or
  /// from empty, timing the arrival ramp.
  bool stationary_start = true;
  std::size_t timed_events = 0;
};

/// Which instance a round replays and whether it records spans. A traced
/// run replays every instance once untraced, then once traced, so the
/// tracing overhead compares like with like.
struct Plan {
  bool trace = false;
  std::size_t instances = 1;
  [[nodiscard]] std::size_t instance(std::size_t round) const {
    return (trace ? round / 2 : round) % instances;
  }
  [[nodiscard]] bool traced(std::size_t round) const { return trace && round % 2 == 1; }
  [[nodiscard]] bool keep_going(std::size_t round, Stopwatch::TimePoint start,
                                double seconds) const {
    const std::size_t min_rounds = trace ? 2 * instances : instances;
    return round < min_rounds ||
           Stopwatch::seconds_between(start, Stopwatch::now()) < seconds;
  }
};

std::vector<Metric> layer_table() {
  return {
      {"sinr.gain_build_s", 0, "s"},
      {"sinr.gain_resident_mb", 0, "MiB"},
      {"sinr.farfield_certified_frac", 0, "frac"},
      {"sinr.exact_fallbacks", 0, "count"},
      {"online.arrival_us.p50", 0, "us"},
      {"online.arrival_us.p99", 0, "us"},
      {"online.departure_us.p50", 0, "us"},
      {"online.departure_us.p99", 0, "us"},
      {"online.update_us.p50", 0, "us"},
      {"online.update_us.p99", 0, "us"},
      {"online.arrival_s", 0, "s"},
      {"online.departure_s", 0, "s"},
      {"online.update_s", 0, "s"},
      {"online.arrivals", 0, "count"},
      {"online.departures", 0, "count"},
      {"online.updates", 0, "count"},
      {"online.feasibility_scan_s", 0, "s"},
      {"online.accumulator_update_s", 0, "s"},
      {"online.compaction_s", 0, "s"},
      {"online.feasibility_scan.share", 0, "frac"},
      {"online.accumulator_update.share", 0, "frac"},
      {"online.compaction.share", 0, "frac"},
      {"online.migrations", 0, "count"},
      {"online.compaction_skips", 0, "count"},
      {"online.compaction_success_frac", 0, "frac"},
      {"online.update_migration_frac", 0, "frac"},
      {"online.classes_opened", 0, "count"},
      {"online.peak_colors", 0, "count"},
      {"online.removal_rebuilds", 0, "count"},
      {"service.submit_us.p50", 0, "us"},
      {"service.drain_s", 0, "s"},
      {"service.batch_mean", 0, "count"},
      {"service.shard_skew", 0, "ratio"},
      {"service.cpu_us_per_event", 0, "us"},
      {"service.queue_wait_us.p50", 0, "us"},
      {"service.queue_wait_us.p99", 0, "us"},
      {"service.boundary_refresh_s", 0, "s"},
      {"service.boundary_refreshes", 0, "count"},
      {"service.latency_us.p50", 0, "us"},
      {"service.latency_us.p99", 0, "us"},
      {"service.generator_lag_us.p99", 0, "us"},
      {"core.offline_colors", 0, "count"},
      {"core.offline_greedy_s", 0, "s"},
      {"trace.overhead_frac", 0, "frac"},
      {"inputs.length_ratio", 1, "ratio"},
  };
}

void set(std::vector<Metric>& table, const std::string& name, double value) {
  for (Metric& metric : table) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("perfbench: no metric named " + name);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double seconds_since(Stopwatch::TimePoint start) {
  return Stopwatch::seconds_between(start, Stopwatch::now());
}

/// One instance's generated inputs plus what its final state must be.
struct Inputs {
  LinkSet links;
  EventStream stream;
  std::vector<Request> final_requests;  // endpoints after the last motion
  std::vector<bool> final_active;
  double length_ratio = 1.0;  // median moved length, final / initial
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed, std::size_t instance) {
  Inputs inputs;
  BenchRng geometry(stream_seed(seed, 2 * instance + 1));
  BenchRng traffic(stream_seed(seed, 2 * instance + 2));
  inputs.links = square_links(spec.n, spec.side, geometry);
  ChurnShape churn;
  churn.stationary_start = spec.stationary_start;
  churn.timed_events = spec.timed_events;
  if (spec.mobility) {
    inputs.stream = waypoint_churn(inputs.links, spec.side, churn, traffic);
    inputs.length_ratio = ratio(percentile(inputs.stream.moved_final_length, 0.5),
                                percentile(inputs.stream.moved_initial_length, 0.5));
  } else {
    inputs.stream = poisson_churn(spec.n, churn, traffic);
  }
  inputs.final_requests = inputs.links.requests;
  inputs.final_active.assign(spec.n, false);
  for (const ChurnEvent& event : inputs.stream.events) {
    if (event.kind == ChurnEvent::Kind::link_update) {
      inputs.final_requests[event.link] = event.request;
    } else {
      inputs.final_active[event.link] = event.kind == ChurnEvent::Kind::arrival;
    }
  }
  return inputs;
}

std::vector<std::size_t> active_links(const std::vector<bool>& active) {
  std::vector<std::size_t> links;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i]) links.push_back(i);
  }
  return links;
}

/// Offline first-fit greedy over the final active set, with the same
/// metric, current endpoints, powers and parameters as the online state —
/// the reference colors_ratio divides by. The offline schedule is itself
/// re-validated. `seconds` is its time at the reference speed.
int offline_colors(const Instance& instance, const Inputs& inputs,
                   std::span<const double> powers, RunResult& result, SpeedProbe& probe,
                   double& seconds) {
  std::vector<Request> requests;
  std::vector<double> subset_powers;
  for (const std::size_t link : active_links(inputs.final_active)) {
    requests.push_back(inputs.final_requests[link]);
    subset_powers.push_back(powers[link]);
  }
  const Instance subset(instance.metric_ptr(), std::move(requests));
  const Stopwatch watch;
  const oisched::Schedule schedule =
      oisched::greedy_coloring(subset, subset_powers, kParams, kVariant);
  seconds = watch.elapsed_seconds() * probe.factor(kBracketPasses);
  const oisched::ScheduleReport report =
      oisched::validate_schedule(subset, subset_powers, schedule, kParams, kVariant);
  result.require(report.valid, "offline greedy schedule is not feasible");
  return schedule.num_colors;
}

/// What the first replay of an instance ended with; later replays of the
/// same stream must end identically.
struct Outcome {
  bool seen = false;
  oisched::Schedule schedule;
  int colors = 0;
  int offline = 0;
  double offline_seconds = 0.0;
  OnlineStats stats;
  std::size_t final_active = 0;
  double length_ratio = 1.0;
};

/// Checks a final schedule against the stream's final active set, and
/// against the instance's first replay (or records it as the first).
/// `finish_first` fills the colour and counter fields on first sight.
void check_final(Outcome& outcome, const Inputs& inputs, const oisched::Schedule& schedule,
                 RunResult& result, const std::function<void(Outcome&)>& finish_first) {
  bool active_ok = schedule.color_of.size() == inputs.final_active.size();
  for (std::size_t i = 0; active_ok && i < inputs.final_active.size(); ++i) {
    active_ok = (schedule.color_of[i] >= 0) == inputs.final_active[i];
  }
  result.require(active_ok, "final active set differs from the event stream's");
  if (outcome.seen) {
    result.require(schedule.color_of == outcome.schedule.color_of &&
                       schedule.num_colors == outcome.schedule.num_colors,
                   "replaying the same stream gave a different schedule");
    return;
  }
  outcome.seen = true;
  outcome.schedule = schedule;
  outcome.final_active = active_links(inputs.final_active).size();
  outcome.length_ratio = inputs.length_ratio;
  finish_first(outcome);
}

template <typename Field>
double mean_over(const std::vector<Outcome>& outcomes, Field field) {
  double total = 0.0;
  for (const Outcome& outcome : outcomes) total += static_cast<double>(field(outcome));
  return total / static_cast<double>(outcomes.size());
}

/// colors_final and colors_ratio: the final colour count averaged over the
/// instances, and its ratio to the offline reference's average.
void set_color_metrics(std::vector<Metric>& end_to_end, const std::vector<Outcome>& outcomes) {
  const double colors = mean_over(outcomes, [](const Outcome& o) { return o.colors; });
  const double offline = mean_over(outcomes, [](const Outcome& o) { return o.offline; });
  end_to_end.push_back({"colors_final", colors, "count"});
  end_to_end.push_back({"colors_ratio", ratio(colors, offline), "ratio"});
}

/// The per-layer figures both runners read off the schedulers' counters
/// and the offline reference, averaged over the instances.
void set_counter_layers(std::vector<Metric>& layers, const std::vector<Outcome>& outcomes) {
  const auto mean = [&](auto field) { return mean_over(outcomes, field); };
  const double bound_hits = mean([](const Outcome& o) { return o.stats.bound_hits; });
  const double fallbacks = mean([](const Outcome& o) { return o.stats.exact_fallbacks; });
  const double migrations = mean([](const Outcome& o) { return o.stats.migrations; });
  const double skips = mean([](const Outcome& o) { return o.stats.compaction_skips; });
  set(layers, "sinr.farfield_certified_frac", ratio(bound_hits, bound_hits + fallbacks));
  set(layers, "sinr.exact_fallbacks", fallbacks);
  set(layers, "online.migrations", migrations);
  set(layers, "online.compaction_skips", skips);
  set(layers, "online.compaction_success_frac", ratio(migrations, migrations + skips));
  set(layers, "online.update_migration_frac",
      ratio(mean([](const Outcome& o) { return o.stats.update_migrations; }),
            mean([](const Outcome& o) { return o.stats.link_updates; })));
  set(layers, "online.classes_opened",
      mean([](const Outcome& o) { return o.stats.classes_opened; }));
  set(layers, "online.peak_colors", mean([](const Outcome& o) { return o.stats.peak_colors; }));
  set(layers, "online.removal_rebuilds",
      mean([](const Outcome& o) { return o.stats.removal_rebuilds; }));
  set(layers, "core.offline_colors", mean([](const Outcome& o) { return o.offline; }));
  set(layers, "core.offline_greedy_s",
      mean([](const Outcome& o) { return o.offline_seconds; }));
}

/// Span totals of the scheduler's three phases, per traced round, and
/// their shares of the traced rounds' event time, scaled to the reference
/// speed by each round's probe factor.
struct PhaseTotals {
  static constexpr const char* kNames[3] = {"feasibility_scan", "accumulator_update",
                                            "compaction"};
  double seconds[3] = {0.0, 0.0, 0.0};
  double event_seconds = 0.0;
  std::size_t rounds = 0;

  void add(const std::map<std::string, std::vector<double>>& spans, double events_time,
           double factor) {
    for (std::size_t p = 0; p < 3; ++p) {
      if (const auto it = spans.find(kNames[p]); it != spans.end()) {
        seconds[p] += sum(it->second) * factor;
      }
    }
    event_seconds += events_time * factor;
    ++rounds;
  }
  void report(std::vector<Metric>& layers) const {
    for (std::size_t p = 0; p < 3; ++p) {
      const std::string prefix = std::string("online.") + kNames[p];
      set(layers, prefix + "_s", ratio(seconds[p], static_cast<double>(rounds)));
      set(layers, prefix + ".share", ratio(seconds[p], event_seconds));
    }
  }
};

double gauge_mib(const obs::MetricsSnapshot& snapshot, const char* name) {
  const auto* entry = snapshot.find(name);
  return entry == nullptr ? 0.0 : entry->gauge * 8.0 / (1024.0 * 1024.0);
}

/// Set-up timings of a run: raw, and scaled to the reference speed.
struct SetupSamples {
  std::vector<double> raw;
  std::vector<double> scaled;
  /// The factor of the last build, for timings taken inside it.
  double last_factor = 1.0;
};

/// Repeats `build` until kMinSetupSeconds of set-up time is spent (at
/// least once), timing each build between two probe brackets whose mean
/// factor scales it; the previous build is destroyed before the next
/// starts, so one set-up is resident at a time. Returns the last.
template <typename Build>
auto timed_setups(Build build, SpeedProbe& probe, SetupSamples& samples) {
  decltype(build()) state;
  double spent = 0.0;
  do {
    state.reset();
    const double before = probe.factor(kBracketPasses);
    const Stopwatch watch;
    state = build();
    const double seconds = watch.elapsed_seconds();
    samples.last_factor = 0.5 * (before + probe.factor(kBracketPasses));
    samples.raw.push_back(seconds);
    samples.scaled.push_back(seconds * samples.last_factor);
    spent += seconds;
  } while (spent < kMinSetupSeconds);
  return state;
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

// ---------------------------------------------------------------------------
// Bare scheduler workloads.

/// Everything one set-up builds. Members are destroyed in reverse order,
/// so the scheduler goes before the instance it references.
struct BareState {
  std::unique_ptr<Instance> instance;
  std::vector<double> powers;
  std::unique_ptr<OnlineScheduler> scheduler;
  double gain_build_seconds = 0.0;
};

std::unique_ptr<BareState> set_up_bare(const Spec& spec, const LinkSet& links,
                                       obs::TraceTrack* track) {
  auto state = std::make_unique<BareState>();
  state->instance = std::make_unique<Instance>(
      std::make_shared<oisched::EuclideanMetric>(links.points), links.requests);
  state->powers = oisched::SqrtPower().assign(*state->instance, kParams.alpha);
  OnlineSchedulerOptions options;
  options.storage = spec.backend;
  options.telemetry.trace = track;
  if (spec.mobility) {
    options.mobility = true;
    options.fresh_power = std::make_shared<oisched::SqrtPower>();
  }
  if (spec.farfield) {
    // As in the recorded n = 131072 flagship: 1024 cells, exact
    // neighbourhood of radius 3 around each endpoint cell.
    options.farfield = true;
    options.farfield_options.target_cells = 1024;
    options.farfield_options.near_radius = 3;
  }
  if (!spec.mobility && spec.backend == GainBackend::dense) {
    // The shared dense table; the scheduler below takes it from the cache.
    const Stopwatch watch;
    (void)state->instance->gains(state->powers, kParams.alpha, kVariant);
    state->gain_build_seconds = watch.elapsed_seconds();
  }
  state->scheduler = std::make_unique<OnlineScheduler>(*state->instance, state->powers,
                                                       kParams, kVariant, options);
  return state;
}

struct KindSamples {
  std::vector<double> arrival;
  std::vector<double> departure;
  std::vector<double> update;

  std::vector<double>& of(ChurnEvent::Kind kind) {
    if (kind == ChurnEvent::Kind::departure) return departure;
    if (kind == ChurnEvent::Kind::link_update) return update;
    return arrival;
  }
};

RunResult run_bare(const Spec& spec, const RunOptions& options) {
  RunResult result;
  const Plan plan{options.trace, spec.instances};
  std::vector<Outcome> outcomes(spec.instances);
  SpeedProbe probe;
  SetupSamples setups;
  std::vector<double> gain_build_samples, untraced_rates, traced_rates;
  std::vector<double> round_p50s, round_p99s, raw_rates, raw_p50s, factors;
  std::size_t warmup_events = 0;
  KindSamples kinds;
  PhaseTotals phases;
  double resident_mib = 0.0;

  const Stopwatch::TimePoint start = Stopwatch::now();
  std::size_t round = 0;
  for (; plan.keep_going(round, start, options.seconds); ++round) {
    // Regenerated each round (untimed), so one instance's inputs are
    // resident at a time and peak_rss_mb stays the scheduler's.
    const Inputs in = make_inputs(spec, options.seed, plan.instance(round));
    warmup_events = in.stream.warmup;
    const bool traced = plan.traced(round);
    obs::TraceRecorder recorder;
    obs::TraceTrack* track = traced ? &recorder.create_track("scheduler") : nullptr;
    std::unique_ptr<BareState> state =
        timed_setups([&] { return set_up_bare(spec, in.links, track); }, probe, setups);
    if (state->gain_build_seconds > 0.0) {
      gain_build_samples.push_back(state->gain_build_seconds * setups.last_factor);
    } else if (options.trace) {
      // The scheduler built a private table; time the same build alone.
      const Stopwatch watch;
      const oisched::GainMatrix standalone(*state->instance, state->powers, kParams.alpha,
                                           kVariant, false, spec.backend);
      gain_build_samples.push_back(watch.elapsed_seconds() * probe.factor(kBracketPasses));
    }
    OnlineScheduler& scheduler = *state->scheduler;

    const auto apply = [&](const ChurnEvent& event) {
      ++result.attempted;
      try {
        scheduler.apply(event);
      } catch (const std::exception& error) {
        ++result.failed;
        result.require(false, std::string("event rejected: ") + error.what());
      }
    };
    const std::vector<ChurnEvent>& events = in.stream.events;
    for (std::size_t i = 0; i < in.stream.warmup; ++i) apply(events[i]);
    // Each apply is timed alone and followed by probe passes; the round's
    // throughput is its events ÷ the sum of their scaled times.
    ProbedSeries series(probe);
    const Stopwatch::TimePoint timed_start = Stopwatch::now();
    for (std::size_t i = in.stream.warmup; i < events.size(); ++i) {
      const Stopwatch::TimePoint before = Stopwatch::now();
      apply(events[i]);
      series.add(seconds_since(before));
    }
    const std::vector<double> latencies = series.scaled();
    const double timed = static_cast<double>(latencies.size());
    if (traced) {
      traced_rates.push_back(timed / sum(latencies));
      phases.add(span_durations(recorder, timed_start), sum(series.raw()),
                 series.factor());
    } else {
      untraced_rates.push_back(timed / sum(latencies));
      round_p50s.push_back(percentile(latencies, 0.50));
      round_p99s.push_back(percentile(latencies, 0.99));
      raw_rates.push_back(timed / sum(series.raw()));
      raw_p50s.push_back(percentile(series.raw(), 0.50));
      factors.push_back(series.factor());
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        kinds.of(events[in.stream.warmup + i].kind).push_back(latencies[i]);
      }
    }

    // Correctness gates, untimed.
    result.require(scheduler.validate_against_direct(),
                   "final state disagrees with the direct engine");
    result.require(scheduler.stats().removal_rebuilds == 0, "exact policy replayed a class");
    result.require(scheduler.active_count() == active_links(in.final_active).size(),
                   "final active count differs from the event stream's");
    check_final(outcomes[plan.instance(round)], in, scheduler.snapshot(), result,
                [&](Outcome& outcome) {
                  outcome.colors = scheduler.num_colors();
                  outcome.stats = scheduler.stats();
                  outcome.offline = offline_colors(*state->instance, in, scheduler.powers(),
                                                   result, probe, outcome.offline_seconds);
                  obs::MetricsRegistry registry;
                  oisched::register_gain_metrics(registry, scheduler);
                  resident_mib = std::max(
                      resident_mib, gauge_mib(registry.scrape(), "oisched_gain_resident_doubles"));
                });
  }

  result.end_to_end = {
      {"events_per_sec", percentile(untraced_rates, 0.5), "1/s"},
      {"event_p50_us", percentile(round_p50s, 0.5) * 1e6, "us"},
      {"event_p99_us", percentile(round_p99s, 0.5) * 1e6, "us"},
      {"setup_s", percentile(setups.scaled, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  set_color_metrics(result.end_to_end, outcomes);

  std::vector<Metric> layers = layer_table();
  set(layers, "sinr.gain_build_s", percentile(gain_build_samples, 0.5));
  set(layers, "sinr.gain_resident_mb", resident_mib);
  const double untraced_rounds = static_cast<double>(untraced_rates.size());
  const std::pair<const char*, const std::vector<double>*> kind_rows[] = {
      {"arrival", &kinds.arrival}, {"departure", &kinds.departure}, {"update", &kinds.update}};
  for (const auto& [kind, samples] : kind_rows) {
    const std::string prefix = std::string("online.") + kind;
    set(layers, prefix + "_us.p50", percentile(*samples, 0.50) * 1e6);
    set(layers, prefix + "_us.p99", percentile(*samples, 0.99) * 1e6);
    set(layers, prefix + "_s", sum(*samples) / untraced_rounds);
    set(layers, prefix + "s", static_cast<double>(samples->size()) / untraced_rounds);
  }
  phases.report(layers);
  set_counter_layers(layers, outcomes);
  set(layers, "trace.overhead_frac",
      1.0 - ratio(percentile(traced_rates, 0.5), percentile(untraced_rates, 0.5)));
  set(layers, "inputs.length_ratio",
      mean_over(outcomes, [](const Outcome& o) { return o.length_ratio; }));
  result.per_layer = std::move(layers);

  result.details = {
      {"universe", static_cast<double>(spec.n), "count"},
      {"instances", static_cast<double>(spec.instances), "count"},
      {"rounds", static_cast<double>(round), "count"},
      {"traced_rounds", static_cast<double>(phases.rounds), "count"},
      {"warmup_events", static_cast<double>(warmup_events), "count"},
      {"timed_events_per_round", static_cast<double>(spec.timed_events), "count"},
      {"untraced_rounds", static_cast<double>(untraced_rates.size()), "count"},
      {"setup_samples", static_cast<double>(setups.raw.size()), "count"},
      {"round_events_per_sec_min", min_of(untraced_rates), "1/s"},
      {"round_events_per_sec_max", max_of(untraced_rates), "1/s"},
      {"speed_factor", percentile(factors, 0.5), "ratio"},
      {"raw_events_per_sec", percentile(raw_rates, 0.5), "1/s"},
      {"raw_event_p50_us", percentile(raw_p50s, 0.5) * 1e6, "us"},
      {"raw_setup_s", percentile(setups.raw, 0.5), "s"},
      {"final_active_mean", mean_over(outcomes, [](const Outcome& o) { return o.final_active; }),
       "count"},
  };
  return result;
}

// ---------------------------------------------------------------------------
// Service workload.

constexpr std::size_t kServiceShards = 3;
/// Open-loop rate of the paced phase, about a fifth of saturation.
constexpr double kPacedRate = 8000.0;
/// Events of the timed stream the paced phase replays (a prefix).
constexpr std::size_t kPacedEvents = 4000;

/// Where the service's threads run: the benchmark thread on the first
/// allowed vCPU and the shard threads on the rest, so the probe brackets
/// measure the vCPUs the shards use. With fewer than kServiceShards + 1
/// vCPUs nothing is pinned and the brackets probe every vCPU.
struct ServiceCpus {
  std::vector<int> submitter;
  std::vector<int> shards;
};

ServiceCpus service_cpus() {
  const std::vector<int> all = allowed_cpus();
  if (all.size() < kServiceShards + 1) return {{}, all};
  return {{all.front()}, std::vector<int>(all.begin() + 1, all.end())};
}

/// Members are destroyed in reverse order: the service (which joins its
/// shard threads) before the registry and instance it references.
struct ServiceState {
  std::unique_ptr<Instance> instance;
  std::vector<double> powers;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<SchedulerService> service;
  double gain_build_seconds = 0.0;
};

std::unique_ptr<ServiceState> set_up_service(const LinkSet& links, const ServiceCpus& cpus,
                                             obs::TraceRecorder* recorder) {
  auto state = std::make_unique<ServiceState>();
  state->instance = std::make_unique<Instance>(
      std::make_shared<oisched::EuclideanMetric>(links.points), links.requests);
  state->powers = oisched::SqrtPower().assign(*state->instance, kParams.alpha);
  const Stopwatch watch;
  (void)state->instance->gains(state->powers, kParams.alpha, kVariant);
  state->gain_build_seconds = watch.elapsed_seconds();
  state->registry = std::make_unique<obs::MetricsRegistry>();
  oisched::SchedulerServiceOptions options;
  options.num_shards = kServiceShards;
  options.registry = state->registry.get();
  options.trace = recorder;
  // The shard threads inherit the creating thread's vCPUs.
  if (!cpus.submitter.empty()) pin_current_thread(cpus.shards);
  state->service = std::make_unique<SchedulerService>(*state->instance, state->powers,
                                                      kParams, kVariant, options);
  if (!cpus.submitter.empty()) pin_current_thread(cpus.submitter);
  return state;
}

obs::LatencyHistogram histogram(obs::MetricsRegistry& registry, const char* name) {
  return registry.scrape().histogram_total(name);
}

/// Counts one submission; a structural refusal is a failed operation.
void count_submit(const oisched::Expected<void>& submitted, RunResult& result) {
  ++result.attempted;
  if (submitted.ok()) return;
  ++result.failed;
  result.require(false, "submit refused: " + submitted.error());
}

/// The service gates: every shard revalidates against the direct engine,
/// nothing was rejected (each rejection is a failed operation), and on an
/// instance's first replay every shard matches a single-thread replay of
/// its sub-stream bit for bit. Later replays must end in the first one's
/// schedule (check_final), so they skip that costly replay and the run
/// fits more timed rounds.
void check_service(SchedulerService& service, const ChurnTrace& trace, bool first_replay,
                   RunResult& result) {
  const std::size_t rejected = service.stats().rejected;
  result.failed += rejected;
  result.require(rejected == 0, "the service rejected events");
  result.require(service.validate_against_direct(),
                 "service state disagrees with the direct engine");
  if (first_replay) {
    result.require(service.validate_against_single_shard(trace),
                   "a shard differs from its single-thread replay");
  }
}

RunResult run_service(const Spec& spec, const RunOptions& options) {
  RunResult result;
  std::vector<Inputs> inputs;
  std::vector<ChurnTrace> full_traces, paced_traces;
  for (std::size_t k = 0; k < spec.instances; ++k) {
    inputs.push_back(make_inputs(spec, options.seed, k));
    const std::vector<ChurnEvent>& events = inputs.back().stream.events;
    const std::size_t paced_end =
        std::min(events.size(), inputs.back().stream.warmup + kPacedEvents);
    full_traces.push_back(ChurnTrace{spec.n, events});
    paced_traces.push_back(ChurnTrace{
        spec.n, std::vector<ChurnEvent>(events.begin(),
                                        events.begin() + static_cast<std::ptrdiff_t>(paced_end))});
  }
  const Plan plan{options.trace, spec.instances};
  std::vector<Outcome> outcomes(spec.instances);
  SpeedProbe probe;
  SetupSamples setups;
  const ServiceCpus cpus = service_cpus();
  if (!cpus.submitter.empty()) pin_current_thread(cpus.submitter);
  std::vector<double> gain_build_samples, untraced_rates, traced_rates;
  std::vector<double> lags, submit_seconds, drain_seconds;
  std::vector<double> cpu_per_event, batch_means, skews, boundary_refreshes, queue_waits;
  // Per untraced round, scaled: the saturated phase's median and p99
  // handling time in shards, and the paced phase's median and p99
  // submit-to-completion latency.
  std::vector<double> round_p50s, round_p99s, paced_p50s, paced_p99s;
  std::vector<double> raw_rates, raw_p50s, saturated_factors, paced_factors;
  std::size_t handling_samples = 0;
  std::size_t paced_samples = 0;
  PhaseTotals phases;
  double boundary_refresh_seconds = 0.0;
  double resident_mib = 0.0;

  const Stopwatch::TimePoint start = Stopwatch::now();
  std::size_t round = 0;
  for (; plan.keep_going(round, start, options.seconds); ++round) {
    const Inputs& in = inputs[plan.instance(round)];
    const std::vector<ChurnEvent>& events = in.stream.events;
    const std::size_t warmup = in.stream.warmup;
    const bool traced = plan.traced(round);
    const bool first_replay = !outcomes[plan.instance(round)].seen;
    {
      // Saturated phase: submit the timed stream as fast as the queues
      // take it; throughput runs from the first submit to drain() returning.
      // The phase runs on the shards' vCPUs, so it is scaled by probe
      // brackets on those vCPUs right before and after it; probing during
      // it would put more busy threads next to the shards.
      obs::TraceRecorder recorder;
      std::unique_ptr<ServiceState> state = timed_setups(
          [&] { return set_up_service(in.links, cpus, traced ? &recorder : nullptr); }, probe,
          setups);
      gain_build_samples.push_back(state->gain_build_seconds * setups.last_factor);
      SchedulerService& service = *state->service;
      for (std::size_t i = 0; i < warmup; ++i) count_submit(service.submit(events[i]), result);
      service.drain();
      const obs::LatencyHistogram before =
          histogram(*state->registry, "oisched_event_latency_seconds");
      const double f_before = cores_factor(cpus.shards, kBracketPasses);
      const double cpu_before = cpu_seconds();
      std::vector<double> submits;
      submits.reserve(events.size() - warmup);
      const Stopwatch::TimePoint timed_start = Stopwatch::now();
      for (std::size_t i = warmup; i < events.size(); ++i) {
        const Stopwatch::TimePoint submit_start = Stopwatch::now();
        count_submit(service.submit(events[i]), result);
        submits.push_back(seconds_since(submit_start));
      }
      const Stopwatch::TimePoint drain_start = Stopwatch::now();
      service.drain();
      const Stopwatch::TimePoint drained = Stopwatch::now();
      const double cpu_after = cpu_seconds();
      const double f = 0.5 * (f_before + cores_factor(cpus.shards, kBracketPasses));
      const double wall = Stopwatch::seconds_between(timed_start, drained);
      const double timed = static_cast<double>(events.size() - warmup);
      (traced ? traced_rates : untraced_rates).push_back(timed / (wall * f));
      const obs::LatencyHistogram after =
          histogram(*state->registry, "oisched_event_latency_seconds");
      if (traced) {
        const auto spans = span_durations(recorder, timed_start);
        phases.add(spans, after.sum() - before.sum(), f);
        if (const auto it = spans.find("boundary_refresh"); it != spans.end()) {
          boundary_refresh_seconds += sum(it->second) * f;
        }
      } else {
        raw_rates.push_back(timed / wall);
        saturated_factors.push_back(f);
        for (const double submit : submits) submit_seconds.push_back(submit * f);
        drain_seconds.push_back(Stopwatch::seconds_between(drain_start, drained) * f);
        cpu_per_event.push_back((cpu_after - cpu_before) / timed * f);
        const obs::LatencyHistogram handling = histogram_delta(after, before);
        raw_p50s.push_back(histogram_quantile(handling, 0.50));
        round_p50s.push_back(raw_p50s.back() * f);
        round_p99s.push_back(histogram_quantile(handling, 0.99) * f);
        handling_samples += handling.count();
      }

      check_service(service, full_traces[plan.instance(round)], first_replay, result);
      const oisched::ServiceStats stats = service.stats();
      boundary_refreshes.push_back(static_cast<double>(stats.boundary_refreshes));
      batch_means.push_back(ratio(stats.processed, stats.batches));
      std::vector<double> shard_events;
      for (std::size_t s = 0; s < service.num_shards(); ++s) {
        shard_events.push_back(static_cast<double>(service.shard(s).stats().events()));
      }
      skews.push_back(ratio(max_of(shard_events),
                            sum(shard_events) / static_cast<double>(shard_events.size())));
      check_final(outcomes[plan.instance(round)], in, service.snapshot(), result,
                  [&](Outcome& outcome) {
                    outcome.colors = service.num_colors();
                    outcome.stats = stats.scheduler;
                    outcome.offline = offline_colors(*state->instance, in, state->powers,
                                                     result, probe, outcome.offline_seconds);
                    resident_mib = std::max(
                        resident_mib, gauge_mib(state->registry->scrape(),
                                                "oisched_gain_resident_doubles"));
                  });
    }
    {
      // Paced phase: an open loop at kPacedRate over a prefix of the same
      // stream. Each event's latency runs from its due time, so a stall
      // also charges the events due behind it; how late the generator
      // submitted is recorded separately. Probe brackets on the shards'
      // vCPUs scale the phase, as above.
      obs::TraceRecorder recorder;
      std::unique_ptr<ServiceState> state = timed_setups(
          [&] { return set_up_service(in.links, cpus, traced ? &recorder : nullptr); }, probe,
          setups);
      SchedulerService& service = *state->service;
      for (std::size_t i = 0; i < warmup; ++i) count_submit(service.submit(events[i]), result);
      service.drain();
      const obs::LatencyHistogram before =
          histogram(*state->registry, "oisched_service_latency_seconds");
      const std::vector<ChurnEvent>& due_events = paced_traces[plan.instance(round)].events;
      const auto interval = std::chrono::duration_cast<Stopwatch::Clock::duration>(
          std::chrono::duration<double>(1.0 / kPacedRate));
      const double f_before = cores_factor(cpus.shards, kBracketPasses);
      const Stopwatch::TimePoint paced_start = Stopwatch::now();
      for (std::size_t i = warmup; i < due_events.size(); ++i) {
        const Stopwatch::TimePoint due =
            paced_start + interval * static_cast<std::int64_t>(i - warmup);
        Stopwatch::TimePoint now = Stopwatch::now();
        while (now < due) now = Stopwatch::now();
        if (!traced) lags.push_back(Stopwatch::seconds_between(due, now));
        count_submit(service.submit(due_events[i], due), result);
      }
      service.drain();
      const obs::LatencyHistogram after =
          histogram(*state->registry, "oisched_service_latency_seconds");
      const double f = 0.5 * (f_before + cores_factor(cpus.shards, kBracketPasses));
      if (traced) {
        const auto spans = span_durations(recorder, paced_start);
        if (const auto it = spans.find("queue_wait"); it != spans.end()) {
          for (const double wait : it->second) queue_waits.push_back(wait * f);
        }
      } else {
        const obs::LatencyHistogram round_paced = histogram_delta(after, before);
        paced_p50s.push_back(histogram_quantile(round_paced, 0.50) * f);
        paced_p99s.push_back(histogram_quantile(round_paced, 0.99) * f);
        paced_factors.push_back(f);
        paced_samples += round_paced.count();
      }
      check_service(service, paced_traces[plan.instance(round)], first_replay, result);
    }
  }

  result.end_to_end = {
      {"events_per_sec", percentile(untraced_rates, 0.5), "1/s"},
      {"event_p50_us", percentile(round_p50s, 0.5) * 1e6, "us"},
      {"event_p99_us", percentile(round_p99s, 0.5) * 1e6, "us"},
      {"setup_s", percentile(setups.scaled, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  set_color_metrics(result.end_to_end, outcomes);

  std::vector<Metric> layers = layer_table();
  set(layers, "sinr.gain_build_s", percentile(gain_build_samples, 0.5));
  set(layers, "sinr.gain_resident_mb", resident_mib);
  phases.report(layers);
  set_counter_layers(layers, outcomes);
  set(layers, "service.submit_us.p50", percentile(submit_seconds, 0.50) * 1e6);
  set(layers, "service.drain_s", percentile(drain_seconds, 0.5));
  set(layers, "service.batch_mean", percentile(batch_means, 0.5));
  set(layers, "service.shard_skew", percentile(skews, 0.5));
  set(layers, "service.cpu_us_per_event", percentile(cpu_per_event, 0.5) * 1e6);
  set(layers, "service.queue_wait_us.p50", percentile(queue_waits, 0.50) * 1e6);
  set(layers, "service.queue_wait_us.p99", percentile(queue_waits, 0.99) * 1e6);
  set(layers, "service.boundary_refresh_s",
      ratio(boundary_refresh_seconds, static_cast<double>(phases.rounds)));
  set(layers, "service.boundary_refreshes", percentile(boundary_refreshes, 0.5));
  set(layers, "service.latency_us.p50", percentile(paced_p50s, 0.5) * 1e6);
  set(layers, "service.latency_us.p99", percentile(paced_p99s, 0.5) * 1e6);
  set(layers, "service.generator_lag_us.p99", percentile(lags, 0.99) * 1e6);
  set(layers, "trace.overhead_frac",
      1.0 - ratio(percentile(traced_rates, 0.5), percentile(untraced_rates, 0.5)));
  result.per_layer = std::move(layers);

  result.details = {
      {"universe", static_cast<double>(spec.n), "count"},
      {"shards", static_cast<double>(kServiceShards), "count"},
      {"instances", static_cast<double>(spec.instances), "count"},
      {"rounds", static_cast<double>(round), "count"},
      {"traced_rounds", static_cast<double>(phases.rounds), "count"},
      {"warmup_events", static_cast<double>(inputs[0].stream.warmup), "count"},
      {"timed_events_per_round", static_cast<double>(spec.timed_events), "count"},
      {"paced_events_per_round", static_cast<double>(kPacedEvents), "count"},
      {"paced_rate", kPacedRate, "1/s"},
      {"paced_latency_samples", static_cast<double>(paced_samples), "count"},
      {"handling_latency_samples", static_cast<double>(handling_samples), "count"},
      {"setup_samples", static_cast<double>(setups.raw.size()), "count"},
      {"round_events_per_sec_min", min_of(untraced_rates), "1/s"},
      {"round_events_per_sec_max", max_of(untraced_rates), "1/s"},
      {"speed_factor", percentile(saturated_factors, 0.5), "ratio"},
      {"paced_speed_factor", percentile(paced_factors, 0.5), "ratio"},
      {"raw_events_per_sec", percentile(raw_rates, 0.5), "1/s"},
      {"raw_event_p50_us", percentile(raw_p50s, 0.5) * 1e6, "us"},
      {"raw_setup_s", percentile(setups.raw, 0.5), "s"},
  };
  return result;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"churn-n4096", "mobility-n256", "scale-n16384", "service-n1024"};
}

RunResult run_workload(const std::string& name, const RunOptions& options) {
  Spec spec;
  if (name == "churn-n4096") {
    spec.n = 4096;
    spec.stationary_start = false;
    spec.timed_events = 10000;
    return run_bare(spec, options);
  }
  if (name == "mobility-n256") {
    // A quarter of the links on a quarter of the area keeps n1024's density;
    // the 0.5 MiB private matrix stays in a core's L2, so the row and
    // column refreshes do not queue behind other tenants' memory traffic.
    spec.n = 256;
    spec.side = 500.0;
    spec.instances = 24;
    spec.mobility = true;
    spec.timed_events = 6000;
    return run_bare(spec, options);
  }
  if (name == "scale-n16384") {
    // Tableless and far-field like the n = 131072 flagship, at a size whose
    // O(n) state stays in a core's L2: at n = 131072 the rounds slowed by
    // ~18% whenever another core streamed memory, which no probe on this
    // thread could see.
    spec.n = 16384;
    spec.backend = GainBackend::computed;
    spec.farfield = true;
    spec.instances = 48;
    spec.stationary_start = false;
    spec.timed_events = 500;
    return run_bare(spec, options);
  }
  if (name == "service-n1024") {
    spec.n = 1024;
    spec.instances = 12;
    spec.timed_events = 20000;
    return run_service(spec, options);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
