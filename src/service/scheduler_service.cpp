#include "service/scheduler_service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "sinr/gain_storage.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace oisched {

/// Completion handle of a synchronous API call: lives on the caller's
/// stack, filled by the shard thread.
struct SchedulerService::Completion {
  std::promise<AdmitResult> promise;
};

struct SchedulerService::Shard {
  Shard(const Instance& instance, std::span<const double> powers,
        const SinrParams& params, Variant variant, OnlineSchedulerOptions options)
      : scheduler(instance, powers, params, variant, options) {}

  OnlineScheduler scheduler;  // shard-thread-only between construction and join
  MpscQueue<ServiceEvent> queue;
  std::thread thread;

  // Published by the shard thread under the service's state_mutex_ per
  // batch and before each synchronous completion; everything the control
  // plane and the registry read while shards run.
  std::size_t processed = 0;
  std::size_t rejected = 0;
  /// Submit-to-completion latencies, as a bounded-memory histogram
  /// (exact count/mean/min/max, deterministic bounded-error quantiles)
  /// instead of the raw vector it replaced — a drained saturation run
  /// used to retain one double per event forever.
  obs::LatencyHistogram latency;
  obs::LatencyHistogram batch_sizes;
  OnlineStats stats_snapshot;
  int colors = 0;
  std::size_t active = 0;

  obs::TraceTrack* track = nullptr;  // set iff the service has a recorder
};

SchedulerService::SchedulerService(const Instance& instance,
                                   std::span<const double> powers,
                                   const SinrParams& params, Variant variant,
                                   SchedulerServiceOptions options)
    : instance_(instance),
      powers_(powers.begin(), powers.end()),
      params_(params),
      variant_(variant),
      options_(std::move(options)) {
  require(options_.num_shards >= 1, "SchedulerService: num_shards must be >= 1");
  require(options_.num_shards <= instance.size(),
          "SchedulerService: more shards than links");
  require(options_.scheduler.storage != GainBackend::appendable,
          "SchedulerService: the appendable backend (universe growth) is not "
          "supported under sharding — fresh links would need a coordinated "
          "index across every shard's tables");
  // Sequential construction: the first shard pays the instance's gain-table
  // build (or its own, on computed), the rest hit the cache.
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    OnlineSchedulerOptions scheduler_options = options_.scheduler;
    // Each shard gets its OWN trace track (or none) — a caller-provided
    // track shared across N threads would break its single-writer contract.
    scheduler_options.telemetry = {};
    if (options_.trace != nullptr) {
      scheduler_options.telemetry.trace =
          &options_.trace->create_track("shard" + std::to_string(s));
    }
    shards_.push_back(std::make_unique<Shard>(instance_, powers_, params_, variant_,
                                              scheduler_options));
    shards_.back()->track = scheduler_options.telemetry.trace;
  }
  if (options_.registry != nullptr) register_metrics(*options_.registry);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { shard_loop(s); });
  }
}

SchedulerService::~SchedulerService() { stop(); }

void SchedulerService::register_metrics(obs::MetricsRegistry& registry) {
  struct ShardSeries {
    OnlineSeriesWriter online;
    obs::MetricId latency = 0, batch_size = 0, queue_depth = 0, processed = 0, rejected = 0;
  };
  struct Series {
    std::vector<ShardSeries> shards;
    obs::MetricId submitted = 0, resident = 0;
  } series;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string labels = "shard=\"" + std::to_string(s) + "\"";
    ShardSeries& ids = series.shards.emplace_back();
    ids.online = register_online_series(registry, labels);
    ids.latency = registry.histogram("oisched_service_latency_seconds",
                                     "Submit-to-completion latency (queue wait + work)",
                                     labels);
    ids.batch_size = registry.histogram("oisched_service_batch_size",
                                        "Events per consumer-side queue drain", labels);
    ids.queue_depth = registry.gauge("oisched_service_queue_depth",
                                     "Events pushed but not yet drained (sampled at scrape)",
                                     labels);
    ids.processed = registry.counter("oisched_service_processed_total",
                                     "Events completed by the shard thread", labels);
    ids.rejected = registry.counter("oisched_service_rejected_total",
                                    "Events completed with success == false", labels);
  }
  series.submitted = registry.counter("oisched_service_submitted_total",
                                      "Events accepted into a shard queue");
  series.resident = registry.gauge(
      "oisched_gain_resident_doubles",
      "Gain-table entries resident across the shards' distinct matrices");
  // Every series reads what the shards publish, under the same lock they
  // publish it with. Lock order is registry mutex →
  // state_mutex_ → queue mutexes; shard threads never take the registry
  // mutex, so the order is acyclic.
  registry.add_collector([this, series = std::move(series)](obs::MetricsSnapshot& out) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = *shards_[s];
      const ShardSeries& ids = series.shards[s];
      ids.online(out, shard.stats_snapshot, shard.colors, shard.active);
      out.merge_histogram(ids.latency, shard.latency);
      out.merge_histogram(ids.batch_size, shard.batch_sizes);
      out.add_gauge(ids.queue_depth, static_cast<double>(shard.queue.pending()));
      out.add_counter(ids.processed, shard.processed);
      out.add_counter(ids.rejected, shard.rejected);
    }
    out.add_counter(series.submitted, submitted_);
    // Gain-storage residency over the DISTINCT matrices (dense shards
    // share the instance's cached tables; computed gives each shard a
    // private one). Residency is fixed on both (appendable is rejected),
    // so sampling while shards run is safe.
    std::vector<const GainMatrix*> seen;
    for (const auto& shard : shards_) {
      const GainMatrix* gains = &shard->scheduler.gains();
      if (std::find(seen.begin(), seen.end(), gains) != seen.end()) continue;
      seen.push_back(gains);
      out.add_gauge(series.resident, static_cast<double>(gains->resident_doubles()));
    }
  });
}

std::size_t SchedulerService::shard_of(std::size_t link) const noexcept {
  std::uint64_t state = static_cast<std::uint64_t>(link);
  return static_cast<std::size_t>(splitmix64(state) % shards_.size());
}

std::size_t SchedulerService::universe() const noexcept { return instance_.size(); }

Expected<void> SchedulerService::route(const ChurnEvent& event, Completion* completion,
                                       Stopwatch::TimePoint submitted) {
  if (event.kind == ChurnEvent::Kind::link_arrival) {
    return fail(
        "SchedulerService: link_arrival (universe growth) is not supported "
        "under sharding");
  }
  if (event.link >= universe()) {
    return fail("SchedulerService: link " + std::to_string(event.link) +
                " is out of range (universe " + std::to_string(universe()) + ")");
  }
  Shard& shard = *shards_[shard_of(event.link)];
  ServiceEvent record{event, submitted, completion};
  // Counting and enqueueing under one lock makes submitted_ >= processed
  // an invariant drain() can wait on; push() takes the queue's own mutex
  // inside ours (shard threads never hold theirs while taking ours, so the
  // order is acyclic).
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (stopped_) return fail("SchedulerService: the service is stopped");
  if (!shard.queue.push(std::move(record))) {
    return fail("SchedulerService: the service is stopped");
  }
  ++submitted_;
  return {};
}

AdmitResult SchedulerService::call(const ChurnEvent& event) {
  Completion completion;
  std::future<AdmitResult> future = completion.promise.get_future();
  if (Expected<void> routed = route(event, &completion, Stopwatch::now()); !routed) {
    AdmitResult result;
    result.error = routed.error();
    result.shard = event.link < universe() ? shard_of(event.link) : 0;
    return result;
  }
  return future.get();
}

AdmitResult SchedulerService::admit(const AdmitRequest& request) {
  return call(ChurnEvent{ChurnEvent::Kind::arrival, request.link, 0.0, {}});
}

AdmitResult SchedulerService::release(const ReleaseRequest& request) {
  return call(ChurnEvent{ChurnEvent::Kind::departure, request.link, 0.0, {}});
}

AdmitResult SchedulerService::update(const UpdateRequest& request) {
  return call(
      ChurnEvent{ChurnEvent::Kind::link_update, request.link, 0.0, request.endpoints});
}

Expected<void> SchedulerService::submit(const ChurnEvent& event) {
  return route(event, nullptr, Stopwatch::now());
}

Expected<void> SchedulerService::submit(const ChurnEvent& event,
                                        Stopwatch::TimePoint submitted) {
  return route(event, nullptr, submitted);
}

AdmitResult SchedulerService::process_event(Shard& shard, const ServiceEvent& event) {
  AdmitResult result;
  result.shard = shard_of(event.event.link);
  try {
    switch (event.event.kind) {
      case ChurnEvent::Kind::arrival:
        result.color = shard.scheduler.on_arrival(event.event.link);
        break;
      case ChurnEvent::Kind::departure:
        shard.scheduler.on_departure(event.event.link);
        break;
      case ChurnEvent::Kind::link_update:
        result.color =
            shard.scheduler.on_link_update(event.event.link, event.event.request);
        break;
      case ChurnEvent::Kind::link_arrival:
        // route() rejects these before they reach a queue.
        throw PreconditionError("SchedulerService: link_arrival reached a shard");
    }
    result.success = true;
  } catch (const std::exception& e) {
    // Every scheduler precondition throws before any mutation, so the
    // shard state is untouched — the event becomes a structured rejection.
    result.success = false;
    result.color = -1;
    result.error = e.what();
  }
  result.latency_seconds = Stopwatch::seconds_between(event.submitted, Stopwatch::now());
  return result;
}

void SchedulerService::shard_loop(std::size_t index) {
  Shard& shard = *shards_[index];
  std::vector<ServiceEvent> batch;
  int colors = shard.scheduler.num_colors();
  while (shard.queue.drain(batch)) {
    // What the batch has done since its last publication.
    obs::LatencyHistogram latency;
    std::size_t pending = 0;
    std::size_t rejected = 0;
    bool first = true;
    // Publishes under state_mutex_ what stats(), drain() and the registry
    // read: at the end of the batch, and before each synchronous
    // completion, so a call that has returned is already counted.
    const auto publish = [&] {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        shard.processed += pending;
        shard.rejected += rejected;
        shard.latency.merge(latency);
        if (first) shard.batch_sizes.observe(static_cast<double>(batch.size()));
        shard.stats_snapshot = shard.scheduler.stats();
        shard.colors = shard.scheduler.num_colors();
        shard.active = shard.scheduler.active_count();
      }
      drained_cv_.notify_all();
      latency = {};
      pending = 0;
      rejected = 0;
      first = false;
    };
    for (const ServiceEvent& event : batch) {
      if (shard.track != nullptr) {
        shard.track->record("queue_wait", event.submitted, Stopwatch::now());
      }
      AdmitResult result = process_event(shard, event);
      if (const int delta = shard.scheduler.num_colors() - colors; delta != 0) {
        colors += delta;
        const int live = live_colors_.fetch_add(delta) + delta;
        int peak = peak_colors_.load();
        while (live > peak && !peak_colors_.compare_exchange_weak(peak, live)) {
        }
      }
      ++pending;
      if (!result.success) ++rejected;
      latency.observe(result.latency_seconds);
      if (event.completion != nullptr) {
        publish();
        event.completion->promise.set_value(std::move(result));
      }
    }
    if (pending > 0) publish();
  }
}

void SchedulerService::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [&] {
    std::size_t processed = 0;
    for (const auto& shard : shards_) processed += shard->processed;
    return processed == submitted_;
  });
}

void SchedulerService::stop() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (stopped_) return;
    drained_cv_.wait(lock, [&] {
      std::size_t processed = 0;
      for (const auto& shard : shards_) processed += shard->processed;
      return processed == submitted_;
    });
    stopped_ = true;
  }
  for (const auto& shard : shards_) shard->queue.close();
  for (const auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

ServiceStats SchedulerService::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ServiceStats out;
  out.submitted = submitted_;
  obs::LatencyHistogram latency;
  for (const auto& shard : shards_) {
    out.processed += shard->processed;
    out.rejected += shard->rejected;
    out.batches += shard->queue.batches();
    latency.merge(shard->latency);
    for (const OnlineCounter& counter : kOnlineCounters) {
      out.scheduler.*counter.field += shard->stats_snapshot.*counter.field;
    }
    out.scheduler.event_latency.merge(shard->stats_snapshot.event_latency);
  }
  out.scheduler.peak_colors = peak_colors_.load();
  out.latency = summarize(latency);
  return out;
}

const OnlineScheduler& SchedulerService::shard(std::size_t s) const {
  require(s < shards_.size(), "SchedulerService: shard index out of range");
  return shards_[s]->scheduler;
}

Schedule SchedulerService::snapshot() const {
  // Per-shard color offsets realize the disjoint-plane rule: shard s's
  // local color c becomes global color offset[s] + c, so every global
  // class is exactly one shard's class.
  std::vector<int> offsets(shards_.size(), 0);
  int total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    offsets[s] = total;
    total += shards_[s]->scheduler.num_colors();
  }
  Schedule schedule;
  schedule.num_colors = total;
  schedule.color_of.assign(universe(), -1);
  for (std::size_t link = 0; link < universe(); ++link) {
    const std::size_t s = shard_of(link);
    const int local = shards_[s]->scheduler.color_of(link);
    if (local >= 0) schedule.color_of[link] = offsets[s] + local;
  }
  return schedule;
}

std::size_t SchedulerService::active_count() const {
  std::size_t active = 0;
  for (const auto& shard : shards_) active += shard->scheduler.active_count();
  return active;
}

int SchedulerService::num_colors() const {
  int colors = 0;
  for (const auto& shard : shards_) colors += shard->scheduler.num_colors();
  return colors;
}

bool SchedulerService::validate_against_direct(double* worst_margin) const {
  double worst = std::numeric_limits<double>::infinity();
  bool ok = true;
  for (const auto& shard : shards_) {
    double margin = 0.0;
    if (!shard->scheduler.validate_against_direct(&margin)) ok = false;
    if (shard->scheduler.num_colors() > 0) worst = std::min(worst, margin);
  }
  if (worst_margin != nullptr) {
    *worst_margin = std::isinf(worst) ? 0.0 : worst;
  }
  return ok;
}

bool SchedulerService::validate_against_single_shard(const ChurnTrace& trace) const {
  if (trace.universe != universe()) return false;
  if (trace.has_fresh_links()) return false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const OnlineScheduler& live = shards_[s]->scheduler;
    // The oracle: a fresh single-thread scheduler, same construction,
    // replaying exactly this shard's sub-trace in trace order. Same
    // construction EXCEPT telemetry, which the live shards ignore too — the
    // oracle must not write spans into a caller's single-writer track.
    OnlineSchedulerOptions oracle_options = options_.scheduler;
    oracle_options.telemetry = {};
    OnlineScheduler oracle(instance_, powers_, params_, variant_, oracle_options);
    for (const ChurnEvent& event : trace.events) {
      if (shard_of(event.link) == s) oracle.apply(event);
    }
    if (oracle.num_colors() != live.num_colors()) return false;
    if (oracle.active_count() != live.active_count()) return false;
    for (std::size_t link = 0; link < universe(); ++link) {
      if (oracle.color_of(link) != live.color_of(link)) return false;
    }
    const OnlineStats& a = oracle.stats();
    const OnlineStats& b = live.stats();
    if (a.peak_colors != b.peak_colors) return false;
    for (const OnlineCounter& counter : kOnlineCounters) {
      if (a.*counter.field != b.*counter.field) return false;
    }
    // Accumulators bit for bit: the shard's incremental state IS the
    // oracle's, not merely equivalent to it.
    const auto& live_classes = live.classes();
    const auto& oracle_classes = oracle.classes();
    if (live_classes.size() != oracle_classes.size()) return false;
    for (std::size_t c = 0; c < live_classes.size(); ++c) {
      if (live_classes[c].members() != oracle_classes[c].members()) return false;
      for (std::size_t i = 0; i < universe(); ++i) {
        if (live_classes[c].accumulator_v(i) != oracle_classes[c].accumulator_v(i) ||
            live_classes[c].accumulator_u(i) != oracle_classes[c].accumulator_u(i)) {
          return false;
        }
      }
    }
  }
  return true;
}

Expected<ServiceReplayResult> replay_trace(SchedulerService& service,
                                           const ChurnTrace& trace,
                                           ServiceReplayOptions options) {
  if (trace.universe != service.universe()) {
    return fail("service replay: trace universe " + std::to_string(trace.universe) +
                " does not match the service universe " +
                std::to_string(service.universe()));
  }
  if (trace.has_fresh_links()) {
    return fail(
        "service replay: the trace grows the universe (link_arrival events), "
        "which sharded scheduling does not support — replay it through a "
        "single OnlineScheduler on the appendable backend instead");
  }
  const Stopwatch::TimePoint start = Stopwatch::now();
  std::size_t submitted = 0;
  for (const ChurnEvent& event : trace.events) {
    // One clock read per event, shared between the pacing decision and
    // the submitted stamp latency is measured from — separate reads let
    // the two drift apart (the stamp landing later than the pacing
    // check believed, shaving queue wait off every latency).
    Stopwatch::TimePoint now = Stopwatch::now();
    if (options.arrival_rate > 0.0) {
      // Open-loop pacing: event k is due at start + k/rate regardless of
      // completions — under overload the backlog (and the latency tail)
      // grows, which is exactly what the saturation sweep measures.
      const auto due =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(submitted) /
                                                    options.arrival_rate));
      if (due > now) {
        std::this_thread::sleep_until(due);
        now = Stopwatch::now();  // re-read only after actually sleeping
      }
    }
    if (Expected<void> ok = service.submit(event, now); !ok) return fail(ok.error());
    ++submitted;
  }
  service.drain();
  const double wall = Stopwatch::seconds_between(start, Stopwatch::now());

  ServiceReplayResult result;
  result.stats = service.stats();
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(result.stats.processed) / wall : 0.0;
  result.final_schedule = service.snapshot();
  result.final_colors = result.final_schedule.num_colors;
  result.final_active = service.active_count();
  result.final_universe = service.universe();
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    result.shard_events.push_back(service.shard(s).stats().events());
  }
  if (options.validate_final) {
    result.validated = service.validate_against_direct(&result.final_worst_margin);
  }
  if (options.check_oracle) {
    result.oracle_identical = service.validate_against_single_shard(trace);
  }
  return result;
}

}  // namespace oisched
