#include "online/online_scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sinr/feasibility.h"
#include "sinr/gain_storage.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace oisched {

const char* to_string(CompactionVictim victim) noexcept {
  switch (victim) {
    case CompactionVictim::trailing:
      return "trailing";
    case CompactionVictim::smallest_first:
      return "smallest_first";
  }
  return "unknown";
}

OnlineScheduler::OnlineScheduler(const Instance& instance, std::span<const double> powers,
                                 const SinrParams& params, Variant variant,
                                 OnlineSchedulerOptions options)
    : instance_(instance),
      powers_(powers.begin(), powers.end()),
      params_(params),
      variant_(variant),
      options_(std::move(options)),
      color_of_(instance.size(), -1),
      rejected_at_(instance.size(), 0) {
  require(powers_.size() == instance_.size(), "OnlineScheduler: one power per link");
  params_.validate();
  if (options_.storage == GainBackend::appendable ||
      options_.storage == GainBackend::computed || options_.mobility) {
    // A matrix that mutates (growth or endpoint motion) cannot be shared
    // through the instance cache — the scheduler owns it and is the only
    // writer. Growth and slot reuse need appendable; anything else it owns
    // is computed, whose moves rewrite no table and whose build is one
    // O(n) signal pass.
    const GainBackend backend = options_.storage == GainBackend::appendable
                                    ? GainBackend::appendable
                                    : GainBackend::computed;
    owned_gains_ = std::make_shared<GainMatrix>(instance_.metric(), instance_.requests(),
                                                powers_, params_.alpha, variant_,
                                                /*with_sender_gains=*/false, backend);
    gains_ = owned_gains_;
  } else {
    gains_ = instance.gains(powers_, params_.alpha, variant_,
                            /*with_sender_gains=*/false, options_.storage);
  }
}

int OnlineScheduler::color_of(std::size_t link) const {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  return color_of_[link];
}

int OnlineScheduler::place(std::size_t slot) {
  // First-fit in two phases so the trace separates "finding a color"
  // (row scans against every class's accumulators) from "committing it"
  // (one class's accumulator update) — same scan-then-add the fused loop
  // performed.
  rejected_at_[slot] = 0;
  int color = -1;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "feasibility_scan");
    // The scan reads the slot's dense row at every member's column, so its
    // cache lines are requested up front.
    gains_->prefetch_row(slot);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].can_add(slot)) {
        color = static_cast<int>(c);
        break;
      }
    }
  }
  OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
  if (color >= 0) {
    classes_[static_cast<std::size_t>(color)].add(slot);
    return color;
  }
  classes_.emplace_back(*gains_, params_, options_.remove_policy);
  shrunk_at_.push_back(++stamp_);
  classes_.back().add(slot);
  ++stats_.classes_opened;
  return static_cast<int>(classes_.size() - 1);
}

int OnlineScheduler::on_arrival(std::size_t link) {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  require(color_of_[link] < 0, "OnlineScheduler: arrival of an already active link");
  require(phys(link) != kNoSlot, "OnlineScheduler: arrival of a retired link");
  Stopwatch watch;
  const int color = place(phys(link));
  color_of_[link] = color;
  ++active_count_;
  ++stats_.arrivals;
  stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  finish_event(watch);
  return color;
}

int OnlineScheduler::on_link_arrival(const Request& request) {
  require(options_.storage == GainBackend::appendable,
          "OnlineScheduler: growing the universe needs the appendable backend");
  require(options_.fresh_power != nullptr,
          "OnlineScheduler: fresh links need an oblivious power rule (fresh_power)");
  require(request.u < instance_.metric().size() && request.v < instance_.metric().size(),
          "OnlineScheduler: fresh link endpoint out of metric range");
  Stopwatch watch;
  // Oblivious by construction: the power is a function of the link's own
  // loss, so nothing already scheduled needs revisiting.
  const double loss = link_loss(instance_.metric(), request, params_.alpha);
  require(loss > 0.0, "OnlineScheduler: fresh link endpoints must be distinct points");
  const double power = options_.fresh_power->power_for_loss(loss);
  const std::size_t link = color_of_.size();
  std::size_t slot;
  if (!free_slots_.empty()) {
    // Recycle a retired slot: rewrite its row/column in place, bracketed
    // like a link_update so every class swaps the zombie's stale (inactive,
    // so never consulted) contribution for the fresh link's.
    slot = free_slots_.back();
    free_slots_.pop_back();
    for (IncrementalGainClass& cls : classes_) cls.begin_link_update(slot);
    owned_gains_->update_request(slot, request, power);
    powers_[slot] = power;
    for (IncrementalGainClass& cls : classes_) {
      const std::size_t rebuilds_before = cls.removal_rebuilds();
      cls.finish_link_update(slot);
      stats_.removal_rebuilds += cls.removal_rebuilds() - rebuilds_before;
    }
    slot_of_.push_back(slot);
    ext_of_[slot] = link;
    ++stats_.reused_slots;
  } else {
    slot = owned_gains_->append_request(request, power);
    powers_.push_back(power);
    rejected_at_.push_back(0);
    if (!slot_of_.empty()) {
      slot_of_.push_back(slot);
      ext_of_.push_back(link);
    }
    for (IncrementalGainClass& cls : classes_) cls.sync_universe();
  }
  color_of_.push_back(-1);
  const int color = place(slot);
  color_of_[link] = color;
  ++active_count_;
  ++stats_.arrivals;
  ++stats_.fresh_links;
  stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  finish_event(watch);
  return color;
}

int OnlineScheduler::on_link_update(std::size_t link, const Request& request) {
  require(owned_gains_ != nullptr,
          "OnlineScheduler: endpoint motion needs the computed (or appendable) "
          "backend — the shared gain cache must never mutate");
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  const int color = color_of_[link];
  require(color >= 0, "OnlineScheduler: update of an inactive link");
  require(request.u < instance_.metric().size() && request.v < instance_.metric().size(),
          "OnlineScheduler: link endpoint out of metric range");
  Stopwatch watch;
  const double loss = link_loss(instance_.metric(), request, params_.alpha);
  require(loss > 0.0, "OnlineScheduler: link endpoints must be distinct points");
  // Oblivious re-powering: the moved link's length changed, and its power
  // is a function of that length alone — nothing else needs revisiting.
  const double power = options_.fresh_power != nullptr
                           ? options_.fresh_power->power_for_loss(loss)
                           : powers_[link];
  const std::size_t slot = phys(link);
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
    // Bracket the table refresh: every class first subtracts what it read
    // from the stale row, then the matrix moves the link, then every class
    // adds the new row back and re-derives the link's own slot. Under the
    // exact default only the link's own class has work; the others store
    // no slot for it.
    for (IncrementalGainClass& cls : classes_) cls.begin_link_update(slot);
    owned_gains_->update_request(slot, request, power);
    powers_[slot] = power;
    for (IncrementalGainClass& cls : classes_) {
      const std::size_t rebuilds_before = cls.removal_rebuilds();
      cls.finish_link_update(slot);
      stats_.removal_rebuilds += cls.removal_rebuilds() - rebuilds_before;
    }
  }
  ++stats_.link_updates;
  // The moved link's gains changed, for its class and for its own sweeps.
  shrunk_at_[static_cast<std::size_t>(color)] = ++stamp_;
  rejected_at_[slot] = 0;

  // Only the moved link's own class can have broken: in every other class
  // the accumulated sums merely swapped one non-member's contribution.
  int new_color = color;
  IncrementalGainClass& owner = classes_[static_cast<std::size_t>(color)];
  if (!owner.members_feasible()) {
    // Eviction restores the survivors (interference sums only shrink);
    // then the moved link is re-placed like a fresh arrival.
    remove_from(static_cast<std::size_t>(color), slot);
    color_of_[link] = -1;
    compact_from(static_cast<std::size_t>(color));
    new_color = place(slot);
    color_of_[link] = new_color;
    ++stats_.update_migrations;
    stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  }
  finish_event(watch);
  return new_color;
}

void OnlineScheduler::on_departure(std::size_t link) {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  const int color = color_of_[link];
  require(color >= 0, "OnlineScheduler: departure of an inactive link");
  Stopwatch watch;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
    // The removal withdraws the link's dense row from every member slot.
    gains_->prefetch_row(phys(link));
    remove_from(static_cast<std::size_t>(color), phys(link));
    rejected_at_[phys(link)] = 0;
  }
  color_of_[link] = -1;
  --active_count_;
  ++stats_.departures;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "compaction");
    compact_from(static_cast<std::size_t>(color));
  }
  finish_event(watch);
}

void OnlineScheduler::retire_link(std::size_t link) {
  require(options_.storage == GainBackend::appendable,
          "OnlineScheduler: slot reuse recycles rows of a growable matrix — "
          "retiring links needs the appendable backend");
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  require(color_of_[link] < 0, "OnlineScheduler: retire of an active link");
  const std::size_t slot = phys(link);
  require(slot != kNoSlot, "OnlineScheduler: link already retired");
  if (slot_of_.empty()) {
    // First retirement: the identity slot maps over the current universe.
    slot_of_.resize(color_of_.size());
    ext_of_.resize(color_of_.size());
    for (std::size_t i = 0; i < color_of_.size(); ++i) slot_of_[i] = ext_of_[i] = i;
  }
  slot_of_[link] = kNoSlot;
  ext_of_[slot] = kNoSlot;
  free_slots_.push_back(slot);
  ++stats_.retired_links;
}

void OnlineScheduler::erase_class(std::size_t color) {
  closed_fallbacks_ += classes_[color].exact_fallbacks();
  classes_.erase(classes_.begin() + static_cast<std::ptrdiff_t>(color));
  shrunk_at_.erase(shrunk_at_.begin() + static_cast<std::ptrdiff_t>(color));
}

void OnlineScheduler::remove_from(std::size_t color, std::size_t slot) {
  IncrementalGainClass& cls = classes_[color];
  const std::size_t rebuilds_before = cls.removal_rebuilds();
  cls.remove(slot);
  stats_.removal_rebuilds += cls.removal_rebuilds() - rebuilds_before;
  shrunk_at_[color] = ++stamp_;
}

bool OnlineScheduler::try_migrate(std::size_t slot, std::size_t from, std::size_t to) {
  // A compaction test of `slot` against class `to` is a known rejection
  // when `to` has not shrunk since the slot's last failed sweep. Between
  // the two the class can only have gained members: every shrink and
  // every motion of a member bumps its stamp, and the slot's own motion
  // or migration clears its record. A gained member only adds terms >= 0
  // to the sums the verdict thresholds (the exact sums' correct roundings,
  // since a certified verdict is the exact one, or the rebuild policy's
  // plain sums), RN and fl(x + extra) are monotone, and the new member
  // brings constraints of its own. So a class that rejected the slot
  // still does.
  if (shrunk_at_[to] <= rejected_at_[slot] || !classes_[to].can_add(slot)) return false;
  remove_from(from, slot);
  classes_[to].add(slot);
  rejected_at_[slot] = 0;
  color_of_[ext(slot)] = static_cast<int>(to);
  ++stats_.migrations;
  return true;
}

void OnlineScheduler::finish_event(const Stopwatch& watch) {
  std::size_t fallbacks = closed_fallbacks_;
  for (const IncrementalGainClass& cls : classes_) fallbacks += cls.exact_fallbacks();
  stats_.exact_fallbacks = fallbacks;
  stats_.event_latency.observe(watch.elapsed_seconds());
#ifndef NDEBUG
  if (stats_.events() % kAuditInterval == 0) audit();
#endif
}

void OnlineScheduler::close_class(std::size_t color) {
  erase_class(color);
  ++stats_.classes_closed;
  // Every class above the gap moved down one color: renumber its members
  // — O(their count), not a scan of the whole universe.
  for (std::size_t c = color; c < classes_.size(); ++c) {
    for (const std::size_t m : classes_[c].members()) {
      color_of_[ext(m)] = static_cast<int>(c);
    }
  }
}

void OnlineScheduler::compact_from(std::size_t color) {
  // Drop the shrunken class outright when the departure emptied it.
  if (classes_[color].size() == 0) close_class(color);
  if (options_.compaction_victim == CompactionVictim::smallest_first) {
    compact_smallest();
    return;
  }
  // Opportunistic compaction: migrate members of the trailing class into
  // earlier classes; when the trailing class drains completely the color
  // count shrinks, and the now-trailing class gets the same chance. An
  // immovable member is skipped (and counted), not pass-ending — partial
  // compaction still reclaims the slots of the movable members behind it.
  while (!classes_.empty()) {
    const std::size_t last = classes_.size() - 1;
    if (last == 0) break;  // a single class has nowhere to migrate to
    const std::vector<std::size_t> members = classes_[last].members();
    for (const std::size_t m : members) {
      bool moved = false;
      for (std::size_t c = 0; c < last && !moved; ++c) moved = try_migrate(m, last, c);
      if (!moved) {
        rejected_at_[m] = stamp_;
        ++stats_.compaction_skips;
      }
    }
    // Immovable members keep the trailing class (and the pass ends); a
    // fully drained class frees its color and the next one gets a turn.
    if (classes_[last].size() > 0) break;
    erase_class(last);
    ++stats_.classes_closed;
  }
}

void OnlineScheduler::compact_smallest() {
  // Size-ordered victim selection: the cheapest class to dissolve is the
  // smallest one, wherever it sits in the palette — a small class stuck in
  // the middle is exactly what the trailing-only pass never revisits.
  // Ties go to the lowest color (first-fit keeps the crowded classes
  // early, so a late same-size class is likelier to hold the immovable
  // stragglers). A drained victim frees its color and the next-smallest
  // gets a turn; an immovable member ends the pass (its class was the
  // cheapest, so dissolving any other is no easier — and per-event work
  // stays bounded).
  while (classes_.size() > 1) {
    std::size_t victim = 0;
    for (std::size_t c = 1; c < classes_.size(); ++c) {
      if (classes_[c].size() < classes_[victim].size()) victim = c;
    }
    const std::vector<std::size_t> members = classes_[victim].members();
    for (const std::size_t m : members) {
      bool moved = false;
      for (std::size_t c = 0; c < classes_.size() && !moved; ++c) {
        if (c != victim) moved = try_migrate(m, victim, c);
      }
      if (!moved) {
        rejected_at_[m] = stamp_;
        ++stats_.compaction_skips;
      }
    }
    if (classes_[victim].size() > 0) break;
    // Erasing mid-palette renumbers every color above the victim —
    // including members just migrated into those classes.
    close_class(victim);
  }
}

void OnlineScheduler::apply(const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEvent::Kind::arrival:
      (void)on_arrival(event.link);
      break;
    case ChurnEvent::Kind::departure:
      on_departure(event.link);
      break;
    case ChurnEvent::Kind::link_arrival:
      require(event.link == universe(),
              "OnlineScheduler: fresh link index must extend the universe");
      (void)on_link_arrival(event.request);
      break;
    case ChurnEvent::Kind::link_update:
      (void)on_link_update(event.link, event.request);
      break;
  }
}

Schedule OnlineScheduler::snapshot() const {
  Schedule schedule;
  schedule.color_of = color_of_;
  schedule.num_colors = num_colors();
  return schedule;
}

bool OnlineScheduler::validate_against_direct(double* worst_margin) const {
  double min_margin = std::numeric_limits<double>::infinity();
  std::size_t members_seen = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const std::vector<std::size_t>& members = classes_[c].members();
    ensure(!members.empty(), "OnlineScheduler: compaction must drop empty classes");
    members_seen += members.size();
    for (const std::size_t m : members) {
      ensure(color_of_[ext(m)] == static_cast<int>(c),
             "OnlineScheduler: class membership and coloring diverged");
    }
    // The matrix's own request copy covers links appended after
    // construction; for a fixed universe it equals the instance's.
    const FeasibilityReport direct = check_feasible(instance_.metric(),
                                                    gains_->requests(), powers_, members,
                                                    params_, variant_);
    const FeasibilityReport tabled = check_feasible(*gains_, members, params_);
    // Bit-for-bit agreement of the two engines, and actual feasibility.
    if (direct.feasible != tabled.feasible ||
        direct.worst_margin != tabled.worst_margin ||
        direct.worst_request != tabled.worst_request || !direct.feasible) {
      return false;
    }
    min_margin = std::min(min_margin, direct.worst_margin);
  }
  ensure(members_seen == active_count_,
         "OnlineScheduler: active count and class sizes diverged");
  if (worst_margin != nullptr) *worst_margin = min_margin;
  return true;
}

void OnlineScheduler::audit() const {
  std::size_t members_seen = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const IncrementalGainClass& cls = classes_[c];
    ensure(cls.size() > 0, "OnlineScheduler audit: an empty class is live");
    members_seen += cls.size();
    for (const std::size_t slot : cls.members()) {
      ensure(slot < powers_.size(), "OnlineScheduler audit: a member slot is out of range");
      const std::size_t link = ext(slot);
      ensure(link < color_of_.size() && phys(link) == slot,
             "OnlineScheduler audit: the physical-slot maps disagree on a member");
      ensure(color_of_[link] == static_cast<int>(c),
             "OnlineScheduler audit: class membership and coloring diverged");
    }
    if (options_.remove_policy == RemovePolicy::exact) {
      ensure(cls.accumulator_drift() == 0.0,
             "OnlineScheduler audit: a member slot's interval misses its exact sum");
    }
    // Exact classes over estimated gains keep member records: copies of
    // the stores the kernel reads.
    const bool keeps_records =
        options_.remove_policy == RemovePolicy::exact && gains_->gain_slack() > 0.0;
    const std::span<const MemberRecord> records = cls.records();
    ensure(records.size() == (keeps_records ? cls.size() : 0),
           "OnlineScheduler audit: the member records and the members diverged");
    for (std::size_t p = 0; p < records.size(); ++p) {
      const EuclideanGainKernel& kernel = *gains_->euclidean_kernel();
      const std::size_t m = cls.members()[p];
      const Request& request = gains_->requests()[m];
      const MemberRecord& record = records[p];
      ensure(record.u == kernel.points[request.u] && record.v == kernel.points[request.v] &&
                 record.power == gains_->powers()[m] && record.signal == gains_->signal(m),
             "OnlineScheduler audit: a member record is stale");
    }
  }
  ensure(members_seen == active_count_,
         "OnlineScheduler audit: active count and class sizes diverged");
  for (const std::size_t slot : free_slots_) {
    ensure(slot < ext_of_.size() && ext_of_[slot] == kNoSlot,
           "OnlineScheduler audit: a free slot is still mapped to a link");
  }
}

OnlineSeriesWriter register_online_series(obs::MetricsRegistry& registry,
                                          std::string labels) {
  const obs::MetricId events = registry.counter(
      "oisched_events_total", "Scheduler events processed (all kinds)", labels);
  const obs::MetricId latency = registry.histogram(
      "oisched_event_latency_seconds", "Per-event processing latency", labels);
  std::vector<obs::MetricId> counters;
  for (const OnlineCounter& counter : kOnlineCounters) {
    counters.push_back(registry.counter(counter.series, counter.help, labels));
  }
  const obs::MetricId colors =
      registry.gauge("oisched_colors", "Color classes currently live", labels);
  const obs::MetricId active =
      registry.gauge("oisched_active_links", "Links currently active", std::move(labels));
  return [=](obs::MetricsSnapshot& out, const OnlineStats& stats, int live_colors,
             std::size_t active_links) {
    out.add_counter(events, stats.events());
    out.merge_histogram(latency, stats.event_latency);
    for (std::size_t i = 0; i < counters.size(); ++i) {
      out.add_counter(counters[i], stats.*kOnlineCounters[i].field);
    }
    out.add_gauge(colors, static_cast<double>(live_colors));
    out.add_gauge(active, static_cast<double>(active_links));
  };
}

void register_online_metrics(obs::MetricsRegistry& registry,
                             const OnlineScheduler& scheduler, std::string labels) {
  OnlineSeriesWriter write = register_online_series(registry, std::move(labels));
  registry.add_collector([&scheduler, write = std::move(write)](obs::MetricsSnapshot& out) {
    write(out, scheduler.stats(), scheduler.num_colors(), scheduler.active_count());
  });
}

void register_gain_metrics(obs::MetricsRegistry& registry,
                           const OnlineScheduler& scheduler, std::string labels) {
  const obs::MetricId resident = registry.gauge(
      "oisched_gain_resident_doubles", "Gain-table entries resident in memory", labels);
  registry.add_collector([&scheduler, resident](obs::MetricsSnapshot& out) {
    out.add_gauge(resident, static_cast<double>(scheduler.gains().resident_doubles()));
  });
}

ReplayResult replay_trace(OnlineScheduler& scheduler, const ChurnTrace& trace,
                          bool validate_final) {
  require(trace.universe == scheduler.universe(),
          "replay_trace: trace universe must match the scheduler's");
  ReplayResult result;
  const OnlineStats before = scheduler.stats();
  Stopwatch watch;
  for (const ChurnEvent& event : trace.events) {
    scheduler.apply(event);
  }
  result.wall_seconds = watch.elapsed_seconds();
  // Counters are reported per replay, so reusing one scheduler across
  // several traces stays internally consistent; peak_colors and
  // event_latency stay lifetime (a high and extremes cannot be
  // differenced).
  result.stats = scheduler.stats();
  for (const OnlineCounter& counter : kOnlineCounters) {
    result.stats.*counter.field -= before.*counter.field;
  }
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(trace.events.size()) / result.wall_seconds
          : 0.0;
  result.final_schedule = scheduler.snapshot();
  result.final_colors = scheduler.num_colors();
  result.final_active = scheduler.active_count();
  result.final_universe = scheduler.universe();
  if (validate_final) {
    result.validated = scheduler.validate_against_direct(&result.final_worst_margin);
  }
  return result;
}

}  // namespace oisched
