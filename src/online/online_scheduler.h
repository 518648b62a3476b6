// Online scheduling: incremental maintenance of a valid coloring under a
// stream of link arrivals and departures — and, on the appendable gain
// backend, under universe growth; on the computed (or appendable) backend,
// under endpoint motion too (link_update events move the link in the
// scheduler's own matrix and re-validate its class).
//
// The paper's oblivious power assignments are exactly the regime where the
// request set is NOT known in advance — a power depends only on a link's
// own length, so links can come and go (and brand-new links can appear)
// without re-deriving anything global. OnlineScheduler exploits that: it
// obtains the gain tables for the link universe once (via the per-Instance
// cache, or an appendable matrix of its own when the universe may grow),
// then serves each arrival with a first-fit scan over IncrementalGainClass
// accumulators (O(colors * class size) table lookups, no distance or pow
// work), each fresh link with an O(n) table append plus the same first-fit
// placement, and each departure with an O(class size) class shrink (under
// the exact default) plus an opportunistic compaction pass that migrates
// members out of the last class when earlier ones can absorb them.
// Retired links (retire_link) hand their table rows to future fresh links
// so the matrix stops growing without bound under churn.
// Throughput (events/sec),
// recolorings and per-event latency are the headline metrics; replay_trace
// drives a whole ChurnTrace and reports them. The final state re-validates
// bit-for-bit against the direct metric-recomputing feasibility engine
// (validate_against_direct), which is what the dynamic benchmark family
// and the tests gate on.
#ifndef OISCHED_ONLINE_ONLINE_SCHEDULER_H
#define OISCHED_ONLINE_ONLINE_SCHEDULER_H

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "gen/churn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sinr/gain_matrix.h"
#include "util/stopwatch.h"

namespace oisched {

/// Trace sink for one scheduler's per-event phase spans; null by default,
/// and the hot path then skips instrumentation entirely. Counters and the
/// event-latency histogram live in OnlineStats whatever this holds; a
/// registry reads them at scrape time (register_online_metrics).
struct OnlineTelemetry {
  obs::TraceTrack* trace = nullptr;
};

/// Which class a post-departure compaction pass tries to dissolve.
enum class CompactionVictim {
  /// Historical behaviour: only the trailing (highest-color) class is a
  /// candidate — cheap, but an adversarially placed small class in the
  /// middle of the palette is never revisited.
  trailing,
  /// Pick the smallest live class (ties to the highest color) anywhere in
  /// the palette. Dissolving the cheapest victim first reclaims colors a
  /// trailing-only pass provably skips.
  smallest_first,
};

[[nodiscard]] const char* to_string(CompactionVictim victim) noexcept;

/// Grid shape of the deleted far-field layer. Kept only so callers that
/// still set OnlineSchedulerOptions::farfield_options compile; no field
/// has any effect.
struct FarFieldOptions {
  std::size_t target_cells = 256;
  std::size_t near_radius = 1;
};

struct OnlineSchedulerOptions {
  /// How classes restore their accumulators on departure. The default
  /// (exact) removes in O(|class|): error-bounded plain slots, with an
  /// exact sum only where the bound cannot decide, keep every verdict
  /// bit-identical to a freshly built class over the survivors, with no
  /// replays at all. rebuild is the historical O(|class| * n)
  /// replay-on-remove (same guarantee, paid for on every departure) and
  /// the reference exact is gated against.
  RemovePolicy remove_policy = RemovePolicy::exact;
  /// Victim-selection rule of the compaction pass that runs after every
  /// departure (see CompactionVictim). The default keeps the historical
  /// trailing-only behaviour.
  CompactionVictim compaction_victim = CompactionVictim::trailing;
  /// Gain-table backend. dense/tiled serve a fixed universe from the
  /// instance's shared cache (tiled keeps huge, sparsely active universes
  /// memory-bounded) and accept no link_update; appendable gives the
  /// scheduler its own growable matrix and unlocks on_link_arrival and
  /// retire_link; computed gives it its own tableless matrix. Both private
  /// backends accept link_update (endpoint motion).
  GainBackend storage = GainBackend::dense;
  /// A synonym for storage = computed (ignored on appendable, which moves
  /// links already). Kept only because the benchmark sets it.
  bool mobility = false;
  /// Oblivious power rule for fresh links (required to accept
  /// link_arrival events): a new link's power is derived from its own
  /// length alone, never from the rest of the request set. A moved link
  /// is re-powered by the same rule (its length changed); without one it
  /// keeps its original power.
  std::shared_ptr<const PowerAssignment> fresh_power;
  /// No effect. The far-field layer it used to enable is gone: every
  /// exact-policy class tests a candidate in O(|class|) without it, on any
  /// metric. Kept so existing callers compile; accepted with any policy.
  bool farfield = false;
  /// No effect (see farfield).
  FarFieldOptions farfield_options;
  /// Trace sink (see OnlineTelemetry); null by default. The track must
  /// outlive the scheduler.
  OnlineTelemetry telemetry;
};

/// Counters and timings over the scheduler's lifetime.
struct OnlineStats {
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  /// Of the arrivals, how many were fresh links growing the universe.
  std::size_t fresh_links = 0;
  /// Endpoint-motion events applied in place.
  std::size_t link_updates = 0;
  /// Of the link updates, how many broke the moved link's class and
  /// forced a first-fit re-placement.
  std::size_t update_migrations = 0;
  std::size_t classes_opened = 0;
  std::size_t classes_closed = 0;
  /// Links recolored by compaction (beyond their original placement).
  std::size_t migrations = 0;
  /// Immovable members compaction skipped over (the pass continues past
  /// them, so partial compaction still reclaims slots).
  std::size_t compaction_skips = 0;
  /// Full O(|class| * n) accumulator replays that removals (departures
  /// and compaction migrations) triggered — what the exact policy
  /// eliminates: 0 there outside the saturation escape hatch, one per
  /// removal under rebuild.
  std::size_t removal_rebuilds = 0;
  /// Always 0: a counter of the deleted far-field layer, kept so existing
  /// readers compile.
  std::size_t bound_hits = 0;
  /// Verdicts and member-slot re-derivations the exact policy's
  /// error-bound filter could not certify and sent to an exact O(|class|)
  /// sum (IncrementalGainClass::exact_fallbacks, over every class this
  /// scheduler has held). 0 under the rebuild policy.
  std::size_t exact_fallbacks = 0;
  /// Links retired via retire_link, and fresh links that recycled a
  /// retired slot instead of growing the matrix.
  std::size_t retired_links = 0;
  std::size_t reused_slots = 0;
  int peak_colors = 0;
  /// Processing time of every applied event, in seconds: its count equals
  /// events() and its max() is the worst single event.
  obs::LatencyHistogram event_latency;

  [[nodiscard]] std::size_t events() const noexcept {
    return arrivals + departures + link_updates;
  }
};

/// One OnlineStats counter and the registry series that exports it.
struct OnlineCounter {
  const char* series;
  const char* help;
  std::size_t OnlineStats::*field;
};

/// Every exported OnlineStats counter, once, in series registration
/// order. Registration, the scrape collector, replay deltas, the service's
/// aggregate and its oracle comparison all walk this list.
inline constexpr OnlineCounter kOnlineCounters[] = {
    {"oisched_arrivals_total", "Link arrivals", &OnlineStats::arrivals},
    {"oisched_departures_total", "Link departures", &OnlineStats::departures},
    {"oisched_link_updates_total", "Endpoint-motion events applied in place",
     &OnlineStats::link_updates},
    {"oisched_fresh_links_total", "Arrivals that grew the link universe",
     &OnlineStats::fresh_links},
    {"oisched_update_migrations_total",
     "Link updates that broke the class and forced re-placement",
     &OnlineStats::update_migrations},
    {"oisched_migrations_total", "Links recolored by compaction", &OnlineStats::migrations},
    {"oisched_compaction_skips_total", "Immovable members compaction skipped",
     &OnlineStats::compaction_skips},
    {"oisched_removal_rebuilds_total", "Full accumulator replays triggered by removals",
     &OnlineStats::removal_rebuilds},
    {"oisched_classes_opened_total", "Color classes opened", &OnlineStats::classes_opened},
    {"oisched_classes_closed_total", "Color classes closed", &OnlineStats::classes_closed},
    {"oisched_retired_links_total", "Links whose table slot was freed for reuse",
     &OnlineStats::retired_links},
    {"oisched_reused_slots_total", "Fresh links that recycled a retired table slot",
     &OnlineStats::reused_slots},
    {"oisched_exact_fallbacks_total",
     "Verdicts and slot re-derivations the error-bound filter sent to an exact sum",
     &OnlineStats::exact_fallbacks},
};

class OnlineScheduler {
 public:
  /// The instance seeds the link universe; traces address links by request
  /// index. Powers/params/variant are fixed for the scheduler's lifetime —
  /// oblivious assignments make that sound, since a link's power never
  /// depends on who else is active. On the dense/tiled backends the gain
  /// tables come from the instance's shared cache, so repeated replays
  /// (and offline algorithms on the same instance) pay the build once; the
  /// appendable backend builds a private growable matrix instead, and
  /// on_link_arrival extends the universe past the instance (fresh
  /// endpoints must be nodes of the instance's metric).
  OnlineScheduler(const Instance& instance, std::span<const double> powers,
                  const SinrParams& params, Variant variant,
                  OnlineSchedulerOptions options = {});

  /// Activates a link (must be inactive): first-fits it into the existing
  /// classes, opening a new one when none is feasible. Returns its color.
  int on_arrival(std::size_t link);

  /// Grows the universe by one brand-new link (appendable backend with a
  /// fresh_power rule only): derives its oblivious power from its own
  /// length, appends its gain row/column in O(n), and places it like any
  /// arrival. Returns its color; the link owns index universe() - 1
  /// afterwards.
  int on_link_arrival(const Request& request);

  /// Moves an active link to new endpoints (computed or appendable backend
  /// only): re-derives its oblivious power from the new length (when a
  /// fresh_power rule is set), moves it in the gain matrix (computed
  /// rewrites no table; appendable rewrites its row and column), updates
  /// every class's accumulators exactly, and re-validates
  /// the moved link's class — when motion broke it, the link is evicted
  /// and re-placed first-fit (counted in stats().update_migrations). Only
  /// the moved link's own class can break: everywhere else the stale
  /// contribution is simply replaced. Returns the link's (possibly new)
  /// color.
  int on_link_update(std::size_t link, const Request& request);

  /// Deactivates a link (must be active), then runs a compaction pass:
  /// members of a victim class (per options.compaction_victim) migrate
  /// into other classes that can absorb them (counted in
  /// stats().migrations); immovable members are skipped and counted in
  /// stats().compaction_skips.
  void on_departure(std::size_t link);

  /// Frees an inactive link's physical gain-table slot for reuse by a
  /// future fresh link (appendable backend only): the next fresh link
  /// rewrites that row in place instead of growing the matrix. The
  /// external link id stays allocated but can never become active again;
  /// color_of() keeps reporting -1 for it, and the remap is invisible in
  /// color_of()/snapshot(). Retiring is the caller's promise that the
  /// trace will not revive this id — growing traces recycle departed
  /// fresh links, so departure alone must never retire.
  void retire_link(std::size_t link);

  /// Dispatches one trace event to on_arrival/on_link_arrival/
  /// on_link_update/on_departure.
  void apply(const ChurnEvent& event);

  [[nodiscard]] int color_of(std::size_t link) const;
  [[nodiscard]] bool is_active(std::size_t link) const { return color_of(link) >= 0; }
  [[nodiscard]] std::size_t active_count() const noexcept { return active_count_; }
  /// Current number of links (instance size plus fresh links so far).
  [[nodiscard]] std::size_t universe() const noexcept { return color_of_.size(); }
  [[nodiscard]] int num_colors() const noexcept {
    return static_cast<int>(classes_.size());
  }
  [[nodiscard]] const OnlineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Instance& instance() const noexcept { return instance_; }
  [[nodiscard]] const GainMatrix& gains() const noexcept { return *gains_; }
  [[nodiscard]] std::span<const double> powers() const noexcept { return powers_; }
  /// The live color classes (classes()[c] holds the links colored c) —
  /// read-only access for the exactness suites, which compare live
  /// accumulators bit for bit against freshly built twins.
  [[nodiscard]] const std::vector<IncrementalGainClass>& classes() const noexcept {
    return classes_;
  }
  /// Physical gain-table slots currently allocated — equals universe()
  /// until the first retire_link; from then on it is bounded by the peak
  /// number of simultaneously live (active or unretired) links.
  [[nodiscard]] std::size_t physical_slots() const noexcept { return powers_.size(); }

  /// The current coloring: -1 for inactive links, colors dense in
  /// [0, num_colors) otherwise.
  [[nodiscard]] Schedule snapshot() const;

  /// Re-checks every class from scratch with BOTH engines — the direct
  /// metric-recomputing checker and the gain tables — and demands
  /// bit-for-bit agreement (verdict, worst margin, worst request) plus
  /// feasibility of every class. This is the online subsystem's exactness
  /// gate; `worst_margin` (optional) receives the minimum class margin.
  [[nodiscard]] bool validate_against_direct(double* worst_margin = nullptr) const;

  /// Checks the scheduler's bookkeeping against itself and throws
  /// InvariantError on the first mismatch: every class is non-empty, each
  /// member's color_of() is its class, the class sizes add up to
  /// active_count(), the physical-slot maps are mutually inverse over the
  /// members and the free list holds only unmapped slots, and every
  /// exact-policy member slot's certified interval covers its fresh exact
  /// sum (accumulator_drift() == 0). O(active + free slots + sum of
  /// |class|^2). Debug builds run it every 64 events (kAuditInterval).
  void audit() const;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kAuditInterval = 64;

  /// Closes the bookkeeping of one applied event: refreshes
  /// stats_.exact_fallbacks, records the event's latency, and (in debug
  /// builds) audits every kAuditInterval events.
  void finish_event(const Stopwatch& watch);
  /// Erases class `color`, keeping its fallback count in the stats.
  void erase_class(std::size_t color);

  int place(std::size_t slot);           // first-fit; returns the color used
  void compact_from(std::size_t color);  // drop empty, then migrate
  void compact_smallest();               // smallest_first victim loop
  /// Erases the (empty) class `color` and renumbers the members of every
  /// class above it.
  void close_class(std::size_t color);
  /// External link id <-> physical gain-table slot. Identity until the
  /// first retire_link builds the slot maps: classes, the gain matrix and
  /// powers_ speak physical slots; color_of_, universe() and traces speak
  /// external ids.
  [[nodiscard]] std::size_t phys(std::size_t link) const noexcept {
    return slot_of_.empty() ? link : slot_of_[link];
  }
  [[nodiscard]] std::size_t ext(std::size_t slot) const noexcept {
    return ext_of_.empty() ? slot : ext_of_[slot];
  }
  const Instance& instance_;
  std::vector<double> powers_;
  SinrParams params_;
  Variant variant_;
  OnlineSchedulerOptions options_;
  /// Set on the appendable and computed backends (and under
  /// options.mobility): the scheduler's private mutable matrix (gains_
  /// aliases it there).
  std::shared_ptr<GainMatrix> owned_gains_;
  std::shared_ptr<const GainMatrix> gains_;
  std::vector<IncrementalGainClass> classes_;
  std::vector<int> color_of_;
  /// Empty until the first retire_link: external -> physical (kNoSlot
  /// once retired), physical -> external, and the LIFO free list of
  /// retired slots.
  std::vector<std::size_t> slot_of_;
  std::vector<std::size_t> ext_of_;
  std::vector<std::size_t> free_slots_;
  std::size_t active_count_ = 0;
  /// exact_fallbacks of the classes already closed.
  std::size_t closed_fallbacks_ = 0;
  OnlineStats stats_;
};

/// Outcome of replaying one trace through an OnlineScheduler.
struct ReplayResult {
  /// Per-replay counters (deltas over the scheduler's lifetime stats, so a
  /// reused scheduler reports each trace separately); peak_colors and
  /// event_latency cover the scheduler's lifetime.
  OnlineStats stats;
  double wall_seconds = 0.0;   // event loop only (excludes validation)
  double events_per_sec = 0.0;
  Schedule final_schedule;     // -1 for links inactive at the end
  int final_colors = 0;
  std::size_t final_active = 0;
  /// Universe size after the replay (grows past the trace's initial
  /// universe when it carries fresh-link events).
  std::size_t final_universe = 0;
  /// Set when validate_final: the final state passed
  /// validate_against_direct.
  bool validated = false;
  double final_worst_margin = 0.0;
};

/// Feeds every event of `trace` to `scheduler` (whose current universe
/// must match the trace's initial one) and measures throughput. With
/// validate_final the final state is re-validated bit-for-bit against the
/// direct engine.
[[nodiscard]] ReplayResult replay_trace(OnlineScheduler& scheduler,
                                        const ChurnTrace& trace,
                                        bool validate_final = true);

/// Writes one scheduler's series into a scrape: its stats plus its live
/// color and active-link counts.
using OnlineSeriesWriter = std::function<void(obs::MetricsSnapshot&, const OnlineStats&,
                                              int colors, std::size_t active_links)>;

/// Registers the standard `oisched_*` scheduler series (see README
/// "Observability") under one label set and returns the writer that
/// fills them at scrape time: oisched_events_total, the
/// oisched_event_latency_seconds histogram, one counter per
/// kOnlineCounters entry, and the oisched_colors / oisched_active_links
/// gauges. The service feeds it each shard's published stats.
[[nodiscard]] OnlineSeriesWriter register_online_series(obs::MetricsRegistry& registry,
                                                        std::string labels = "");

/// Registers the scheduler series for one bare scheduler, with a
/// collector that reads its stats() on every scrape. The scheduler has no
/// lock of its own: scrape from the thread that drives it, or while it is
/// quiesced. The scheduler must outlive every subsequent registry scrape.
void register_online_metrics(obs::MetricsRegistry& registry,
                             const OnlineScheduler& scheduler, std::string labels = "");

/// Registers scrape-time gauges over the scheduler's gain storage —
/// oisched_gain_resident_doubles always, plus touched/total tile gauges
/// on the tiled backend (all read from the storage's own atomic-backed
/// accessors, so sampling is safe while the scheduler runs). The
/// scheduler must outlive every subsequent registry scrape.
void register_gain_metrics(obs::MetricsRegistry& registry,
                           const OnlineScheduler& scheduler, std::string labels = "");

}  // namespace oisched

#endif  // OISCHED_ONLINE_ONLINE_SCHEDULER_H
