// Sharded scheduling service: the typed, concurrent admission front-end
// over the online scheduler.
//
// One OnlineScheduler consumes one event stream on one thread; the service
// layer is the step toward serving sustained event traffic on a many-core
// box. A SchedulerService owns N shards — each a full OnlineScheduler over
// a link-id-hash partition of the universe, running on its own thread and
// fed by a batched MPSC ingest queue (util/mpsc_queue.h) — and exposes a
// single typed request/response API: AdmitRequest / ReleaseRequest /
// UpdateRequest in, AdmitResult{color, shard, success, latency} out. The
// raw on_arrival/on_departure/on_link_update calls remain on
// OnlineScheduler for replay and tests; the service is the public entry
// point (shaped like a V2X resource-allocation endpoint: request in,
// {slot, success} out).
//
// WHY SHARDING IS SOUND HERE. The paper's oblivious power assignments make
// a link's transmit power a function of its own length alone — nothing a
// shard decides ever forces another shard to re-derive a power. The
// service adds one structural rule on top: shard-local color classes map
// into DISJOINT global color planes (shard s's classes occupy global
// colors distinct from every other shard's), and a color class's SINR
// feasibility depends only on its own members. Every class is therefore
// fully contained in one shard and exactly validated by that shard's
// accumulators — the sharded schedule is globally feasible by
// construction, at the cost of using more colors than a single scheduler
// would (the conservative direction: admission never violates SINR, it
// over-provisions colors). That locality is also the throughput story:
// admission scans only the shard's own classes (~1/N of the active
// accumulator slots), so the per-event work shrinks with the shard count
// even before thread-level parallelism.
//
// DETERMINISM AND THE ORACLE GATE. Link-id hashing fixes each link's owner
// shard for the service's lifetime; the ingest queue preserves per-shard
// submission order. A shard's final state is therefore bit-for-bit
// IDENTICAL to a fresh single-thread OnlineScheduler replaying the shard's
// sub-trace — validate_against_single_shard() checks exactly that (colors,
// counters, accumulators all equal; with one shard it literally compares
// the service against the plain scheduler on the whole trace). That plus
// validate_against_direct() per shard is the service's exactness gate: no
// event lost, none duplicated, every drained state revalidating
// bit-for-bit.
#ifndef OISCHED_SERVICE_SCHEDULER_SERVICE_H
#define OISCHED_SERVICE_SCHEDULER_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "gen/churn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/online_scheduler.h"
#include "util/expected.h"
#include "util/mpsc_queue.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace oisched {

/// Activate a known (inactive) link.
struct AdmitRequest {
  std::size_t link = 0;
};

/// Deactivate an active link.
struct ReleaseRequest {
  std::size_t link = 0;
};

/// Move an active link to new endpoints (metric node ids).
struct UpdateRequest {
  std::size_t link = 0;
  Request endpoints{};
};

/// The service's uniform response. Failures are structured — the message
/// names the violated contract (same text the CLI prints) — and never
/// leave a shard in a partial state: every scheduler precondition is
/// checked before any mutation.
struct AdmitResult {
  bool success = false;
  /// Shard-local color on success (admissions and updates); -1 for
  /// releases and failures. Global colors are shard-disjoint by
  /// construction; snapshot() materializes the dense global numbering.
  int color = -1;
  /// The shard that owns (and decided for) the link.
  std::size_t shard = 0;
  /// Submit-to-completion latency — queue wait plus scheduling work; the
  /// quantity the saturation benchmark reports percentiles of.
  double latency_seconds = 0.0;
  /// Empty on success.
  std::string error;
};

struct SchedulerServiceOptions {
  /// Shard count (>= 1). Links partition by a link-id hash; each shard
  /// schedules its partition in its own color planes.
  std::size_t num_shards = 1;
  /// Per-shard scheduler knobs (storage backend, remove policy,
  /// fresh_power, compaction). Endpoint motion (update) needs the computed
  /// backend. The appendable backend is rejected: a
  /// sharded universe cannot grow yet (fresh links would need a
  /// coordinated index across all shards' matrices). The telemetry field
  /// is ignored — the service gives each shard its own trace track
  /// (below); a caller-provided single-writer track shared by N shard
  /// threads would break its contract.
  OnlineSchedulerOptions scheduler;
  /// When set, the service registers its series into this registry:
  /// per-shard `shard="s"`-labelled series (the scheduler's oisched_*
  /// set plus service latency/batch-size histograms, processed/rejected
  /// counters and a queue-depth gauge) and the service-level submitted
  /// counter and gain-storage gauge (see README "Observability"). One
  /// scrape-time collector reads them all from what each shard publishes
  /// under the service's state lock (per batch, and before each
  /// synchronous completion), so a scrape while shards run sees whole
  /// events and counts every call that has returned. The registry must
  /// outlive the service's last scrape, and the service must be alive for
  /// every scrape.
  obs::MetricsRegistry* registry = nullptr;
  /// When set, each shard thread records spans ("shard0", "shard1", …
  /// tracks): queue_wait per event and the scheduler's per-phase spans.
  /// Must outlive the service.
  obs::TraceRecorder* trace = nullptr;
};

/// Aggregate service counters; latency summarizes every completed event.
struct ServiceStats {
  std::size_t submitted = 0;   // events accepted into a shard queue
  std::size_t processed = 0;   // events completed by shard threads
  std::size_t rejected = 0;    // completed with success == false
  std::size_t batches = 0;     // consumer-side queue drains
  /// Always 0: the boundary exchange it counted is gone. Kept so existing
  /// readers compile.
  std::size_t boundary_refreshes = 0;
  /// Summed across shards (event_latency merged), and peak_colors the
  /// peak of the global palette (the sum of the shards' live color counts,
  /// since shards own disjoint color planes). That peak is sampled from a
  /// shared running sum each time one shard's color count changes, so it
  /// sees the other shards wherever their threads happen to be: two runs
  /// of the same trace can read different peaks over identical final
  /// states. Leave it out of run-to-run comparisons; every other field
  /// here is reproducible once the service is drained.
  OnlineStats scheduler;
  Summary latency;             // seconds, submit -> completion
};

class SchedulerService {
 public:
  /// Mirrors the OnlineScheduler contract: the instance seeds the link
  /// universe, powers/params/variant are fixed for the service lifetime
  /// (sound under oblivious assignments). Builds one scheduler per shard —
  /// on the dense backend they share the instance's cached gain tables;
  /// on computed each shard owns a private tableless matrix and only ever
  /// moves its own links. Spawns the shard threads.
  SchedulerService(const Instance& instance, std::span<const double> powers,
                   const SinrParams& params, Variant variant,
                   SchedulerServiceOptions options = {});
  /// Drains and joins the shard threads.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Typed synchronous API: enqueue to the owner shard, wait for the
  /// result. Safe from any number of caller threads; per-link ordering
  /// follows enqueue order.
  AdmitResult admit(const AdmitRequest& request);
  AdmitResult release(const ReleaseRequest& request);
  AdmitResult update(const UpdateRequest& request);

  /// Asynchronous ingest (the replay path): routes one trace event to its
  /// owner shard without waiting. Fails (structured, nothing enqueued) on
  /// an out-of-range link, a link_arrival event (sharded growth is
  /// unsupported), or a stopped service. Results surface in stats();
  /// rejected events count there too.
  Expected<void> submit(const ChurnEvent& event);
  /// Same, stamping the event with a timestamp the caller already
  /// sampled — the paced replayer reads the clock once per event and
  /// shares that read between pacing and latency measurement, so the two
  /// cannot drift apart.
  Expected<void> submit(const ChurnEvent& event, Stopwatch::TimePoint submitted);

  /// Blocks until every submitted event has completed. The service stays
  /// accepting; call before any state inspection below.
  void drain();

  /// Drains, closes the queues and joins the shard threads (idempotent).
  /// Further submissions fail structurally.
  void stop();

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  /// The owner shard of a link — splitmix64 of the link id mod the shard
  /// count (id-mixing keeps index-adjacent links off one shard).
  [[nodiscard]] std::size_t shard_of(std::size_t link) const noexcept;
  [[nodiscard]] std::size_t universe() const noexcept;

  /// Aggregated counters + latency percentiles over all completed events.
  /// A synchronous call's event is counted by the time the call returns;
  /// quiesce first (drain()) for a consistent cut of submitted events.
  [[nodiscard]] ServiceStats stats() const;

  /// The per-shard schedulers, for inspection by tests and the oracle
  /// gates. Only touch between drain() and the next submission.
  [[nodiscard]] const OnlineScheduler& shard(std::size_t s) const;

  /// The current global coloring: shard-local classes mapped into dense
  /// global colors via per-shard offsets (shard 0's classes first). Every
  /// global class is exactly one shard's class, so feasibility is
  /// inherited. Quiesced callers only.
  [[nodiscard]] Schedule snapshot() const;
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] int num_colors() const;

  /// Re-validates every shard against the direct metric-recomputing engine
  /// (bit-for-bit engine agreement + feasibility of every class — the
  /// OnlineScheduler gate, per shard). Quiesced callers only.
  [[nodiscard]] bool validate_against_direct(double* worst_margin = nullptr) const;

  /// The oracle gate: replays each shard's sub-trace of `trace` through a
  /// fresh single-thread OnlineScheduler (same construction) and demands
  /// the shard state match bit for bit — per-link colors, color count,
  /// active set, and every deterministic counter (arrivals, departures,
  /// updates, migrations, compaction skips, removal rebuilds). `trace`
  /// must be exactly the event stream submitted since construction. With
  /// one shard this compares the whole service against the plain
  /// scheduler on the whole trace. Quiesced callers only.
  [[nodiscard]] bool validate_against_single_shard(const ChurnTrace& trace) const;

 private:
  struct Completion;
  struct ServiceEvent {
    ChurnEvent event;
    Stopwatch::TimePoint submitted;
    Completion* completion = nullptr;
  };
  struct Shard;

  Expected<void> route(const ChurnEvent& event, Completion* completion,
                       Stopwatch::TimePoint submitted);
  AdmitResult call(const ChurnEvent& event);
  void shard_loop(std::size_t index);
  AdmitResult process_event(Shard& shard, const ServiceEvent& event);
  /// Registers every series and the one collector that fills them.
  void register_metrics(obs::MetricsRegistry& registry);

  const Instance& instance_;
  std::vector<double> powers_;
  SinrParams params_;
  Variant variant_ = Variant::directed;
  SchedulerServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::size_t submitted_ = 0;       // guarded by state_mutex_
  bool stopped_ = false;
  /// The global palette: each shard thread adds its color-count delta
  /// after every event and raises the peak.
  std::atomic<int> live_colors_{0};
  std::atomic<int> peak_colors_{0};
};

/// Outcome of replaying one trace through the service.
struct ServiceReplayResult {
  ServiceStats stats;
  /// First submission to fully drained — includes queue wait, so
  /// events_per_sec is the sustained service rate, directly comparable to
  /// the single-scheduler replay_trace number.
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  Schedule final_schedule;  // dense global colors (see snapshot())
  int final_colors = 0;
  std::size_t final_active = 0;
  std::size_t final_universe = 0;
  std::vector<std::size_t> shard_events;  // per-shard completed events
  bool validated = false;         // validate_against_direct
  bool oracle_identical = false;  // validate_against_single_shard
  double final_worst_margin = 0.0;
};

struct ServiceReplayOptions {
  /// Open-loop submission rate (events/sec); 0 = saturated (submit as
  /// fast as the ingest queue accepts). Paced submission never waits for
  /// completions — latency under overload grows with the backlog, which
  /// is exactly what the saturation sweep measures.
  double arrival_rate = 0.0;
  bool validate_final = true;
  /// Run the per-shard single-scheduler oracle replay (untimed; roughly
  /// doubles the work).
  bool check_oracle = true;
};

/// Feeds every event of `trace` through the service (whose universe must
/// match the trace's), drains, and measures sustained throughput and
/// latency percentiles. Fails structurally on a universe mismatch or a
/// trace the service cannot replay (fresh-link events).
[[nodiscard]] Expected<ServiceReplayResult> replay_trace(
    SchedulerService& service, const ChurnTrace& trace, ServiceReplayOptions options = {});

}  // namespace oisched

#endif  // OISCHED_SERVICE_SCHEDULER_SERVICE_H
