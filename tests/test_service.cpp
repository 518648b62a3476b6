// Scheduling-service suite: MpscQueue delivery guarantees, Expected /
// OptionParser boundary-error units, the typed admission API's success and
// failure paths, and the service's exactness gates — deterministic trace
// replays and concurrent admit/release/update fuzz across 1/2/8 shards
// must leave a drained state that a fresh single-thread OnlineScheduler
// replay of each shard's sub-trace reproduces bit for bit (no event lost,
// none duplicated), and that the direct feasibility engine revalidates.
// The concurrent suites are the ASan/TSan stress for the ingest queue and
// the shard-thread publication protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/power_assignment.h"
#include "core/schedule.h"
#include "gen/churn.h"
#include "online/online_scheduler.h"
#include "service/scheduler_service.h"
#include "sinr/gain_storage.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/expected.h"
#include "util/mpsc_queue.h"
#include "util/options.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::random_scenario;

// ---------------------------------------------------------------------------
// MpscQueue

TEST(MpscQueue, DeliversEverythingInPushOrder) {
  MpscQueue<int> queue;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(queue.push(i));
  EXPECT_EQ(queue.pushed(), 100u);

  std::vector<int> got;
  std::vector<int> batch;
  while (got.size() < 100 && queue.try_drain(batch)) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_GE(queue.batches(), 1u);
}

TEST(MpscQueue, CloseDeliversPendingThenSignalsExit) {
  MpscQueue<int> queue;
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // rejected, not silently dropped

  std::vector<int> batch;
  ASSERT_TRUE(queue.drain(batch));  // everything pushed before close survives
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_FALSE(queue.drain(batch));  // closed AND empty -> consumer exits
  EXPECT_TRUE(queue.closed());
}

TEST(MpscQueue, TryDrainIsNonBlocking) {
  MpscQueue<int> queue;
  std::vector<int> batch{7};
  EXPECT_FALSE(queue.try_drain(batch));
  EXPECT_TRUE(batch.empty());  // cleared even when nothing is pending
  EXPECT_TRUE(queue.push(5));
  EXPECT_TRUE(queue.try_drain(batch));
  EXPECT_EQ(batch, std::vector<int>{5});
}

TEST(MpscQueue, ConcurrentProducersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  MpscQueue<std::uint64_t> queue;

  std::vector<std::uint64_t> got;
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    while (queue.drain(batch)) got.insert(got.end(), batch.begin(), batch.end());
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  consumer.join();

  // No record lost, none duplicated, and each producer's records arrive in
  // its own push order (the per-shard determinism the service relies on).
  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::vector<std::size_t> counts(kProducers, 0);
  for (const std::uint64_t record : got) {
    const std::size_t p = record / kPerProducer;
    ASSERT_LT(p, kProducers);
    const std::uint64_t seq = record % kPerProducer;
    if (counts[p] > 0) {
      EXPECT_GT(seq, last_seen[p]);
    }
    last_seen[p] = seq;
    ++counts[p];
  }
  for (std::size_t p = 0; p < kProducers; ++p) EXPECT_EQ(counts[p], kPerProducer);
}

// ---------------------------------------------------------------------------
// Expected

TEST(Expected, CarriesValueOrMessage) {
  const Expected<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  const Expected<int> bad = fail("no such file: x.json");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "no such file: x.json");

  const Expected<void> done;
  EXPECT_TRUE(done.ok());
  const Expected<void> failed = fail("trace rejected");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error(), "trace rejected");
}

// ---------------------------------------------------------------------------
// OptionParser

/// argv builder: keeps the strings alive while handing out char* views.
struct Argv {
  std::vector<std::string> words;
  std::vector<char*> ptrs;

  explicit Argv(std::vector<std::string> w) : words(std::move(w)) {
    ptrs.reserve(words.size());
    for (std::string& word : words) ptrs.push_back(word.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs.size()); }
  [[nodiscard]] char** data() { return ptrs.data(); }
};

TEST(OptionParser, ParsesTypedFlagsAndPositionals) {
  OptionParser parser;
  std::string name;
  std::size_t count = 0;
  double rate = 0.0;
  bool verbose = false;
  parser.add_string("--name", name);
  parser.add_size("--count", count);
  parser.add_double("--rate", rate);
  parser.add_switch("--verbose", [&] { verbose = true; });

  Argv argv({"tool", "alpha", "--count", "7", "--rate", "2.5", "--verbose", "--name",
             "run1", "beta"});
  const auto positionals = parser.parse(argv.argc(), argv.data(), 1);
  ASSERT_TRUE(positionals.ok());
  EXPECT_EQ(positionals.value(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(name, "run1");
  EXPECT_EQ(count, 7u);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(verbose);
}

TEST(OptionParser, UnknownFlagFailsLoudlyNamingTheWord) {
  OptionParser parser;
  std::size_t shards = 1;
  parser.add_shards(shards);
  Argv argv({"tool", "--sharts", "4"});
  const auto result = parser.parse(argv.argc(), argv.data(), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("--sharts"), std::string::npos);
}

TEST(OptionParser, MissingValueAndBadValuesFail) {
  OptionParser parser;
  std::size_t count = 0;
  parser.add_size("--count", count);
  {
    Argv argv({"tool", "--count"});
    EXPECT_FALSE(parser.parse(argv.argc(), argv.data(), 1).ok());
  }
  {
    Argv argv({"tool", "--count", "seven"});
    EXPECT_FALSE(parser.parse(argv.argc(), argv.data(), 1).ok());
  }
  {
    Argv argv({"tool", "--count", "0"});  // positive-only by default
    EXPECT_FALSE(parser.parse(argv.argc(), argv.data(), 1).ok());
  }
}

TEST(OptionParser, DomainFlagsValidateIdentically) {
  {
    OptionParser parser;
    GainBackend backend = GainBackend::dense;
    parser.add_storage(backend);
    Argv good({"tool", "--storage", "tiled"});
    EXPECT_TRUE(parser.parse(good.argc(), good.data(), 1).ok());
    EXPECT_EQ(backend, GainBackend::tiled);
    Argv bogus({"tool", "--storage", "sparse"});
    EXPECT_FALSE(parser.parse(bogus.argc(), bogus.data(), 1).ok());
    // appendable is gated behind allow_appendable.
    Argv appendable({"tool", "--storage", "appendable"});
    EXPECT_FALSE(parser.parse(appendable.argc(), appendable.data(), 1).ok());
  }
  {
    OptionParser parser;
    RemovePolicy policy = RemovePolicy::exact;
    parser.add_remove_policy(policy);
    Argv rebuild({"tool", "--remove-policy", "rebuild"});
    EXPECT_TRUE(parser.parse(rebuild.argc(), rebuild.data(), 1).ok());
    EXPECT_EQ(policy, RemovePolicy::rebuild);
    // A removed policy name is a parse error naming the word, never a
    // silent default.
    Argv removed({"tool", "--remove-policy", "compensated"});
    const auto result = parser.parse(removed.argc(), removed.data(), 1);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("unknown policy 'compensated'"), std::string::npos);
    EXPECT_EQ(policy, RemovePolicy::rebuild);
  }
  {
    OptionParser parser;
    std::size_t shards = 1;
    parser.add_shards(shards);
    Argv zero({"tool", "--shards", "0"});
    EXPECT_FALSE(parser.parse(zero.argc(), zero.data(), 1).ok());
    Argv eight({"tool", "--shards", "8"});
    EXPECT_TRUE(parser.parse(eight.argc(), eight.data(), 1).ok());
    EXPECT_EQ(shards, 8u);
  }
}

// ---------------------------------------------------------------------------
// Service fixtures

struct ServiceFixture {
  Instance instance;
  std::vector<double> powers;
  SinrParams params;

  explicit ServiceFixture(std::size_t n, std::uint64_t seed)
      : instance(random_scenario(n, seed).instance()) {
    params.alpha = 3.0;
    powers = SqrtPower{}.assign(instance, params.alpha);
  }

  [[nodiscard]] SchedulerService make(std::size_t shards,
                                      SchedulerServiceOptions options = {}) const {
    options.num_shards = shards;
    return SchedulerService(instance, powers, params, Variant::bidirectional, options);
  }
};

// ---------------------------------------------------------------------------
// Typed API: success and failure paths

TEST(SchedulerService, AdmitReleaseRoundTripAcrossShards) {
  const ServiceFixture fx(32, 101);
  SchedulerService service = fx.make(2);
  ASSERT_EQ(service.num_shards(), 2u);

  for (std::size_t link = 0; link < 8; ++link) {
    const AdmitResult admitted = service.admit(AdmitRequest{link});
    ASSERT_TRUE(admitted.success) << admitted.error;
    EXPECT_GE(admitted.color, 0);
    EXPECT_EQ(admitted.shard, service.shard_of(link));
    EXPECT_GE(admitted.latency_seconds, 0.0);
    EXPECT_TRUE(admitted.error.empty());
  }
  service.drain();
  EXPECT_EQ(service.active_count(), 8u);
  EXPECT_TRUE(service.validate_against_direct());

  const AdmitResult released = service.release(ReleaseRequest{3});
  ASSERT_TRUE(released.success) << released.error;
  EXPECT_EQ(released.color, -1);
  service.drain();
  EXPECT_EQ(service.active_count(), 7u);
  EXPECT_TRUE(service.validate_against_direct());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.processed, 9u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.latency.count, 9u);
}

TEST(SchedulerService, FailuresAreStructuredAndLeaveStateClean) {
  const ServiceFixture fx(16, 7);
  SchedulerService service = fx.make(2);

  ASSERT_TRUE(service.admit(AdmitRequest{0}).success);
  const AdmitResult twice = service.admit(AdmitRequest{0});
  EXPECT_FALSE(twice.success);
  EXPECT_FALSE(twice.error.empty());

  const AdmitResult inactive = service.release(ReleaseRequest{5});
  EXPECT_FALSE(inactive.success);
  EXPECT_FALSE(inactive.error.empty());

  const AdmitResult out_of_range = service.admit(AdmitRequest{999});
  EXPECT_FALSE(out_of_range.success);
  EXPECT_FALSE(out_of_range.error.empty());

  // Motion on the shared dense tables is a structured rejection too.
  const AdmitResult moved = service.update(UpdateRequest{0, Request{1, 0}});
  EXPECT_FALSE(moved.success);
  EXPECT_FALSE(moved.error.empty());

  service.drain();
  EXPECT_EQ(service.active_count(), 1u);  // only the one successful admit
  EXPECT_TRUE(service.validate_against_direct());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.processed, stats.submitted);
}

TEST(SchedulerService, UpdateMovesActiveLinkOnComputed) {
  const ServiceFixture fx(16, 21);
  SchedulerServiceOptions options;
  options.scheduler.storage = GainBackend::computed;
  SchedulerService service = fx.make(2, options);

  ASSERT_TRUE(service.admit(AdmitRequest{2}).success);
  // Swap the link's endpoints — a geometry change the in-place update path
  // applies to the shard's private matrix.
  const AdmitResult moved = service.update(UpdateRequest{2, Request{5, 4}});
  ASSERT_TRUE(moved.success) << moved.error;
  EXPECT_GE(moved.color, 0);
  service.drain();
  EXPECT_TRUE(service.validate_against_direct());
  EXPECT_EQ(service.stats().scheduler.link_updates, 1u);
}

TEST(SchedulerService, RejectsAppendableStorageAndFreshLinkEvents) {
  const ServiceFixture fx(16, 3);
  SchedulerServiceOptions options;
  options.num_shards = 2;
  options.scheduler.storage = GainBackend::appendable;
  EXPECT_THROW(SchedulerService(fx.instance, fx.powers, fx.params,
                                Variant::bidirectional, options),
               PreconditionError);

  SchedulerService service = fx.make(2);
  ChurnEvent fresh;
  fresh.kind = ChurnEvent::Kind::link_arrival;
  fresh.link = fx.instance.size();
  fresh.request = Request{0, 1};
  const Expected<void> submitted = service.submit(fresh);
  ASSERT_FALSE(submitted.ok());
  EXPECT_NE(submitted.error().find("link_arrival"), std::string::npos);
}

TEST(SchedulerService, StopIsIdempotentAndFailsLaterSubmissions) {
  const ServiceFixture fx(16, 5);
  SchedulerService service = fx.make(2);
  ASSERT_TRUE(service.admit(AdmitRequest{1}).success);
  service.stop();
  service.stop();  // idempotent

  ChurnEvent event;
  event.kind = ChurnEvent::Kind::arrival;
  event.link = 2;
  EXPECT_FALSE(service.submit(event).ok());
  const AdmitResult late = service.admit(AdmitRequest{2});
  EXPECT_FALSE(late.success);
  EXPECT_FALSE(late.error.empty());
  EXPECT_EQ(service.active_count(), 1u);
}

// ---------------------------------------------------------------------------
// Exactness gates: deterministic replay vs the single-shard oracle

TEST(SchedulerService, TraceReplayMatchesOracleAcrossShardCounts) {
  const ServiceFixture fx(48, 909);
  Rng rng(909);
  PoissonChurnOptions churn;
  churn.max_events = 400;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SchedulerService service = fx.make(shards);
    for (const ChurnEvent& event : trace.events) {
      ASSERT_TRUE(service.submit(event).ok());
    }
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, trace.events.size());
    EXPECT_EQ(stats.processed, trace.events.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_TRUE(service.validate_against_direct());
    EXPECT_TRUE(service.validate_against_single_shard(trace))
        << shards << " shards diverged from the single-thread oracle";
    EXPECT_EQ(service.active_count(), trace.final_active().size());
  }
}

TEST(SchedulerService, PeakColorsTracksTheGlobalPalette) {
  // Shards own disjoint color planes, so the service's palette is the sum
  // of the shards' live color counts, and its peak can never be below
  // the drained palette.
  const ServiceFixture fx(48, 909);
  Rng rng(909);
  PoissonChurnOptions churn;
  churn.max_events = 400;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SchedulerService service = fx.make(shards);
    for (const ChurnEvent& event : trace.events) {
      ASSERT_TRUE(service.submit(event).ok());
    }
    service.drain();

    const int peak = service.stats().scheduler.peak_colors;
    EXPECT_GE(peak, service.num_colors()) << shards << " shards";
    int shard_peak_sum = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GE(peak, service.shard(s).stats().peak_colors);
      shard_peak_sum += service.shard(s).stats().peak_colors;
    }
    EXPECT_LE(peak, shard_peak_sum);
    if (shards == 1) {
      EXPECT_EQ(peak, service.shard(0).stats().peak_colors);
    }
  }
}

TEST(SchedulerService, SingleShardEqualsPlainSchedulerBitForBit) {
  const ServiceFixture fx(32, 404);
  Rng rng(404);
  PoissonChurnOptions churn;
  churn.max_events = 300;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);

  SchedulerService service = fx.make(1);
  for (const ChurnEvent& event : trace.events) {
    ASSERT_TRUE(service.submit(event).ok());
  }
  service.drain();

  OnlineScheduler oracle(fx.instance, fx.powers, fx.params, Variant::bidirectional);
  for (const ChurnEvent& event : trace.events) {
    switch (event.kind) {
      case ChurnEvent::Kind::arrival: (void)oracle.on_arrival(event.link); break;
      case ChurnEvent::Kind::departure: oracle.on_departure(event.link); break;
      default: FAIL() << "unexpected event kind in a churn-only trace";
    }
  }

  const Schedule snapshot = service.snapshot();
  EXPECT_EQ(service.num_colors(), oracle.num_colors());
  for (std::size_t link = 0; link < fx.instance.size(); ++link) {
    EXPECT_EQ(snapshot.color_of[link], oracle.color_of(link)) << "link " << link;
  }
  EXPECT_TRUE(service.validate_against_single_shard(trace));
}

TEST(SchedulerService, ReplayHelperReportsThroughputAndLatency) {
  const ServiceFixture fx(48, 11);
  Rng rng(11);
  PoissonChurnOptions churn;
  churn.max_events = 256;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);

  SchedulerService service = fx.make(4);
  const auto replayed = replay_trace(service, trace);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const ServiceReplayResult& result = replayed.value();

  EXPECT_EQ(result.stats.processed, trace.events.size());
  EXPECT_EQ(result.stats.rejected, 0u);
  EXPECT_TRUE(result.validated);
  EXPECT_TRUE(result.oracle_identical);
  EXPECT_GT(result.events_per_sec, 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_EQ(result.shard_events.size(), 4u);
  std::size_t sum = 0;
  for (const std::size_t count : result.shard_events) sum += count;
  EXPECT_EQ(sum, trace.events.size());
  EXPECT_EQ(result.final_active, trace.final_active().size());
  EXPECT_EQ(result.stats.latency.count, trace.events.size());
  EXPECT_GT(result.stats.latency.p99, 0.0);
  EXPECT_LE(result.stats.latency.p50, result.stats.latency.p99);
  // Feasible drained classes have margins > 1 by definition.
  if (result.final_active > 0) {
    EXPECT_GT(result.final_worst_margin, 1.0);
  }
}

TEST(SchedulerService, ReplayRejectsUniverseMismatch) {
  const ServiceFixture fx(16, 13);
  Rng rng(13);
  PoissonChurnOptions churn;
  churn.max_events = 32;
  const ChurnTrace trace = poisson_trace(64, churn, rng);  // wrong universe
  SchedulerService service = fx.make(2);
  const auto replayed = replay_trace(service, trace);
  ASSERT_FALSE(replayed.ok());
  EXPECT_FALSE(replayed.error().empty());
}

// ---------------------------------------------------------------------------
// Telemetry

TEST(SchedulerService, RegistryExportsNoBoundarySeries) {
  const ServiceFixture fx(48, 17);
  Rng rng(17);
  PoissonChurnOptions churn;
  churn.max_events = 256;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);
  obs::MetricsRegistry registry;
  SchedulerServiceOptions options;
  options.registry = &registry;
  SchedulerService service = fx.make(3, options);
  const auto replayed = replay_trace(service, trace);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  EXPECT_EQ(service.stats().boundary_refreshes, 0u);
  const obs::MetricsSnapshot snapshot = registry.scrape();
  EXPECT_EQ(snapshot.counter_total("oisched_service_submitted_total"), trace.events.size());
  for (const obs::MetricsSnapshot::Entry& entry : snapshot.entries) {
    EXPECT_EQ(entry.name.find("boundary"), std::string::npos) << entry.name;
  }
}

/// Every scheduler counter series, summed over its label sets, against the
/// stats field it exports — listed by hand so a series the registry drops
/// (or never had) fails here.
void expect_scheduler_series_match(const obs::MetricsSnapshot& snapshot,
                                   const OnlineStats& stats) {
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"oisched_events_total", stats.events()},
      {"oisched_arrivals_total", stats.arrivals},
      {"oisched_departures_total", stats.departures},
      {"oisched_link_updates_total", stats.link_updates},
      {"oisched_fresh_links_total", stats.fresh_links},
      {"oisched_update_migrations_total", stats.update_migrations},
      {"oisched_migrations_total", stats.migrations},
      {"oisched_compaction_skips_total", stats.compaction_skips},
      {"oisched_removal_rebuilds_total", stats.removal_rebuilds},
      {"oisched_classes_opened_total", stats.classes_opened},
      {"oisched_classes_closed_total", stats.classes_closed},
      {"oisched_retired_links_total", stats.retired_links},
      {"oisched_reused_slots_total", stats.reused_slots},
      {"oisched_exact_fallbacks_total", stats.exact_fallbacks},
  };
  for (const auto& [series, value] : expected) {
    ASSERT_NE(std::find_if(snapshot.entries.begin(), snapshot.entries.end(),
                           [&](const obs::MetricsSnapshot::Entry& e) {
                             return e.name == series;
                           }),
              snapshot.entries.end())
        << series << " is not registered";
    EXPECT_EQ(snapshot.counter_total(series), value) << series;
  }
  EXPECT_EQ(snapshot.histogram_total("oisched_event_latency_seconds").count(),
            stats.events());
  EXPECT_EQ(stats.event_latency.count(), stats.events());
}

TEST(Telemetry, RegistryAgreesWithStatsOnABareReplayWithSlotReuse) {
  const auto scenario = random_scenario(48, /*seed=*/29);
  const Instance full = scenario.instance();
  const std::size_t n0 = 24;
  const auto all = full.requests();
  const Instance base(full.metric_ptr(),
                      std::vector<Request>(all.begin(), all.begin() + n0));
  SinrParams params;
  params.alpha = 3.0;
  const auto powers = SqrtPower{}.assign(base, params.alpha);
  OnlineSchedulerOptions options;
  options.storage = GainBackend::appendable;
  options.fresh_power = std::make_shared<SqrtPower>();
  OnlineScheduler scheduler(base, powers, params, Variant::bidirectional, options);
  obs::MetricsRegistry registry;
  register_online_metrics(registry, scheduler);

  Rng rng(29);
  const ChurnTrace trace = make_churn_trace("growing", n0, 600, rng, all.subspan(n0));
  const ReplayResult replay = replay_trace(scheduler, trace);
  ASSERT_TRUE(replay.validated);
  // Retire every inactive link, then let fresh links recycle the slots.
  // retire_link is not an event, so only a registry that reads the stats
  // sees it.
  std::size_t retired = 0;
  for (std::size_t link = 0; link < scheduler.universe() && retired < 6; ++link) {
    if (!scheduler.is_active(link)) {
      scheduler.retire_link(link);
      ++retired;
    }
  }
  ASSERT_EQ(retired, 6u);
  for (std::size_t i = 0; i < 4; ++i) (void)scheduler.on_link_arrival(all[n0 + i]);
  scheduler.on_departure(scheduler.universe() - 1);
  EXPECT_EQ(scheduler.stats().retired_links, 6u);
  EXPECT_EQ(scheduler.stats().reused_slots, 4u);
  EXPECT_TRUE(scheduler.validate_against_direct());

  const obs::MetricsSnapshot snapshot = registry.scrape();
  expect_scheduler_series_match(snapshot, scheduler.stats());
  ASSERT_NE(snapshot.find("oisched_colors"), nullptr);
  EXPECT_EQ(snapshot.find("oisched_colors")->gauge, scheduler.num_colors());
  EXPECT_EQ(snapshot.find("oisched_active_links")->gauge,
            static_cast<double>(scheduler.active_count()));
  EXPECT_EQ(snapshot.histogram_total("oisched_event_latency_seconds").max(),
            scheduler.stats().event_latency.max());
}

TEST(SchedulerService, RegistryAgreesWithServiceStats) {
  const ServiceFixture fx(96, 31);
  Rng rng(31);
  const ChurnTrace trace = make_churn_trace("waypoint", fx.instance.size(), 900, rng, {},
                                            &fx.instance.metric(), fx.instance.requests());
  obs::MetricsRegistry registry;
  SchedulerServiceOptions options;
  options.registry = &registry;
  options.scheduler.storage = GainBackend::computed;
  options.scheduler.fresh_power = std::make_shared<SqrtPower>();
  SchedulerService service = fx.make(3, options);
  const auto replayed = replay_trace(service, trace);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  ASSERT_TRUE(replayed.value().oracle_identical);
  // One rejected event (releasing an inactive link), so the rejected
  // series has something to agree on.
  std::size_t inactive = 0;
  while (service.snapshot().color_of[inactive] >= 0) ++inactive;
  EXPECT_FALSE(service.release(ReleaseRequest{inactive}).success);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.scheduler.link_updates, 0u);
  EXPECT_GT(stats.rejected, 0u);
  const obs::MetricsSnapshot snapshot = registry.scrape();
  expect_scheduler_series_match(snapshot, stats.scheduler);
  EXPECT_EQ(snapshot.counter_total("oisched_service_submitted_total"), stats.submitted);
  EXPECT_EQ(snapshot.counter_total("oisched_service_processed_total"), stats.processed);
  EXPECT_EQ(snapshot.counter_total("oisched_service_rejected_total"), stats.rejected);
  EXPECT_EQ(snapshot.histogram_total("oisched_service_latency_seconds").count(),
            stats.processed);
  const obs::LatencyHistogram batches = snapshot.histogram_total("oisched_service_batch_size");
  EXPECT_EQ(batches.count(), stats.batches);
  EXPECT_EQ(batches.sum(), static_cast<double>(stats.processed));
  // Per shard, each labelled series reads that shard's own stats.
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    const std::string labels = "shard=\"" + std::to_string(s) + "\"";
    const OnlineStats& shard = service.shard(s).stats();
    ASSERT_NE(snapshot.find("oisched_migrations_total", labels), nullptr);
    EXPECT_EQ(snapshot.find("oisched_events_total", labels)->counter, shard.events());
    EXPECT_EQ(snapshot.find("oisched_link_updates_total", labels)->counter,
              shard.link_updates);
    EXPECT_EQ(snapshot.find("oisched_migrations_total", labels)->counter, shard.migrations);
    EXPECT_EQ(snapshot.find("oisched_colors", labels)->gauge, service.shard(s).num_colors());
    EXPECT_EQ(snapshot.find("oisched_active_links", labels)->gauge,
              static_cast<double>(service.shard(s).active_count()));
  }
}

TEST(SchedulerService, SynchronousCallIsCountedWhenItReturns) {
  // No drain(): a call that has returned must already be in stats() and in
  // a scrape, whichever shard served it.
  const ServiceFixture fx(96, 37);
  obs::MetricsRegistry registry;
  SchedulerServiceOptions options;
  options.registry = &registry;
  SchedulerService service = fx.make(3, options);
  for (std::size_t link = 0; link < 64; ++link) {
    EXPECT_FALSE(service.release(ReleaseRequest{link}).success);
    EXPECT_TRUE(service.admit(AdmitRequest{link}).success);
    const obs::MetricsSnapshot snapshot = registry.scrape();
    EXPECT_EQ(snapshot.counter_total("oisched_service_rejected_total"), link + 1);
    EXPECT_EQ(snapshot.counter_total("oisched_service_processed_total"), 2 * (link + 1));
    EXPECT_EQ(snapshot.counter_total("oisched_arrivals_total"), link + 1);
    double active = 0.0;
    for (std::size_t s = 0; s < service.num_shards(); ++s) {
      active += snapshot.find("oisched_active_links", "shard=\"" + std::to_string(s) + "\"")
                    ->gauge;
    }
    EXPECT_EQ(active, static_cast<double>(link + 1));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, link + 1);
    EXPECT_EQ(stats.processed, 2 * (link + 1));
  }
}

TEST(SchedulerService, ScrapeDuringComputedReplayIsRaceFree) {
  // The scrape collector reads every shard's per-batch publication
  // (counters, histograms, colors), its queue depth and its matrix's
  // residency while the shard threads run: TSan checks the collector's
  // locking against the shards' publication. Under that lock a scrape
  // sees whole publications, so its series agree with each other on every
  // pass. The shards run the rebuild remove policy, checked against the
  // single-shard oracle like the exact policy elsewhere.
  const ServiceFixture fx(128, 23);
  Rng rng(23);
  PoissonChurnOptions churn;
  churn.max_events = 4000;
  const ChurnTrace trace = poisson_trace(fx.instance.size(), churn, rng);
  obs::MetricsRegistry registry;
  SchedulerServiceOptions options;
  options.registry = &registry;
  options.scheduler.storage = GainBackend::computed;
  options.scheduler.remove_policy = RemovePolicy::rebuild;
  SchedulerService service = fx.make(2, options);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> scrapes{0};
  std::atomic<std::size_t> torn{0};
  std::thread scraper([&] {
    std::uint64_t last_events = 0;
    while (!done.load()) {
      const obs::MetricsSnapshot snapshot = registry.scrape();
      const std::uint64_t events = snapshot.counter_total("oisched_events_total");
      const std::uint64_t processed =
          snapshot.counter_total("oisched_service_processed_total");
      const std::uint64_t rejected = snapshot.counter_total("oisched_service_rejected_total");
      const bool consistent =
          events + rejected == processed && events >= last_events &&
          snapshot.histogram_total("oisched_event_latency_seconds").count() == events &&
          snapshot.histogram_total("oisched_service_latency_seconds").count() == processed &&
          snapshot.counter_total("oisched_service_submitted_total") >= processed;
      if (!consistent) ++torn;
      last_events = events;
      ++scrapes;
    }
  });
  // Replay only once the scraper is running, so the two overlap.
  while (scrapes.load() == 0) std::this_thread::yield();
  ServiceReplayOptions replay_options;
  replay_options.check_oracle = false;
  const auto replayed = replay_trace(service, trace, replay_options);
  done.store(true);
  scraper.join();
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  EXPECT_EQ(replayed.value().stats.processed, trace.events.size());
  EXPECT_TRUE(replayed.value().validated);
  EXPECT_EQ(torn.load(), 0u);
  // Two shards, each with a private computed matrix that holds only its n
  // signals.
  const obs::MetricsSnapshot snapshot = registry.scrape();
  const obs::MetricsSnapshot::Entry* resident = snapshot.find("oisched_gain_resident_doubles");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->gauge, 2.0 * static_cast<double>(fx.instance.size()));
}

// ---------------------------------------------------------------------------
// Concurrent fuzz

/// Deterministic per-shard op sequences: alternating admit/release (plus
/// optional endpoint swaps while active) over the shard's own links.
/// Submitting shard s's sequence from one dedicated thread makes the
/// shard's queue order equal the sequence order, so the merged trace is
/// replayable by the single-shard oracle even though the threads run
/// concurrently.
std::vector<std::vector<ChurnEvent>> shard_sequences(const SchedulerService& service,
                                                     std::size_t universe,
                                                     std::size_t ops_per_shard,
                                                     bool with_updates,
                                                     std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> links_of(service.num_shards());
  for (std::size_t link = 0; link < universe; ++link) {
    links_of[service.shard_of(link)].push_back(link);
  }
  std::vector<std::vector<ChurnEvent>> sequences(service.num_shards());
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    if (links_of[s].empty()) continue;
    Rng rng(seed + s);
    std::vector<bool> active(universe, false);
    for (std::size_t i = 0; i < ops_per_shard; ++i) {
      const std::size_t link =
          links_of[s][rng.uniform_index(links_of[s].size())];
      ChurnEvent event;
      event.link = link;
      if (!active[link]) {
        event.kind = ChurnEvent::Kind::arrival;
        active[link] = true;
      } else if (with_updates && rng.uniform_index(4) == 0) {
        event.kind = ChurnEvent::Kind::link_update;
        // Swap the link's endpoints: same geometry nodes, reversed roles.
        event.request = Request{2 * link + 1, 2 * link};
      } else {
        event.kind = ChurnEvent::Kind::departure;
        active[link] = false;
      }
      sequences[s].push_back(event);
    }
  }
  return sequences;
}

void run_concurrent_fuzz(std::size_t shards, bool with_updates, std::uint64_t seed) {
  const ServiceFixture fx(64, seed);
  SchedulerServiceOptions options;
  if (with_updates) options.scheduler.storage = GainBackend::computed;
  SchedulerService service = fx.make(shards, options);

  const auto sequences =
      shard_sequences(service, fx.instance.size(), 300, with_updates, seed);

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    if (sequences[s].empty()) continue;
    producers.emplace_back([&service, &sequence = sequences[s]] {
      for (const ChurnEvent& event : sequence) {
        AdmitResult result;
        switch (event.kind) {
          case ChurnEvent::Kind::arrival:
            result = service.admit(AdmitRequest{event.link});
            break;
          case ChurnEvent::Kind::departure:
            result = service.release(ReleaseRequest{event.link});
            break;
          case ChurnEvent::Kind::link_update:
            result = service.update(UpdateRequest{event.link, event.request});
            break;
          case ChurnEvent::Kind::link_arrival: break;
        }
        ASSERT_TRUE(result.success) << result.error;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();

  // Conservation: every op completed exactly once, none rejected.
  std::size_t total = 0;
  for (const auto& sequence : sequences) total += sequence.size();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.processed, total);
  EXPECT_EQ(stats.rejected, 0u);

  // The merged trace (shard sequences concatenated; per-link order is
  // per-shard order, which each dedicated producer preserved) must replay
  // to the bit-identical state on fresh single-thread schedulers.
  ChurnTrace merged;
  merged.universe = fx.instance.size();
  for (const auto& sequence : sequences) {
    merged.events.insert(merged.events.end(), sequence.begin(), sequence.end());
  }
  EXPECT_TRUE(service.validate_against_single_shard(merged))
      << shards << " shards diverged under concurrent submission";
  EXPECT_TRUE(service.validate_against_direct());
}

TEST(SchedulerServiceFuzz, ConcurrentAdmitReleaseOneShard) {
  run_concurrent_fuzz(1, /*with_updates=*/false, 1111);
}

TEST(SchedulerServiceFuzz, ConcurrentAdmitReleaseTwoShards) {
  run_concurrent_fuzz(2, /*with_updates=*/false, 2222);
}

TEST(SchedulerServiceFuzz, ConcurrentAdmitReleaseEightShards) {
  run_concurrent_fuzz(8, /*with_updates=*/false, 8888);
}

TEST(SchedulerServiceFuzz, ConcurrentAdmitReleaseUpdateEightShards) {
  run_concurrent_fuzz(8, /*with_updates=*/true, 4242);
}

TEST(SchedulerServiceFuzz, ManyProducersPerShardConserveEvents) {
  // Multiple caller threads per shard: the interleaving is nondeterministic
  // (so no oracle replay), but per-link order is still each thread's
  // program order because the threads own disjoint link sets. Checks no
  // event is lost or duplicated and the drained state revalidates — the
  // TSan stress for the route()/shard-thread publication protocol.
  const ServiceFixture fx(64, 77);
  SchedulerService service = fx.make(4);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOps = 200;
  std::vector<std::vector<bool>> final_active(kThreads,
                                              std::vector<bool>(fx.instance.size()));
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&service, &fx, &mine = final_active[t], t] {
      Rng rng(1000 + t);
      for (std::size_t i = 0; i < kOps; ++i) {
        // Thread t owns links with index % kThreads == t: disjoint sets.
        const std::size_t link =
            t + kThreads * rng.uniform_index(fx.instance.size() / kThreads);
        AdmitResult result;
        if (!mine[link]) {
          result = service.admit(AdmitRequest{link});
          mine[link] = true;
        } else {
          result = service.release(ReleaseRequest{link});
          mine[link] = false;
        }
        ASSERT_TRUE(result.success) << result.error;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kOps);
  EXPECT_EQ(stats.processed, kThreads * kOps);
  EXPECT_EQ(stats.rejected, 0u);

  std::size_t expected_active = 0;
  const Schedule snapshot = service.snapshot();
  for (std::size_t link = 0; link < fx.instance.size(); ++link) {
    bool active = false;
    for (std::size_t t = 0; t < kThreads; ++t) active = active || final_active[t][link];
    if (active) ++expected_active;
    EXPECT_EQ(snapshot.color_of[link] >= 0, active) << "link " << link;
  }
  EXPECT_EQ(service.active_count(), expected_active);
  EXPECT_TRUE(service.validate_against_direct());
}

}  // namespace
}  // namespace oisched
