// File-driven scheduling tool: the library as a command-line utility.
//
//   $ ./schedule_tool gen  <out.inst> <n> [seed]       generate a workload
//   $ ./schedule_tool run  <in.inst> <out.sched> [sqrt|greedy] [gain|direct]
//                          [--storage dense|computed]
//   $ ./schedule_tool check <in.inst> <in.sched>       validate a schedule
//   $ ./schedule_tool gen-trace <in.inst> <out.trace>
//                               [poisson|flash|adversarial|hotspot|growing|
//                                waypoint|commuter|flashmob]
//                               [events] [seed]        generate a churn trace
//   $ ./schedule_tool replay <in.inst> --trace <in.trace> [--out <final.sched>]
//                            [--storage dense|computed]
//                            [--remove-policy rebuild|exact]
//                            [--shards N] [--rate R]
//                            [--trace-out <spans.json>]
//                            replay it online
//   $ ./schedule_tool serve <in.inst> [--shards N]
//                           [--storage dense|computed]
//                           [--remove-policy rebuild|exact]
//                           interactive admission service on stdin
//
// `run` defaults to the Section-5 sqrt coloring on the gain-matrix engine;
// the direct engine answers the same queries from scratch and exists for
// cross-checking (identical schedules, different wall time — reported).
// `replay` drives the trace through the online scheduler; with `--shards N`
// it goes through the sharded SchedulerService instead — the typed
// admission front-end whose shards each first-fit their own hash partition
// of the links into disjoint color planes — and additionally reports
// latency percentiles, the per-shard event split, and the bit-for-bit
// oracle verdict (each shard's final state vs a fresh single-thread replay
// of its sub-trace). `--rate R` paces the service replay open-loop at R
// events/sec (0 = saturated).
// `--storage computed` replays off the tableless backend — entries are
// recomputed on demand, so universes far past any dense table's memory
// budget fit. A trace that moves links always replays on computed, and a
// growing one on appendable; the summary line names the backend that ran.
// `--trace-out` records the replay's phase
// spans (queue wait, feasibility scan, accumulator update, compaction)
// into a Chrome trace-event JSON file — open it in
// chrome://tracing or Perfetto. `serve` exposes the same typed API
// interactively: one command per stdin line (admit/release/update/stats/
// metrics/prometheus/drain/quit), one structured response per
// line on stdout. `update` moves a link and re-powers it by the sqrt rule;
// it needs `--storage computed`, the backend that moves links in each
// shard's own matrix. `metrics` (and `stats`, its alias) print the service's
// telemetry registry as one-line JSON (schema oisched-metrics/1), and
// `prometheus` prints the same snapshot in Prometheus text exposition.
//
// Every subcommand parses its flags through the shared OptionParser
// (util/options.h), so --storage/--remove-policy/--shards/--trace mean the
// same thing everywhere and an unknown flag fails loudly naming the word;
// file loads go through the Expected-returning try_load_* wrappers, so a
// missing or malformed file produces one structured error line instead of
// an exception trace.
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/io.h"
#include "core/power_assignment.h"
#include "core/sqrt_coloring.h"
#include "gen/churn.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/online_scheduler.h"
#include "service/scheduler_service.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace oisched;

int usage() {
  std::cerr
      << "usage:\n"
         "  schedule_tool gen   <out.inst> <n> [seed]\n"
         "  schedule_tool run   <in.inst> <out.sched> [sqrt|greedy] "
         "[gain|direct] [--storage dense|computed]\n"
         "  schedule_tool check <in.inst> <in.sched>\n"
         "  schedule_tool gen-trace <in.inst> <out.trace> "
         "[poisson|flash|adversarial|hotspot|growing|waypoint|commuter|"
         "flashmob] [events] [seed]\n"
         "  schedule_tool replay <in.inst> --trace <in.trace> "
         "[--out <final.sched>] [--storage dense|computed]\n"
         "                      [--remove-policy rebuild|exact] "
         "[--shards N] [--rate R]\n"
         "                      [--trace-out <spans.json>]\n"
         "  schedule_tool serve <in.inst> [--shards N] "
         "[--storage dense|computed]\n"
         "                      [--remove-policy rebuild|exact]\n";
  return 2;
}

/// One structured error line for flag-parse and file-load failures.
int fail_loudly(const std::string& message) {
  std::cerr << "error: " << message << '\n';
  return 2;
}

/// Strict full-word positional number parse (strtoull accepts "12abc").
bool parse_size_arg(const std::string& word, std::size_t& out) {
  if (word.empty() || word.front() == '-') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(word.c_str(), &end, 10);
  if (end != word.c_str() + word.size()) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// The fixed SINR parameters every subcommand evaluates under — one place,
/// so run/check/replay/serve can never drift apart.
SinrParams default_params() {
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 1.0;
  return params;
}

bool parse_engine(const std::string& word, FeasibilityEngine& engine) {
  if (word == "gain" || word == "gain_matrix") {
    engine = FeasibilityEngine::gain_matrix;
  } else if (word == "direct") {
    engine = FeasibilityEngine::direct;
  } else {
    return false;
  }
  return true;
}

int cmd_gen(int argc, char** argv) {
  OptionParser parser;
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() < 2 || args.size() > 3) return usage();
  std::size_t n = 0;
  std::size_t seed = 1;
  if (!parse_size_arg(args[1], n) || n == 0) {
    return fail_loudly("gen: '" + args[1] + "' is not a positive link count");
  }
  if (args.size() > 2 && !parse_size_arg(args[2], seed)) {
    return fail_loudly("gen: '" + args[2] + "' is not a seed");
  }
  Rng rng(static_cast<std::uint64_t>(seed));
  const Instance instance = random_square(n, {}, rng);
  save_instance(args[0], instance);
  std::cout << "wrote " << instance.size() << " requests to " << args[0] << '\n';
  return 0;
}

int cmd_run(int argc, char** argv) {
  GainBackend storage = GainBackend::dense;
  OptionParser parser;
  parser.add_storage(storage);
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() < 2 || args.size() > 4) return usage();
  const Expected<Instance> instance = try_load_instance(args[0]);
  if (!instance) return fail_loudly(instance.error());
  const std::string algo = args.size() > 2 ? args[2] : "sqrt";
  FeasibilityEngine engine = FeasibilityEngine::gain_matrix;
  if (args.size() > 3 && !parse_engine(args[3], engine)) {
    return fail_loudly("run: unknown engine '" + args[3] + "' (expected gain|direct)");
  }
  const SinrParams params = default_params();

  Schedule schedule;
  Stopwatch watch;
  if (algo == "sqrt") {
    SqrtColoringOptions options;
    options.engine = engine;
    options.storage = storage;
    schedule =
        sqrt_coloring(instance.value(), params, Variant::bidirectional, options).schedule;
  } else if (algo == "greedy") {
    const auto powers = SqrtPower{}.assign(instance.value(), params.alpha);
    schedule = greedy_coloring(instance.value(), powers, params, Variant::bidirectional,
                               RequestOrder::longest_first, engine, storage);
  } else {
    return fail_loudly("run: unknown algorithm '" + algo + "' (expected sqrt|greedy)");
  }
  const double elapsed_ms = watch.elapsed_ms();
  save_schedule(args[1], schedule);
  std::cout << "scheduled " << instance.value().size() << " requests into "
            << schedule.num_colors << " colors (" << algo << ", engine "
            << to_string(engine) << ", storage " << to_string(storage) << ", "
            << elapsed_ms << " ms) -> " << args[1] << '\n';
  return 0;
}

int cmd_check(int argc, char** argv) {
  OptionParser parser;
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() != 2) return usage();
  const Expected<Instance> instance = try_load_instance(args[0]);
  if (!instance) return fail_loudly(instance.error());
  const Expected<Schedule> schedule = try_load_schedule(args[1]);
  if (!schedule) return fail_loudly(schedule.error());
  const SinrParams params = default_params();
  const auto powers = SqrtPower{}.assign(instance.value(), params.alpha);
  const ScheduleReport report = validate_schedule(instance.value(), powers,
                                                  schedule.value(), params,
                                                  Variant::bidirectional);
  std::cout << (report.valid ? "VALID" : "INVALID") << ": " << report.num_colors
            << " colors, worst margin " << report.worst_margin << '\n';
  for (const int c : report.infeasible_colors) {
    std::cout << "  infeasible color " << c << '\n';
  }
  return report.valid ? 0 : 1;
}

int cmd_gen_trace(int argc, char** argv) {
  OptionParser parser;
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() < 2 || args.size() > 5) return usage();
  const Expected<Instance> loaded = try_load_instance(args[0]);
  if (!loaded) return fail_loudly(loaded.error());
  const Instance& instance = loaded.value();
  const std::string& path = args[1];
  const std::string kind = args.size() > 2 ? args[2] : "poisson";
  std::size_t events = 0;
  std::size_t seed = 1;
  if (args.size() > 3 && !parse_size_arg(args[3], events)) {
    return fail_loudly("gen-trace: '" + args[3] + "' is not an event count");
  }
  if (args.size() > 4 && !parse_size_arg(args[4], seed)) {
    return fail_loudly("gen-trace: '" + args[4] + "' is not a seed");
  }
  const bool mobility = kind == "waypoint" || kind == "commuter" || kind == "flashmob";
  if (kind != "poisson" && kind != "flash" && kind != "adversarial" &&
      kind != "hotspot" && kind != "growing" && !mobility) {
    return fail_loudly("gen-trace: unknown trace kind '" + kind + "'");
  }
  Rng rng(static_cast<std::uint64_t>(seed));
  ChurnTrace trace;
  if (mobility) {
    // Endpoint motion needs the instance's geometry.
    trace = make_churn_trace(kind, instance.size(), events, rng, {}, &instance.metric(),
                             instance.requests());
  } else if (kind == "growing") {
    // The first half of the instance is the starting universe; the second
    // half arrives as fresh links over the appendable backend.
    const std::size_t n0 = std::max<std::size_t>(1, instance.size() / 2);
    if (n0 >= instance.size()) {
      return fail_loudly("growing traces need an instance with at least 2 requests");
    }
    trace = make_churn_trace(kind, n0, events, rng, instance.requests().subspan(n0));
  } else {
    trace = make_churn_trace(kind, instance.size(), events, rng);
  }
  save_trace(path, trace);
  std::cout << "wrote " << trace.events.size() << " " << kind << " events over "
            << trace.universe << " links (final universe " << trace.final_universe()
            << ") to " << path << '\n';
  return 0;
}

/// Builds the replay sub-instance: a trace targeting fewer links than the
/// instance starts from that prefix (the rest are the growth reservoir of
/// growing traces).
Expected<Instance> replay_base(const Instance& instance, const ChurnTrace& trace) {
  if (trace.universe > instance.size()) {
    return fail("replay: trace universe " + std::to_string(trace.universe) +
                " exceeds the instance (" + std::to_string(instance.size()) + " links)");
  }
  if (trace.universe == instance.size()) return instance;
  const std::span<const Request> all = instance.requests();
  return Instance(
      instance.metric_ptr(),
      std::vector<Request>(all.begin(),
                           all.begin() + static_cast<std::ptrdiff_t>(trace.universe)));
}

/// Writes the recorded phase spans as Chrome trace-event JSON (when
/// --trace-out was given); failures are loud but do not fail the replay.
void write_trace_out(const obs::TraceRecorder* recorder, const std::string& path) {
  if (recorder == nullptr || path.empty()) return;
  if (recorder->write_json(path)) {
    std::cout << "wrote " << recorder->event_count() << " trace events -> " << path
              << '\n';
  } else {
    std::cerr << "error: failed to write trace to " << path << '\n';
  }
}

/// Service-path replay: the sharded typed-API front-end.
int replay_via_service(const Instance& base, const ChurnTrace& trace,
                       const std::string& out_path, std::size_t shards, double rate,
                       const OnlineSchedulerOptions& scheduler_options,
                       obs::TraceRecorder* recorder) {
  const SinrParams params = default_params();
  const auto powers = SqrtPower{}.assign(base, params.alpha);
  SchedulerServiceOptions options;
  options.num_shards = shards;
  options.scheduler = scheduler_options;
  options.trace = recorder;
  SchedulerService service(base, powers, params, Variant::bidirectional, options);
  ServiceReplayOptions replay_options;
  replay_options.arrival_rate = rate;
  const Expected<ServiceReplayResult> replayed =
      replay_trace(service, trace, replay_options);
  if (!replayed) return fail_loudly(replayed.error());
  const ServiceReplayResult& result = replayed.value();
  std::cout << "service replayed " << result.stats.processed << " events ("
            << result.stats.rejected << " rejected) across " << service.num_shards()
            << " shards in " << result.wall_seconds * 1e3
            << " ms: " << result.events_per_sec << " events/sec"
            << (rate > 0.0 ? " (open-loop rate " + std::to_string(rate) + "/s)" : "")
            << '\n'
            << "latency: p50 " << result.stats.latency.p50 * 1e6 << " us, p99 "
            << result.stats.latency.p99 * 1e6 << " us, max "
            << result.stats.latency.max * 1e6 << " us over "
            << result.stats.batches << " batches\n"
            << "shard events:";
  for (std::size_t s = 0; s < result.shard_events.size(); ++s) {
    std::cout << ' ' << result.shard_events[s];
  }
  std::cout << "\nfinal state: " << result.final_active << " active links of "
            << result.final_universe << " in " << result.final_colors
            << " colors (disjoint per-shard planes), "
            << result.stats.scheduler.migrations << " migrations, "
            << result.stats.scheduler.removal_rebuilds << " removal rebuilds\n"
            << "final validation vs direct engine: "
            << (result.validated ? "BIT-IDENTICAL, FEASIBLE" : "FAILED") << '\n'
            << "oracle (single-shard sub-trace replay): "
            << (result.oracle_identical ? "BIT-IDENTICAL" : "MISMATCH") << '\n';
  if (!out_path.empty()) {
    save_schedule(out_path, result.final_schedule);
    std::cout << "wrote final schedule -> " << out_path << '\n';
  }
  return result.validated && result.oracle_identical ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  std::string trace_path;
  std::string out_path;
  std::string trace_out_path;
  GainBackend storage = GainBackend::dense;
  RemovePolicy policy = RemovePolicy::exact;  // the scheduler default
  std::size_t shards = 0;  // 0 = plain single-scheduler replay
  double rate = 0.0;
  OptionParser parser;
  parser.add_trace(trace_path);
  parser.add_string("--out", out_path);
  parser.add_string("--trace-out", trace_out_path);
  parser.add_storage(storage);
  parser.add_remove_policy(policy);
  parser.add_shards(shards);
  parser.add_double("--rate", rate);
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() != 1 || trace_path.empty()) return usage();
  if (rate < 0.0) return fail_loudly("--rate must be non-negative");
  const Expected<Instance> instance = try_load_instance(args[0]);
  if (!instance) return fail_loudly(instance.error());
  const Expected<ChurnTrace> trace = try_load_trace(trace_path);
  if (!trace) return fail_loudly(trace.error());
  const Expected<Instance> base = replay_base(instance.value(), trace.value());
  if (!base) return fail_loudly(base.error());
  const SinrParams params = default_params();

  OnlineSchedulerOptions options;
  options.remove_policy = policy;
  // Growth needs the appendable backend and motion the computed one (the
  // shared dense tables never change); fresh and moved links are
  // powered by the same sqrt rule the replay assigns everywhere else.
  options.storage = storage;
  if (trace.value().has_link_updates()) options.storage = GainBackend::computed;
  if (trace.value().has_fresh_links()) options.storage = GainBackend::appendable;
  if (trace.value().has_fresh_links() || trace.value().has_link_updates()) {
    options.fresh_power = std::make_shared<SqrtPower>();
  }

  // --trace-out: record the replay's phase spans for chrome://tracing.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_out_path.empty()) recorder = std::make_unique<obs::TraceRecorder>();

  if (shards > 0) {
    // The service rejects appendable itself.
    if (options.storage == GainBackend::appendable) options.storage = storage;
    const int rc = replay_via_service(base.value(), trace.value(), out_path, shards,
                                      rate, options, recorder.get());
    write_trace_out(recorder.get(), trace_out_path);
    return rc;
  }

  if (recorder) options.telemetry.trace = &recorder->create_track("events");
  const auto powers = SqrtPower{}.assign(base.value(), params.alpha);
  OnlineScheduler scheduler(base.value(), powers, params, Variant::bidirectional,
                            options);
  const ReplayResult result = replay_trace(scheduler, trace.value());
  write_trace_out(recorder.get(), trace_out_path);
  const OnlineStats& stats = result.stats;
  std::cout << "replayed " << stats.events() << " events (" << stats.arrivals
            << " arrivals incl. " << stats.fresh_links << " fresh links, "
            << stats.departures << " departures, " << stats.link_updates
            << " link updates) in " << result.wall_seconds * 1e3
            << " ms: " << result.events_per_sec << " events/sec (storage "
            << to_string(scheduler.gains().backend()) << ", remove policy " << to_string(policy)
            << ")\n"
            << "final state: " << result.final_active << " active links of "
            << result.final_universe << " in " << result.final_colors << " colors (peak "
            << stats.peak_colors << "), " << stats.migrations << " migrations ("
            << stats.compaction_skips << " compaction skips, "
            << stats.update_migrations << " update migrations), "
            << stats.removal_rebuilds << " removal-triggered rebuilds, worst event "
            << stats.event_latency.max() * 1e3 << " ms\n"
            << "final validation vs direct engine: "
            << (result.validated ? "BIT-IDENTICAL, FEASIBLE" : "FAILED") << '\n';
  if (!out_path.empty()) {
    save_schedule(out_path, result.final_schedule);
    std::cout << "wrote final schedule -> " << out_path << '\n';
  }
  return result.validated ? 0 : 1;
}

void print_admit_result(const std::string& verb, std::size_t link,
                        const AdmitResult& result) {
  if (result.success) {
    std::cout << "ok " << verb << " link=" << link << " shard=" << result.shard;
    if (result.color >= 0) std::cout << " color=" << result.color;
    std::cout << " latency_us=" << result.latency_seconds * 1e6 << '\n';
  } else {
    std::cout << "rejected " << verb << " link=" << link << " shard=" << result.shard
              << ": " << result.error << '\n';
  }
}

int cmd_serve(int argc, char** argv) {
  std::size_t shards = 1;
  GainBackend storage = GainBackend::dense;
  RemovePolicy policy = RemovePolicy::exact;
  OptionParser parser;
  parser.add_shards(shards);
  parser.add_storage(storage);
  parser.add_remove_policy(policy);
  const Expected<std::vector<std::string>> parsed = parser.parse(argc, argv, 2);
  if (!parsed) return fail_loudly(parsed.error());
  const std::vector<std::string>& args = parsed.value();
  if (args.size() != 1) return usage();
  const Expected<Instance> loaded = try_load_instance(args[0]);
  if (!loaded) return fail_loudly(loaded.error());
  const Instance& instance = loaded.value();

  const SinrParams params = default_params();
  const auto powers = SqrtPower{}.assign(instance, params.alpha);
  // The registry outlives the service (declared first), as the service's
  // scrape-time collectors require.
  obs::MetricsRegistry registry;
  SchedulerServiceOptions options;
  options.num_shards = shards;
  options.registry = &registry;
  options.scheduler.remove_policy = policy;
  options.scheduler.storage = storage;
  // A moved link is re-powered by the rule every link started under.
  options.scheduler.fresh_power = std::make_shared<SqrtPower>();
  SchedulerService service(instance, powers, params, Variant::bidirectional, options);

  std::cout << "serving " << instance.size() << " links across "
            << service.num_shards() << " shards (storage " << to_string(storage)
            << ", remove policy " << to_string(policy) << ")\n"
            << "commands: admit <link> | release <link> | update <link> <u> <v> | "
               "stats | metrics | prometheus | drain | quit\n";
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string verb;
    if (!(words >> verb) || verb.empty() || verb.front() == '#') continue;
    std::vector<std::string> args;
    for (std::string word; words >> word;) args.push_back(word);
    // Every verb takes a fixed argument count; a trailing word is a typo
    // the caller must hear about, never something to drop silently.
    const auto extra = [&](std::size_t expected) {
      if (args.size() <= expected) return false;
      std::cout << "rejected " << verb << ": unexpected argument '" << args[expected]
                << "'\n";
      return true;
    };
    if (verb == "quit" || verb == "exit") {
      if (extra(0)) continue;
      break;
    }
    if (verb == "drain") {
      if (extra(0)) continue;
      service.drain();
      std::cout << "ok drained\n";
      continue;
    }
    if (verb == "stats" || verb == "metrics") {
      if (extra(0)) continue;
      // Both verbs emit the identical one-line telemetry snapshot, so
      // scripts can consume either.
      service.drain();
      std::cout << registry.scrape().to_json().dump(0) << '\n';
      continue;
    }
    if (verb == "prometheus") {
      if (extra(0)) continue;
      service.drain();
      std::cout << registry.scrape().to_prometheus();
      continue;
    }
    if (verb != "admit" && verb != "release" && verb != "update") {
      std::cout << "rejected: unknown command '" << verb << "'\n";
      continue;
    }
    std::size_t link = 0;
    if (args.empty() || !parse_size_arg(args[0], link)) {
      std::cout << "rejected " << verb << ": needs a link index\n";
      continue;
    }
    if (verb == "admit") {
      if (extra(1)) continue;
      print_admit_result(verb, link, service.admit(AdmitRequest{link}));
    } else if (verb == "release") {
      if (extra(1)) continue;
      print_admit_result(verb, link, service.release(ReleaseRequest{link}));
    } else {
      std::size_t u = 0, v = 0;
      if (args.size() < 3 || !parse_size_arg(args[1], u) || !parse_size_arg(args[2], v)) {
        std::cout << "rejected update: needs <link> <u> <v>\n";
        continue;
      }
      if (extra(3)) continue;
      print_admit_result(verb, link, service.update(UpdateRequest{link, Request{u, v}}));
    }
  }
  service.drain();
  double worst_margin = 0.0;
  const bool valid = service.validate_against_direct(&worst_margin);
  const ServiceStats stats = service.stats();
  std::cout << "final: processed=" << stats.processed << " rejected=" << stats.rejected
            << " active=" << service.active_count() << " colors=" << service.num_colors()
            << " validated=" << (valid ? "yes" : "NO") << " worst_margin=" << worst_margin
            << '\n';
  return valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "check") return cmd_check(argc, argv);
    if (command == "gen-trace") return cmd_gen_trace(argc, argv);
    if (command == "replay") return cmd_replay(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
