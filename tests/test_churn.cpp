// Churn-trace suite: generator determinism (same seed, same stream — on any
// thread count), stream validation, the JSON round trip, and the minimal
// JSON parser feeding it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/instance.h"
#include "gen/churn.h"
#include "gen/generators.h"
#include "metric/metric_space.h"
#include "util/error.h"
#include "util/json_reader.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace oisched {
namespace {

ChurnTrace make_trace(const std::string& kind, std::size_t universe, std::uint64_t seed) {
  Rng rng(seed);
  return make_churn_trace(kind, universe, /*target_events=*/400, rng);
}

const std::vector<std::string>& trace_kinds() {
  static const std::vector<std::string> kinds = {"poisson", "flash", "adversarial",
                                                 "hotspot"};
  return kinds;
}

/// A pool of fresh links for growing traces (endpoint validity is the
/// scheduler's concern, not the trace's).
std::vector<Request> fresh_pool(std::size_t count) {
  std::vector<Request> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(Request{2 * i, 2 * i + 1});
  }
  return pool;
}

ChurnTrace make_growing_trace(std::size_t universe, std::size_t fresh,
                              std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Request> pool = fresh_pool(fresh);
  return make_churn_trace("growing", universe, /*target_events=*/400, rng, pool);
}

const std::vector<std::string>& mobility_kinds() {
  static const std::vector<std::string> kinds = {"waypoint", "commuter", "flashmob"};
  return kinds;
}

/// A small geometric workload for the mobility generators, which need the
/// metric and the initial requests.
const Instance& mobility_instance() {
  static const Instance instance = [] {
    Rng rng(7);
    return random_square(20, {}, rng);
  }();
  return instance;
}

ChurnTrace make_mobility_trace(const std::string& kind, std::uint64_t seed,
                               std::size_t target_events = 300) {
  const Instance& instance = mobility_instance();
  Rng rng(seed);
  return make_churn_trace(kind, instance.size(), target_events, rng, {},
                          &instance.metric(), instance.requests());
}

TEST(ChurnTrace, GeneratedStreamsValidate) {
  for (const std::string& kind : trace_kinds()) {
    const ChurnTrace trace = make_trace(kind, 48, 7);
    EXPECT_NO_THROW(trace.validate()) << kind;
    EXPECT_GT(trace.events.size(), 0u) << kind;
    EXPECT_LE(trace.peak_active(), trace.universe) << kind;
    // Arrivals can only outnumber departures by the links still active.
    std::size_t arrivals = 0;
    std::size_t departures = 0;
    for (const ChurnEvent& event : trace.events) {
      (event.kind == ChurnEvent::Kind::arrival ? arrivals : departures) += 1;
    }
    EXPECT_EQ(arrivals - departures, trace.final_active().size()) << kind;
  }
}

TEST(ChurnTrace, SameSeedSameStream) {
  for (const std::string& kind : trace_kinds()) {
    const ChurnTrace a = make_trace(kind, 32, 99);
    const ChurnTrace b = make_trace(kind, 32, 99);
    EXPECT_EQ(a, b) << kind;
    const ChurnTrace c = make_trace(kind, 32, 100);
    EXPECT_NE(a, c) << kind;  // and the seed actually matters
  }
}

TEST(ChurnTrace, StreamIndependentOfThreadCount) {
  // The generators draw only from their explicit Rng, so producing the
  // trace inside worker pools of different sizes changes nothing.
  for (const std::string& kind : trace_kinds()) {
    const ChurnTrace reference = make_trace(kind, 40, 1234);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      std::vector<ChurnTrace> produced(threads);
      parallel_for(threads, threads,
                   [&](std::size_t i) { produced[i] = make_trace(kind, 40, 1234); });
      for (const ChurnTrace& trace : produced) {
        EXPECT_EQ(trace, reference) << kind << " on " << threads << " threads";
      }
    }
  }
}

TEST(ChurnTrace, ValidateRejectsMalformedStreams) {
  ChurnTrace trace;
  trace.universe = 4;
  trace.events = {{ChurnEvent::Kind::arrival, 9, 0.0}};
  EXPECT_THROW(trace.validate(), PreconditionError);  // link out of universe

  trace.events = {{ChurnEvent::Kind::arrival, 1, 0.0},
                  {ChurnEvent::Kind::arrival, 1, 1.0}};
  EXPECT_THROW(trace.validate(), PreconditionError);  // double arrival

  trace.events = {{ChurnEvent::Kind::departure, 1, 0.0}};
  EXPECT_THROW(trace.validate(), PreconditionError);  // departure while inactive

  trace.events = {{ChurnEvent::Kind::arrival, 1, 2.0},
                  {ChurnEvent::Kind::departure, 1, 1.0}};
  EXPECT_THROW(trace.validate(), PreconditionError);  // time runs backwards
}

TEST(ChurnTrace, MobilityStreamsValidateAndMove) {
  const Instance& instance = mobility_instance();
  for (const std::string& kind : mobility_kinds()) {
    const ChurnTrace trace = make_mobility_trace(kind, 5);
    EXPECT_NO_THROW(trace.validate()) << kind;
    EXPECT_TRUE(trace.has_link_updates()) << kind;
    EXPECT_FALSE(trace.has_fresh_links()) << kind;
    EXPECT_EQ(trace.final_universe(), instance.size()) << kind;
    for (const ChurnEvent& event : trace.events) {
      if (event.kind != ChurnEvent::Kind::link_update) continue;
      // Moved endpoints stay inside the metric, at distinct positions —
      // the invariant every gain table build requires.
      EXPECT_LT(event.request.u, instance.metric().size()) << kind;
      EXPECT_LT(event.request.v, instance.metric().size()) << kind;
      EXPECT_GT(instance.metric().distance(event.request.u, event.request.v), 0.0)
          << kind;
    }
  }
}

TEST(ChurnTrace, MobilityDeterministicAcrossSeedsAndThreadCounts) {
  for (const std::string& kind : mobility_kinds()) {
    const ChurnTrace reference = make_mobility_trace(kind, 1234);
    EXPECT_EQ(reference, make_mobility_trace(kind, 1234)) << kind;
    EXPECT_NE(reference, make_mobility_trace(kind, 1235)) << kind;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      std::vector<ChurnTrace> produced(threads);
      parallel_for(threads, threads,
                   [&](std::size_t i) { produced[i] = make_mobility_trace(kind, 1234); });
      for (const ChurnTrace& trace : produced) {
        EXPECT_EQ(trace, reference) << kind << " on " << threads << " threads";
      }
    }
  }
}

TEST(ChurnTrace, MobilityRequiresTheGeometry) {
  Rng rng(1);
  // No metric / no initial requests: the registry must refuse rather than
  // generate a motionless trace.
  EXPECT_THROW((void)make_churn_trace("waypoint", 8, 100, rng), PreconditionError);
  const Instance& instance = mobility_instance();
  EXPECT_THROW((void)make_churn_trace("commuter", instance.size() + 1, 100, rng, {},
                                      &instance.metric(), instance.requests()),
               PreconditionError);  // universe/requests mismatch
}

TEST(ChurnTrace, ValidateRejectsUpdatesOfInactiveLinks) {
  ChurnTrace trace;
  trace.universe = 4;
  // A link that never arrived has no gain row to refresh.
  trace.events = {{ChurnEvent::Kind::link_update, 1, 0.0, Request{0, 1}}};
  EXPECT_THROW(trace.validate(), PreconditionError);
  // Nor does one that already departed.
  trace.events = {{ChurnEvent::Kind::arrival, 1, 0.0},
                  {ChurnEvent::Kind::departure, 1, 1.0},
                  {ChurnEvent::Kind::link_update, 1, 2.0, Request{0, 1}}};
  EXPECT_THROW(trace.validate(), PreconditionError);
  // Out-of-universe targets stay rejected too.
  trace.events = {{ChurnEvent::Kind::link_update, 9, 0.0, Request{0, 1}}};
  EXPECT_THROW(trace.validate(), PreconditionError);
  // An update of a live link is fine, keeps it active, and does not count
  // as an extra arrival.
  trace.events = {{ChurnEvent::Kind::arrival, 1, 0.0},
                  {ChurnEvent::Kind::link_update, 1, 1.0, Request{0, 1}},
                  {ChurnEvent::Kind::link_update, 1, 2.0, Request{2, 3}},
                  {ChurnEvent::Kind::departure, 1, 3.0}};
  EXPECT_NO_THROW(trace.validate());
  EXPECT_EQ(trace.peak_active(), 1u);
  EXPECT_TRUE(trace.final_active().empty());
}

TEST(ChurnTrace, HotspotStaysInsideItsWindow) {
  HotspotChurnOptions options;
  options.window = 8;
  Rng rng(3);
  const ChurnTrace trace = hotspot_trace(1024, options, rng);
  EXPECT_NO_THROW(trace.validate());
  EXPECT_EQ(trace.universe, 1024u);
  EXPECT_GT(trace.events.size(), 0u);
  for (const ChurnEvent& event : trace.events) {
    EXPECT_LT(event.link, options.window);
  }
  EXPECT_LE(trace.peak_active(), options.window);
}

TEST(ChurnTrace, GrowingTraceExtendsTheUniverse) {
  const ChurnTrace trace = make_growing_trace(16, 6, 42);
  EXPECT_NO_THROW(trace.validate());
  EXPECT_TRUE(trace.has_fresh_links());
  EXPECT_EQ(trace.universe, 16u);
  EXPECT_EQ(trace.final_universe(), 22u);  // every fresh link gets introduced
  // Fresh links take consecutive indices, carry their requests, and may
  // churn afterwards like any other link.
  std::size_t next_fresh = 16;
  for (const ChurnEvent& event : trace.events) {
    if (event.kind == ChurnEvent::Kind::link_arrival) {
      EXPECT_EQ(event.link, next_fresh);
      EXPECT_EQ(event.request, (Request{2 * (next_fresh - 16), 2 * (next_fresh - 16) + 1}));
      ++next_fresh;
    }
  }
  EXPECT_EQ(next_fresh, 22u);
  // Determinism in the seed, like every other generator.
  EXPECT_EQ(trace, make_growing_trace(16, 6, 42));
  EXPECT_NE(trace, make_growing_trace(16, 6, 43));
}

TEST(ChurnTrace, GrowingRejectsABudgetSmallerThanThePool) {
  // Silent truncation of the growth would break the "every fresh link is
  // introduced" contract, so an undersized budget is an error.
  Rng rng(1);
  const std::vector<Request> pool = fresh_pool(8);
  GrowingChurnOptions options;
  options.max_events = 8;  // == pool size: cannot introduce all of them
  EXPECT_THROW((void)growing_trace(4, pool, options, rng), PreconditionError);
  options.max_events = 9;
  const ChurnTrace trace = growing_trace(4, pool, options, rng);
  EXPECT_EQ(trace.final_universe(), 12u);  // ...while a bare majority fits
}

TEST(ChurnTrace, ValidateRejectsBadFreshLinks) {
  ChurnTrace trace;
  trace.universe = 4;
  // A fresh link must take the NEXT universe index (4, not 6).
  trace.events = {{ChurnEvent::Kind::link_arrival, 6, 0.0, Request{0, 1}}};
  EXPECT_THROW(trace.validate(), PreconditionError);
  trace.events = {{ChurnEvent::Kind::link_arrival, 4, 0.0, Request{0, 1}},
                  {ChurnEvent::Kind::arrival, 4, 1.0}};
  EXPECT_THROW(trace.validate(), PreconditionError);  // fresh links arrive active
  trace.events = {{ChurnEvent::Kind::link_arrival, 4, 0.0, Request{0, 1}},
                  {ChurnEvent::Kind::departure, 4, 1.0},
                  {ChurnEvent::Kind::arrival, 4, 2.0}};
  EXPECT_NO_THROW(trace.validate());  // ...and then churn like any link
}

TEST(ChurnTrace, JsonRoundTripIsExact) {
  for (const std::string& kind : trace_kinds()) {
    const ChurnTrace trace = make_trace(kind, 24, 5);
    const std::string text = trace_to_json(trace).dump();
    const ChurnTrace parsed = trace_from_json(parse_json(text));
    // Bitwise equality: doubles serialize via shortest-round-trip to_chars.
    EXPECT_EQ(parsed, trace) << kind;
  }
}

TEST(ChurnTrace, GrowingJsonRoundTripKeepsFreshLinks) {
  const ChurnTrace trace = make_growing_trace(12, 5, 9);
  const std::string text = trace_to_json(trace).dump();
  EXPECT_NE(text.find("\"schema\": \"oisched-trace/3\""), std::string::npos);
  EXPECT_NE(text.find("link_arrival"), std::string::npos);
  const ChurnTrace parsed = trace_from_json(parse_json(text));
  EXPECT_EQ(parsed, trace);
  EXPECT_EQ(parsed.final_universe(), trace.final_universe());
}

TEST(ChurnTrace, MobilityJsonRoundTripIsExact) {
  for (const std::string& kind : mobility_kinds()) {
    const ChurnTrace trace = make_mobility_trace(kind, 21, 120);
    const std::string text = trace_to_json(trace).dump();
    EXPECT_NE(text.find("\"schema\": \"oisched-trace/3\""), std::string::npos) << kind;
    EXPECT_NE(text.find("link_update"), std::string::npos) << kind;
    const ChurnTrace parsed = trace_from_json(parse_json(text));
    EXPECT_EQ(parsed, trace) << kind;  // bitwise, incl. every update's endpoints
  }
}

TEST(ChurnTrace, ReadsLegacySchemaOne) {
  // Old "/1" documents (fixed universe) stay readable...
  const ChurnTrace parsed = trace_from_json(parse_json(
      R"({"schema": "oisched-trace/1", "universe": 2,
          "events": [{"t": 0, "kind": "arrival", "link": 1},
                     {"t": 1, "kind": "departure", "link": 1}]})"));
  EXPECT_EQ(parsed.universe, 2u);
  EXPECT_EQ(parsed.events.size(), 2u);
  EXPECT_FALSE(parsed.has_fresh_links());
  // ...but universe growth is a "/2" feature.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/1", "universe": 2,
                       "events": [{"t": 0, "kind": "link_arrival", "link": 2,
                                   "u": 0, "v": 1}]})")),
               PreconditionError);
}

TEST(ChurnTrace, ReadsLegacySchemaTwoButGatesUpdates) {
  // Old "/2" documents (churn + growth) stay readable...
  const ChurnTrace parsed = trace_from_json(parse_json(
      R"({"schema": "oisched-trace/2", "universe": 2,
          "events": [{"t": 0, "kind": "arrival", "link": 0},
                     {"t": 1, "kind": "link_arrival", "link": 2, "u": 4, "v": 5}]})"));
  EXPECT_EQ(parsed.final_universe(), 3u);
  EXPECT_FALSE(parsed.has_link_updates());
  // ...but endpoint motion is a "/3" feature.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/2", "universe": 2,
                       "events": [{"t": 0, "kind": "arrival", "link": 0},
                                  {"t": 1, "kind": "link_update", "link": 0,
                                   "u": 2, "v": 3}]})")),
               PreconditionError);
}

TEST(ChurnTrace, FromJsonRejectsMalformedUpdateRecords) {
  // Missing endpoints on an update record.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/3", "universe": 2,
                       "events": [{"t": 0, "kind": "arrival", "link": 0},
                                  {"t": 1, "kind": "link_update", "link": 0}]})")),
               PreconditionError);
  // Negative endpoints.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/3", "universe": 2,
                       "events": [{"t": 0, "kind": "arrival", "link": 0},
                                  {"t": 1, "kind": "link_update", "link": 0,
                                   "u": -1, "v": 1}]})")),
               PreconditionError);
  // Structurally fine but an invalid stream: update of a departed link.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/3", "universe": 2,
                       "events": [{"t": 0, "kind": "arrival", "link": 0},
                                  {"t": 1, "kind": "departure", "link": 0},
                                  {"t": 2, "kind": "link_update", "link": 0,
                                   "u": 0, "v": 1}]})")),
               PreconditionError);
  // The well-formed counterpart parses.
  const ChurnTrace ok = trace_from_json(parse_json(
      R"({"schema": "oisched-trace/3", "universe": 2,
          "events": [{"t": 0, "kind": "arrival", "link": 0},
                     {"t": 1, "kind": "link_update", "link": 0, "u": 2, "v": 3}]})"));
  EXPECT_TRUE(ok.has_link_updates());
  EXPECT_EQ(ok.events[1].request, (Request{2, 3}));
}

TEST(ChurnTrace, FileRoundTrip) {
  const ChurnTrace trace = make_trace("poisson", 16, 11);
  const std::string path = ::testing::TempDir() + "oisched_trace_roundtrip.json";
  save_trace(path, trace);
  const ChurnTrace loaded = load_trace(path);
  EXPECT_EQ(loaded, trace);
  std::remove(path.c_str());
}

TEST(ChurnTrace, LoaderSurvivesByteMutations) {
  // A seeded mutation fuzz of the strict loader: every mutant of a valid
  // trace document (bit flips, deletions, insertions, duplicated spans and
  // truncations, one to three per mutant) must either come back as a
  // structured error or parse as a trace whose stream validates. Under the
  // sanitizer builds this also gates crashes and leaks on malformed input.
  // The mutants are parsed in memory; the first one also takes the file
  // path, which must give the same answer.
  Rng seed_rng(5);
  const ChurnTrace growing =
      make_churn_trace("growing", 12, /*target_events=*/60, seed_rng, fresh_pool(6));
  const ChurnTrace moving = make_mobility_trace("waypoint", /*seed=*/9, 60);
  const std::string seeds[] = {trace_to_json(growing).dump(), trace_to_json(moving).dump()};
  const std::string path = ::testing::TempDir() + "oisched_trace_mutant.json";
  const std::string alphabet = "0123456789-+.eE,:{}[]\" tfnulrsakidv";
  Rng rng(20261019);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int mutant = 0; mutant < 2000; ++mutant) {
    std::string bytes = seeds[mutant % 2];
    const int edits = 1 + static_cast<int>(rng.uniform_index(3));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t at = rng.uniform_index(bytes.size());
      const std::size_t span = 1 + rng.uniform_index(16);
      switch (rng.uniform_index(5)) {
        case 0:  // flip one bit
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_index(8)));
          break;
        case 1:  // delete a short run
          bytes.erase(at, span);
          break;
        case 2: {  // insert a JSON-ish byte, or any byte
          char byte = static_cast<char>(rng.uniform_index(256));
          if (rng.bernoulli(0.75)) byte = alphabet[rng.uniform_index(alphabet.size())];
          bytes.insert(at, 1, byte);
          break;
        }
        case 3: {  // duplicate a span somewhere else
          const std::string copy = bytes.substr(at, span);
          bytes.insert(rng.uniform_index(bytes.size() + 1), copy);
          break;
        }
        default:  // truncate
          bytes.resize(at);
          break;
      }
    }
    const Expected<ChurnTrace> result = try_parse_trace(bytes);
    if (mutant == 0) {
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
      }
      const Expected<ChurnTrace> from_file = try_load_trace(path);
      ASSERT_EQ(from_file.ok(), result.ok());
      if (result.ok()) {
        EXPECT_EQ(from_file.value(), result.value());
      } else {
        EXPECT_EQ(from_file.error(), result.error());
      }
    }
    if (!result.ok()) {
      EXPECT_FALSE(result.error().empty());
      ++rejected;
      continue;
    }
    ++loaded;
    EXPECT_NO_THROW(result.value().validate()) << "mutant " << mutant << ": " << bytes;
  }
  std::remove(path.c_str());
  // A missing file is a structured error too.
  const Expected<ChurnTrace> missing = try_load_trace(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("cannot open"), std::string::npos);
  // Both outcomes occur: the mutations neither all break the document nor
  // all miss it.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ChurnTrace, ValidationMemoryFollowsTheEventsNotTheClaimedUniverse) {
  // A document may name any universe; checking its stream must not
  // allocate per claimed link (2^40 here), or one edited digit in a trace
  // file exhausts memory before the loader can answer.
  const ChurnTrace trace = trace_from_json(parse_json(
      R"({"schema": "oisched-trace/3", "universe": 1099511627776,
          "events": [{"t": 0, "kind": "arrival", "link": 1099511627775},
                     {"t": 1, "kind": "link_arrival", "link": 1099511627776,
                      "u": 0, "v": 1},
                     {"t": 2, "kind": "departure", "link": 1099511627775}]})"));
  EXPECT_EQ(trace.universe, std::size_t{1} << 40);
  EXPECT_EQ(trace.final_universe(), (std::size_t{1} << 40) + 1);
}

TEST(ChurnTrace, FromJsonRejectsBadDocuments) {
  EXPECT_THROW(trace_from_json(parse_json(R"({"schema": "other/1"})")),
               PreconditionError);
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/1", "universe": 2,
                       "events": [{"t": 0, "kind": "warp", "link": 0}]})")),
               PreconditionError);
  // Structurally fine but an invalid stream: departure of an inactive link.
  EXPECT_THROW(trace_from_json(parse_json(
                   R"({"schema": "oisched-trace/1", "universe": 2,
                       "events": [{"t": 0, "kind": "departure", "link": 0}]})")),
               PreconditionError);
}

TEST(JsonReader, ParsesScalarsArraysObjects) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("-42").as_int(), -42);
  EXPECT_EQ(parse_json("0.5").as_double(), 0.5);
  EXPECT_EQ(parse_json("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse_json(R"("hi")").as_string(), "hi");

  const JsonValue doc = parse_json(R"({"a": [1, 2.5, "x"], "b": {"c": false}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").item(0).as_int(), 1);
  EXPECT_EQ(doc.at("a").item(1).as_double(), 2.5);
  EXPECT_EQ(doc.at("a").item(2).as_string(), "x");
  EXPECT_EQ(doc.at("b").at("c").as_bool(), false);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");  // e-acute
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // surrogate pair for U+1F600
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("{"), JsonParseError);
  EXPECT_THROW(parse_json("[1,]"), JsonParseError);
  EXPECT_THROW(parse_json("01"), JsonParseError);
  EXPECT_THROW(parse_json("nul"), JsonParseError);
  EXPECT_THROW(parse_json("1 2"), JsonParseError);           // trailing garbage
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), JsonParseError);  // dup key
  EXPECT_THROW(parse_json(R"("\ud83d")"), JsonParseError);   // lone surrogate
  EXPECT_THROW(parse_json(R"("\q")"), JsonParseError);       // bad escape
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonValue doc = JsonValue::object();
  doc["name"] = "trace";
  doc["count"] = 3;
  doc["rate"] = 0.1 + 0.2;  // a value with no short decimal form
  JsonValue list = JsonValue::array();
  list.push_back(JsonValue(true));
  list.push_back(JsonValue());
  doc["list"] = std::move(list);
  for (const int indent : {0, 2}) {
    const JsonValue parsed = parse_json(doc.dump(indent));
    EXPECT_EQ(parsed.at("name").as_string(), "trace");
    EXPECT_EQ(parsed.at("count").as_int(), 3);
    EXPECT_EQ(parsed.at("rate").as_double(), 0.1 + 0.2);  // bitwise
    EXPECT_EQ(parsed.at("list").item(0).as_bool(), true);
    EXPECT_TRUE(parsed.at("list").item(1).is_null());
  }
}

}  // namespace
}  // namespace oisched
