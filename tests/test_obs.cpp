// The telemetry layer: bucket-boundary exactness of the log-scale
// histogram layout, merge associativity/determinism across shard orders,
// the quantile error bound against a sorted-vector oracle on fuzzed
// samples, registry collector semantics, both expositions, and the
// Chrome trace-event recorder.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stats.h"

namespace oisched::obs {
namespace {

// --- HistogramLayout ------------------------------------------------------

TEST(HistogramLayout, BucketBoundariesAreExact) {
  const auto edges = HistogramLayout::boundaries();
  ASSERT_EQ(edges.size(), HistogramLayout::kLogBuckets + 1);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    EXPECT_LT(edges[i], edges[i + 1]);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    // A value exactly on an edge opens that edge's bucket — placement is
    // a table lookup, immune to exp/log rounding.
    const std::size_t bucket = HistogramLayout::bucket_of(edges[i]);
    EXPECT_EQ(bucket, i + 1);
    EXPECT_EQ(HistogramLayout::lower(bucket), edges[i]);
    // The largest representable value below the edge stays in the bucket
    // the edge closes.
    const double below = std::nextafter(edges[i], 0.0);
    EXPECT_EQ(HistogramLayout::bucket_of(below), i);
  }
}

TEST(HistogramLayout, UnderflowOverflowAndNonFinite) {
  EXPECT_EQ(HistogramLayout::bucket_of(0.0), 0u);
  EXPECT_EQ(HistogramLayout::bucket_of(1e-12), 0u);
  EXPECT_EQ(HistogramLayout::bucket_of(-1.0), 0u);
  EXPECT_EQ(HistogramLayout::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(HistogramLayout::bucket_of(1e30), HistogramLayout::kBuckets - 1);
  EXPECT_EQ(HistogramLayout::bucket_of(std::numeric_limits<double>::infinity()),
            HistogramLayout::kBuckets - 1);
  EXPECT_EQ(HistogramLayout::lower(0), 0.0);
  EXPECT_TRUE(std::isinf(HistogramLayout::upper(HistogramLayout::kBuckets - 1)));
}

/// The reference bucket_of: a binary search over the edges, with NaN and
/// negatives pinned to underflow.
std::size_t searched_bucket(double value) {
  if (!(value >= 0.0)) return 0;
  const auto edges = HistogramLayout::boundaries();
  return static_cast<std::size_t>(std::upper_bound(edges.begin(), edges.end(), value) -
                                  edges.begin());
}

TEST(HistogramLayout, ConstantTimeLookupMatchesBinarySearch) {
  const auto edges = HistogramLayout::boundaries();
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                -1.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double edge : edges) {
    values.push_back(edge);
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(std::nextafter(edge, std::numeric_limits<double>::infinity()));
  }
  for (const double value : values) {
    EXPECT_EQ(HistogramLayout::bucket_of(value), searched_bucket(value)) << value;
  }
  // A million values log-uniform over 1e-12 .. 1e4 s, past both ends of
  // the layout.
  Rng rng(20261019);
  for (int i = 0; i < 1000000; ++i) {
    const double value = std::pow(10.0, rng.uniform(-12.0, 4.0));
    ASSERT_EQ(HistogramLayout::bucket_of(value), searched_bucket(value)) << value;
  }
}

TEST(HistogramLayout, RepresentativeLiesInsideItsBucket) {
  for (std::size_t b = 1; b <= HistogramLayout::kLogBuckets; ++b) {
    const double lower = HistogramLayout::lower(b);
    const double upper = HistogramLayout::upper(b);
    const double rep = HistogramLayout::representative(b);
    EXPECT_GT(rep, lower);
    EXPECT_LT(rep, upper);
  }
}

// --- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogram, TracksExactCountSumAndExtremes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.observe(3e-6);
  h.observe(1e-6);
  h.observe(2e-6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6e-6);
  EXPECT_DOUBLE_EQ(h.mean(), 2e-6);
  EXPECT_EQ(h.min(), 1e-6);  // extremes are exact, not bucketed
  EXPECT_EQ(h.max(), 3e-6);
}

/// Fuzzed log-uniform sample inside the layout's finite range.
std::vector<double> fuzz_samples(std::size_t n, Rng& rng) {
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // exp-of-uniform spans ~1e-8 .. ~1e2 seconds, log-uniformly.
    samples.push_back(std::exp(rng.uniform(std::log(1e-8), std::log(1e2))));
  }
  return samples;
}

TEST(LatencyHistogram, MergeIsAssociativeAndOrderIndependent) {
  Rng rng(41);
  const std::vector<double> a_samples = fuzz_samples(257, rng);
  const std::vector<double> b_samples = fuzz_samples(511, rng);
  const std::vector<double> c_samples = fuzz_samples(127, rng);
  LatencyHistogram a, b, c;
  for (const double v : a_samples) a.observe(v);
  for (const double v : b_samples) b.observe(v);
  for (const double v : c_samples) c.observe(v);

  LatencyHistogram ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc_a = b;  // (b + c) + a
  bc_a.merge(c);
  bc_a.merge(a);
  LatencyHistogram ca_b = c;  // (c + a) + b
  ca_b.merge(a);
  ca_b.merge(b);

  // Bucket counts, count, extremes and every quantile are bit-identical
  // whatever the merge order — the determinism the identity gates need.
  for (const LatencyHistogram* other : {&bc_a, &ca_b}) {
    EXPECT_EQ(ab_c.count(), other->count());
    EXPECT_EQ(ab_c.min(), other->min());
    EXPECT_EQ(ab_c.max(), other->max());
    ASSERT_TRUE(std::equal(ab_c.buckets().begin(), ab_c.buckets().end(),
                           other->buckets().begin()));
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(ab_c.quantile(q), other->quantile(q)) << "q=" << q;
    }
    // The sum is a float accumulation, so order independence holds only
    // up to rounding.
    EXPECT_NEAR(ab_c.sum(), other->sum(), 1e-9 * std::abs(ab_c.sum()));
  }
}

TEST(LatencyHistogram, QuantileWithinBoundOfSortedOracle) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Rng rng(seed);
    std::vector<double> samples = fuzz_samples(2000, rng);
    LatencyHistogram h;
    for (const double v : samples) h.observe(v);
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // The same nearest-rank definition quantile() bucketizes.
      const std::size_t rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(samples.size()))));
      const double oracle = samples[rank - 1];
      const double estimate = h.quantile(q);
      EXPECT_LE(std::abs(estimate - oracle) / oracle,
                LatencyHistogram::kQuantileRelativeError)
          << "seed=" << seed << " q=" << q;
    }
  }
}

TEST(LatencyHistogram, SummarizeMatchesHistogramQuantiles) {
  Rng rng(99);
  LatencyHistogram h;
  for (const double v : fuzz_samples(500, rng)) h.observe(v);
  const Summary summary = summarize(h);
  EXPECT_EQ(summary.count, 500u);
  EXPECT_EQ(summary.p50, h.quantile(0.5));
  EXPECT_EQ(summary.p99, h.quantile(0.99));
  EXPECT_EQ(summary.p999, h.quantile(0.999));
  EXPECT_EQ(summary.min, h.min());
  EXPECT_EQ(summary.max, h.max());
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CollectorsFillTheirIdsAndAdd) {
  MetricsRegistry registry;
  const MetricId hits = registry.counter("hits_total", "Hits");
  const MetricId level = registry.gauge("level", "Level");
  const MetricId depth = registry.gauge("depth", "Filled by both collectors");
  const MetricId lat = registry.histogram("lat_seconds", "Latency");
  LatencyHistogram fast;
  fast.observe(1e-6);
  LatencyHistogram slow;
  slow.observe(4e-3);
  std::uint64_t stored_hits = 3;  // the store the first collector reads
  registry.add_collector([&](MetricsSnapshot& snapshot) {
    snapshot.add_counter(hits, stored_hits);
    snapshot.add_gauge(level, 2.5);
    snapshot.add_gauge(depth, 3.0);
    snapshot.merge_histogram(lat, fast);
  });
  registry.add_collector([&](MetricsSnapshot& snapshot) {
    snapshot.add_counter(hits, 4);
    snapshot.add_gauge(depth, 4.0);  // gauges sum across collectors
    snapshot.merge_histogram(lat, slow);
    snapshot.add_counter(level, 9);  // wrong kind: ignored
    snapshot.add_gauge(99, 1.0);     // unknown id: ignored
  });

  const MetricsSnapshot snapshot = registry.scrape();
  EXPECT_EQ(registry.metric_count(), 4u);
  EXPECT_EQ(snapshot.counter_total("hits_total"), 7u);
  ASSERT_NE(snapshot.find("level"), nullptr);
  EXPECT_EQ(snapshot.find("level")->gauge, 2.5);
  EXPECT_EQ(snapshot.find("level")->counter, 0u);
  ASSERT_NE(snapshot.find("depth"), nullptr);
  EXPECT_EQ(snapshot.find("depth")->gauge, 7.0);
  const LatencyHistogram merged = snapshot.histogram_total("lat_seconds");
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.min(), 1e-6);
  EXPECT_EQ(merged.max(), 4e-3);

  // Every scrape starts from zero and reads the store afresh: values are
  // views, never accumulated across scrapes.
  stored_hits = 10;
  EXPECT_EQ(registry.scrape().counter_total("hits_total"), 14u);
  EXPECT_EQ(registry.scrape().histogram_total("lat_seconds").count(), 2u);
}

TEST(MetricsRegistry, LabeledSeriesStayDistinctAndTotalsAggregate) {
  MetricsRegistry registry;
  const MetricId a = registry.counter("req_total", "Requests", "shard=\"0\"");
  const MetricId b = registry.counter("req_total", "Requests", "shard=\"1\"");
  registry.add_collector([=](MetricsSnapshot& snapshot) {
    snapshot.add_counter(a, 2);
    snapshot.add_counter(b, 5);
  });
  const MetricsSnapshot snapshot = registry.scrape();
  ASSERT_NE(snapshot.find("req_total", "shard=\"0\""), nullptr);
  EXPECT_EQ(snapshot.find("req_total", "shard=\"0\"")->counter, 2u);
  EXPECT_EQ(snapshot.find("req_total", "shard=\"1\"")->counter, 5u);
  EXPECT_EQ(snapshot.counter_total("req_total"), 7u);
}

TEST(MetricsSnapshot, ExpositionsAreWellFormed) {
  MetricsRegistry registry;
  const MetricId hits = registry.counter("hits_total", "Hits");
  const MetricId lat = registry.histogram("lat_seconds", "Latency");
  LatencyHistogram observed;
  observed.observe(1e-6);
  observed.observe(2e-6);
  observed.observe(1e9);  // overflow bucket folds into +Inf
  registry.add_collector([&](MetricsSnapshot& snapshot) {
    snapshot.add_counter(hits, 9);
    snapshot.merge_histogram(lat, observed);
  });
  const MetricsSnapshot snapshot = registry.scrape();

  const std::string json = snapshot.to_json().dump(0);
  EXPECT_NE(json.find("\"schema\":\"oisched-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"hits_total\":9"), std::string::npos);
  EXPECT_NE(json.find("\"lat_seconds\""), std::string::npos);

  const std::string prom = snapshot.to_prometheus();
  EXPECT_NE(prom.find("# TYPE hits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("hits_total 9"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lat_seconds histogram"), std::string::npos);
  // Cumulative buckets end at +Inf == _count, and the overflow sample is
  // inside it.
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_count 3"), std::string::npos);
}

// --- Tracing --------------------------------------------------------------

TEST(TraceRecorder, EmitsChromeTraceJsonWithNamedTracks) {
  TraceRecorder recorder;
  TraceTrack& shard0 = recorder.create_track("shard0");
  TraceTrack& shard1 = recorder.create_track("shard1");
  {
    TraceSpan span(&shard0, "feasibility_scan");
  }
  {
    OISCHED_TRACE_SPAN(&shard1, "compaction");
  }
  {
    OISCHED_TRACE_SPAN(static_cast<TraceTrack*>(nullptr), "never_recorded");
  }
  const Stopwatch::TimePoint now = Stopwatch::now();
  shard0.record("queue_wait", now, now);
  EXPECT_EQ(recorder.event_count(), 3u);

  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"shard0\""), std::string::npos);
  EXPECT_NE(json.find("\"shard1\""), std::string::npos);
  EXPECT_NE(json.find("\"feasibility_scan\""), std::string::npos);
  EXPECT_NE(json.find("\"compaction\""), std::string::npos);
  EXPECT_EQ(json.find("never_recorded"), std::string::npos);
  // Spans carry non-negative timestamps/durations relative to the epoch.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace oisched::obs
