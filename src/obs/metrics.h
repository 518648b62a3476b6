// Unified telemetry: a registry of named counters, gauges and log-scale
// latency histograms, filled at scrape time from the stores that already
// hold the numbers.
//
// The registry keeps no values of its own. Each layer keeps its counters
// in one plain place (OnlineStats for a scheduler, the per-batch published
// state for the service), and the registry turns them into series:
//
//   - REGISTRATION is rare and locked: each metric gets a small integer
//     MetricId and a descriptor (name, help, pre-rendered Prometheus-style
//     labels).
//   - COLLECTORS are the only writers: each one runs on every scrape,
//     under the registry mutex, and fills the values of its ids straight
//     into the scrape's MetricsSnapshot. The hot path never touches the
//     registry, so an event costs nothing for being exported.
//   - READS get plain values: scrape() returns a MetricsSnapshot with
//     JSON and Prometheus-text expositions.
//
// Latency percentiles come from fixed-bucket base-2 log-scale histograms
// instead of sorted raw vectors: bounded memory (322 buckets however many
// events flow), mergeable across shards in any order with a bit-identical
// result (bucket counts add), and deterministic quantiles with a
// bounded-error contract — the estimate is the geometric midpoint of the
// bucket holding the nearest-rank order statistic, so for samples inside
// the layout's range the relative error is at most 2^(1/16) - 1 (< 4.5%,
// see LatencyHistogram::kQuantileRelativeError). Exact min, max, count and
// sum ride alongside the buckets.
#ifndef OISCHED_OBS_METRICS_H
#define OISCHED_OBS_METRICS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_writer.h"

namespace oisched::obs {

/// Dense handle of a registered metric (its registration index).
using MetricId = std::size_t;

enum class MetricKind { counter, gauge, histogram };

/// Human-readable kind name ("counter" / "gauge" / "histogram").
[[nodiscard]] const char* to_string(MetricKind kind);

/// The fixed base-2 log-scale bucket layout every latency histogram
/// shares: 8 buckets per octave from 1 ns up to ~1100 s, plus an
/// underflow bucket [0, 1 ns) and an overflow bucket [top, +inf). One
/// shared layout keeps merges trivially associative and the exposition
/// uniform; 8 buckets per octave bounds the quantile error (below).
struct HistogramLayout {
  static constexpr double kMinValue = 1e-9;  // seconds; underflow below
  static constexpr std::size_t kBucketsPerOctave = 8;
  static constexpr std::size_t kOctaves = 40;  // top = 1e-9 * 2^40 ~ 1100 s
  static constexpr std::size_t kLogBuckets = kBucketsPerOctave * kOctaves;
  /// Underflow + log buckets + overflow.
  static constexpr std::size_t kBuckets = kLogBuckets + 2;

  /// The kLogBuckets + 1 finite bucket edges: boundaries()[i] =
  /// kMinValue * 2^(i / kBucketsPerOctave), ascending. Bucket b in
  /// [1, kLogBuckets] covers [boundaries()[b-1], boundaries()[b]).
  [[nodiscard]] static std::span<const double> boundaries();

  /// Deterministic bucket index of a value, in O(1): a guess from the
  /// value's exponent and top mantissa bits, settled by one comparison
  /// against the boundary table, so a value exactly on an edge lands in
  /// the bucket the edge opens (never a neighbor, whatever the libm
  /// rounding that produced the table). Negative and NaN values underflow
  /// to bucket 0.
  [[nodiscard]] static std::size_t bucket_of(double value);

  /// Inclusive lower edge of a bucket (0.0 for the underflow bucket).
  [[nodiscard]] static double lower(std::size_t bucket);
  /// Exclusive upper edge of a bucket (+inf for the overflow bucket).
  [[nodiscard]] static double upper(std::size_t bucket);
  /// The deterministic quantile estimate a bucket stands for: the
  /// geometric midpoint of its edges (the edge itself for the open-ended
  /// underflow/overflow buckets).
  [[nodiscard]] static double representative(std::size_t bucket);
};

/// A plain (single-writer) fixed-bucket log-scale histogram: the value
/// type schedulers observe into, tests fuzz and snapshots carry.
class LatencyHistogram {
 public:
  /// Bound on the relative error of quantile() against the nearest-rank
  /// order statistic of the observed sample, for samples inside
  /// [kMinValue, top): the estimate and the true value share a bucket
  /// whose edges are a factor 2^(1/8) apart, and the estimate sits at
  /// the geometric midpoint, so est/true lies in
  /// [2^(-1/16), 2^(1/16)] — within 4.5% either way.
  static constexpr double kQuantileRelativeError = 0.0443;

  void observe(double value) noexcept;
  /// Adds another histogram's buckets (and count/sum, exact min/max) —
  /// associative and commutative, so shards merge to a bit-identical
  /// result in any order.
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Exact extremes of the observed sample (0 when empty).
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  /// Deterministic bounded-error quantile, q in [0, 1]: the
  /// representative of the bucket holding the nearest-rank order
  /// statistic (rank max(1, ceil(q * count))). 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::span<const std::uint64_t> buckets() const noexcept {
    return buckets_;
  }
  /// Direct bucket accumulation (count only; sum and extremes stay).
  void add_bucket(std::size_t bucket, std::uint64_t count) noexcept;

 private:
  std::array<std::uint64_t, HistogramLayout::kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// The plain-value view one scrape produced; entries are indexed by
/// MetricId (registration order).
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::string help;
    std::string labels;  // pre-rendered, e.g. `shard="0"` (may be empty)
    MetricKind kind = MetricKind::counter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    LatencyHistogram histogram;
  };

  std::vector<Entry> entries;

  /// Collector writes. Counters and gauges add and histograms merge, so
  /// several collectors may feed one series; an id of another kind (or
  /// out of range) is ignored.
  void add_counter(MetricId id, std::uint64_t value) noexcept;
  void add_gauge(MetricId id, double value) noexcept;
  void merge_histogram(MetricId id, const LatencyHistogram& histogram) noexcept;

  /// Lookup by name (+ labels); nullptr when absent.
  [[nodiscard]] const Entry* find(std::string_view name,
                                  std::string_view labels = "") const noexcept;
  /// Sum of every counter series with this name (across label sets).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const noexcept;
  /// Merge of every histogram series with this name (across label sets).
  [[nodiscard]] LatencyHistogram histogram_total(std::string_view name) const noexcept;

  /// {"schema": "oisched-metrics/1", "counters": {...}, "gauges": {...},
  ///  "histograms": {series: {count/sum/min/max/mean/p50/p90/p99/p999}}}
  /// — series keyed `name` or `name{labels}`; deterministic order.
  [[nodiscard]] JsonValue to_json() const;
  /// Prometheus text exposition: # HELP/# TYPE per metric name,
  /// histograms as cumulative `_bucket{le="..."}` series (zero-count
  /// buckets elided; `+Inf`, `_sum` and `_count` always present).
  [[nodiscard]] std::string to_prometheus() const;
};

/// The registry: metric descriptors and the collectors that fill them,
/// under one mutex. Registration and collectors may be added at any time;
/// each scrape covers every metric registered before it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] MetricId counter(std::string name, std::string help,
                                 std::string labels = "");
  [[nodiscard]] MetricId gauge(std::string name, std::string help,
                               std::string labels = "");
  [[nodiscard]] MetricId histogram(std::string name, std::string help,
                                   std::string labels = "");

  /// Scrape-time value source: runs on every scrape, under the registry
  /// mutex, and writes the values of its ids into the snapshot (see
  /// MetricsSnapshot::add_counter). It reads whatever store owns the
  /// numbers, so it must take that store's lock (or run where the store
  /// is quiesced), and it must not call back into this registry.
  void add_collector(std::function<void(MetricsSnapshot&)> collector);

  /// Zeroed entries for every registered metric, filled by the
  /// collectors in registration order.
  [[nodiscard]] MetricsSnapshot scrape();

  [[nodiscard]] std::size_t metric_count() const;

 private:
  MetricId register_metric(MetricKind kind, std::string name, std::string help,
                           std::string labels);

  mutable std::mutex mutex_;
  std::vector<MetricsSnapshot::Entry> descriptors_;  // by MetricId, values zero
  std::vector<std::function<void(MetricsSnapshot&)>> collectors_;
};

}  // namespace oisched::obs

#endif  // OISCHED_OBS_METRICS_H
