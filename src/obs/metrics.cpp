#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "util/error.h"

namespace oisched::obs {
namespace {

/// Shortest-ish deterministic decimal for Prometheus sample values and
/// `le` labels ("%.17g" round-trips doubles; trailing zeros are fine).
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Series key for the JSON exposition: `name` or `name{labels}`.
std::string series_key(const MetricsSnapshot::Entry& entry) {
  if (entry.labels.empty()) return entry.name;
  return entry.name + "{" + entry.labels + "}";
}

/// Prometheus label block, optionally with an extra `le` pair appended.
std::string label_block(const std::string& labels, const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  out += labels;
  if (!le.empty()) {
    if (!labels.empty()) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

JsonValue histogram_json(const LatencyHistogram& h) {
  JsonValue v = JsonValue::object();
  v["count"] = JsonValue(static_cast<std::size_t>(h.count()));
  v["sum"] = JsonValue(h.sum());
  v["min"] = JsonValue(h.min());
  v["max"] = JsonValue(h.max());
  v["mean"] = JsonValue(h.mean());
  v["p50"] = JsonValue(h.quantile(0.50));
  v["p90"] = JsonValue(h.quantile(0.90));
  v["p99"] = JsonValue(h.quantile(0.99));
  v["p999"] = JsonValue(h.quantile(0.999));
  return v;
}

}  // namespace

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter:
      return "counter";
    case MetricKind::gauge:
      return "gauge";
    case MetricKind::histogram:
      return "histogram";
  }
  return "unknown";
}

// --- HistogramLayout ------------------------------------------------------

std::span<const double> HistogramLayout::boundaries() {
  static const std::array<double, kLogBuckets + 1> table = [] {
    std::array<double, kLogBuckets + 1> t{};
    for (std::size_t i = 0; i <= kLogBuckets; ++i) {
      t[i] = kMinValue * std::exp2(static_cast<double>(i) /
                                   static_cast<double>(kBucketsPerOctave));
    }
    return t;
  }();
  return table;
}

namespace {

/// A positive double's exponent and top four mantissa bits: its "cell".
/// A cell spans a factor of at most 1 + 1/16, less than the 2^(1/8) ~
/// 1.09 between neighbouring edges, so it holds at most one edge.
std::uint64_t cell_of(double value) { return std::bit_cast<std::uint64_t>(value) >> 48; }

/// For each cell between the first and last edge's, the bucket of the
/// cell's lowest value — found by std::upper_bound against boundaries(),
/// so it inherits the table's exact edge placement.
struct CellTable {
  std::uint64_t first = 0;
  std::vector<std::uint16_t> bucket;
};

const CellTable& cell_table() {
  static const CellTable table = [] {
    const auto edges = HistogramLayout::boundaries();
    CellTable t;
    t.first = cell_of(edges.front());
    for (std::uint64_t cell = t.first; cell <= cell_of(edges.back()); ++cell) {
      const double lowest = std::bit_cast<double>(cell << 48);
      const auto it = std::upper_bound(edges.begin(), edges.end(), lowest);
      t.bucket.push_back(static_cast<std::uint16_t>(it - edges.begin()));
    }
    return t;
  }();
  return table;
}

}  // namespace

std::size_t HistogramLayout::bucket_of(double value) {
  const auto edges = boundaries();
  // NaN compares false against every boundary; pin it (and negatives) to
  // underflow, like everything below the first edge.
  if (!(value >= edges.front())) return 0;
  if (value >= edges.back()) return kLogBuckets + 1;
  // The bucket is the number of edges <= value (a value exactly on an
  // edge opens that edge's bucket). The value's cell holds at most one
  // edge, so it is the bucket of the cell's lowest value or the next one:
  // one comparison against the table decides, never an exp/log round-trip.
  const CellTable& table = cell_table();
  std::size_t bucket = table.bucket[cell_of(value) - table.first];
  if (value >= edges[bucket]) ++bucket;
  return bucket;
}

double HistogramLayout::lower(std::size_t bucket) {
  const auto edges = boundaries();
  if (bucket == 0) return 0.0;
  if (bucket > kLogBuckets) return edges[kLogBuckets];
  return edges[bucket - 1];
}

double HistogramLayout::upper(std::size_t bucket) {
  const auto edges = boundaries();
  if (bucket == 0) return edges[0];
  if (bucket > kLogBuckets) return std::numeric_limits<double>::infinity();
  return edges[bucket];
}

double HistogramLayout::representative(std::size_t bucket) {
  const auto edges = boundaries();
  if (bucket == 0) return edges[0];
  if (bucket > kLogBuckets) return edges[kLogBuckets];
  return std::sqrt(edges[bucket - 1] * edges[bucket]);
}

// --- LatencyHistogram -----------------------------------------------------

void LatencyHistogram::observe(double value) noexcept {
  buckets_[HistogramLayout::bucket_of(value)] += 1;
  count_ += 1;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t b = 0; b < HistogramLayout::kBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  // The empty-histogram sentinels (+inf / -inf) make plain min/max the
  // identity, so merging an empty side changes nothing.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < HistogramLayout::kBuckets; ++b) {
    cumulative += buckets_[b];
    if (cumulative >= rank) return HistogramLayout::representative(b);
  }
  return HistogramLayout::representative(HistogramLayout::kBuckets - 1);
}

void LatencyHistogram::add_bucket(std::size_t bucket, std::uint64_t count) noexcept {
  if (bucket >= HistogramLayout::kBuckets || count == 0) return;
  buckets_[bucket] += count;
  count_ += count;
}

// --- MetricsRegistry ------------------------------------------------------

MetricId MetricsRegistry::counter(std::string name, std::string help,
                                  std::string labels) {
  return register_metric(MetricKind::counter, std::move(name), std::move(help),
                         std::move(labels));
}

MetricId MetricsRegistry::gauge(std::string name, std::string help, std::string labels) {
  return register_metric(MetricKind::gauge, std::move(name), std::move(help),
                         std::move(labels));
}

MetricId MetricsRegistry::histogram(std::string name, std::string help,
                                    std::string labels) {
  return register_metric(MetricKind::histogram, std::move(name), std::move(help),
                         std::move(labels));
}

MetricId MetricsRegistry::register_metric(MetricKind kind, std::string name,
                                          std::string help, std::string labels) {
  require(!name.empty(), "metric name must be non-empty");
  MetricsSnapshot::Entry descriptor;
  descriptor.name = std::move(name);
  descriptor.help = std::move(help);
  descriptor.labels = std::move(labels);
  descriptor.kind = kind;
  const std::scoped_lock lock(mutex_);
  descriptors_.push_back(std::move(descriptor));
  return descriptors_.size() - 1;
}

void MetricsRegistry::add_collector(std::function<void(MetricsSnapshot&)> collector) {
  require(collector != nullptr, "metrics collector must be callable");
  const std::scoped_lock lock(mutex_);
  collectors_.push_back(std::move(collector));
}

std::size_t MetricsRegistry::metric_count() const {
  const std::scoped_lock lock(mutex_);
  return descriptors_.size();
}

MetricsSnapshot MetricsRegistry::scrape() {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.entries = descriptors_;
  for (auto& collector : collectors_) collector(snapshot);
  return snapshot;
}

// --- MetricsSnapshot ------------------------------------------------------

void MetricsSnapshot::add_counter(MetricId id, std::uint64_t value) noexcept {
  if (id < entries.size() && entries[id].kind == MetricKind::counter) {
    entries[id].counter += value;
  }
}

void MetricsSnapshot::add_gauge(MetricId id, double value) noexcept {
  if (id < entries.size() && entries[id].kind == MetricKind::gauge) {
    entries[id].gauge += value;
  }
}

void MetricsSnapshot::merge_histogram(MetricId id,
                                      const LatencyHistogram& histogram) noexcept {
  if (id < entries.size() && entries[id].kind == MetricKind::histogram) {
    entries[id].histogram.merge(histogram);
  }
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    std::string_view name, std::string_view labels) const noexcept {
  for (const Entry& entry : entries) {
    if (entry.name == name && entry.labels == labels) return &entry;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const noexcept {
  std::uint64_t total = 0;
  for (const Entry& entry : entries) {
    if (entry.kind == MetricKind::counter && entry.name == name) {
      total += entry.counter;
    }
  }
  return total;
}

LatencyHistogram MetricsSnapshot::histogram_total(std::string_view name) const noexcept {
  LatencyHistogram total;
  for (const Entry& entry : entries) {
    if (entry.kind == MetricKind::histogram && entry.name == name) {
      total.merge(entry.histogram);
    }
  }
  return total;
}

JsonValue MetricsSnapshot::to_json() const {
  // Built as free-standing objects first: operator[] references into a
  // parent are invalidated when later insertions grow its storage.
  JsonValue counters = JsonValue::object();
  JsonValue gauges = JsonValue::object();
  JsonValue histograms = JsonValue::object();
  for (const Entry& entry : entries) {
    const std::string key = series_key(entry);
    switch (entry.kind) {
      case MetricKind::counter:
        counters[key] = JsonValue(static_cast<std::size_t>(entry.counter));
        break;
      case MetricKind::gauge:
        gauges[key] = JsonValue(entry.gauge);
        break;
      case MetricKind::histogram:
        histograms[key] = histogram_json(entry.histogram);
        break;
    }
  }
  JsonValue root = JsonValue::object();
  root["schema"] = JsonValue("oisched-metrics/1");
  root["counters"] = std::move(counters);
  root["gauges"] = std::move(gauges);
  root["histograms"] = std::move(histograms);
  return root;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::vector<std::string_view> emitted;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string_view name = entries[i].name;
    if (std::find(emitted.begin(), emitted.end(), name) != emitted.end()) continue;
    emitted.push_back(name);

    // One HELP/TYPE block per metric name, every label set grouped under
    // it (the exposition format requires same-name samples contiguous).
    if (!entries[i].help.empty()) {
      out += "# HELP ";
      out += name;
      out += " ";
      out += entries[i].help;
      out += "\n";
    }
    out += "# TYPE ";
    out += name;
    out += " ";
    out += to_string(entries[i].kind);
    out += "\n";

    for (std::size_t j = i; j < entries.size(); ++j) {
      const Entry& entry = entries[j];
      if (entry.name != name) continue;
      switch (entry.kind) {
        case MetricKind::counter:
          out += entry.name + label_block(entry.labels) + " " +
                 std::to_string(entry.counter) + "\n";
          break;
        case MetricKind::gauge:
          out += entry.name + label_block(entry.labels) + " " +
                 format_double(entry.gauge) + "\n";
          break;
        case MetricKind::histogram: {
          const LatencyHistogram& h = entry.histogram;
          const auto buckets = h.buckets();
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b < buckets.size(); ++b) {
            if (buckets[b] == 0) continue;  // sparse: elide empty buckets
            cumulative += buckets[b];
            if (b >= HistogramLayout::kBuckets - 1) continue;  // folded into +Inf
            out += entry.name + "_bucket" +
                   label_block(entry.labels, format_double(HistogramLayout::upper(b))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          out += entry.name + "_bucket" + label_block(entry.labels, "+Inf") + " " +
                 std::to_string(h.count()) + "\n";
          out += entry.name + "_sum" + label_block(entry.labels) + " " +
                 format_double(h.sum()) + "\n";
          out += entry.name + "_count" + label_block(entry.labels) + " " +
                 std::to_string(h.count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace oisched::obs
