// Measurement helpers: histogram quantiles, span totals
// from the library's trace recorder, process resource usage, and the
// result document the benchmark prints.
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace perfbench {

using oisched::percentile;

/// The observations a histogram series gained between two scrapes.
oisched::obs::LatencyHistogram histogram_delta(const oisched::obs::LatencyHistogram& after,
                                               const oisched::obs::LatencyHistogram& before);

/// Quantile of a histogram, interpolated log-linearly inside the bucket
/// that holds the rank. The library's own quantile() returns bucket
/// representatives, which move in ~9% steps; this moves continuously.
double histogram_quantile(const oisched::obs::LatencyHistogram& histogram, double q);

/// Durations (seconds) of the spans each name recorded, keeping only spans
/// that started at or after `since` — parsed from the recorder's Chrome
/// trace JSON, so the benchmark reads exactly what a trace viewer shows.
std::map<std::string, std::vector<double>> span_durations(
    const oisched::obs::TraceRecorder& recorder, oisched::Stopwatch::TimePoint since);

double sum(const std::vector<double>& values);

/// getrusage: peak resident set of this process (MiB) and CPU seconds
/// (user + system) spent so far by all its threads.
double peak_rss_mib();
double cpu_seconds();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Gate failures, printed to stderr.
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Context for a reader of the output: sample counts, round counts,
  /// sizes. Printed on the line before the result.
  std::vector<Metric> details;

  void require(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    violations.push_back(what);
  }
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with round-trip precision.
std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H
