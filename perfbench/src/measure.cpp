#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json_reader.h"

namespace perfbench {

using oisched::obs::HistogramLayout;
using oisched::obs::LatencyHistogram;

LatencyHistogram histogram_delta(const LatencyHistogram& after,
                                 const LatencyHistogram& before) {
  LatencyHistogram delta;
  const auto now = after.buckets();
  const auto then = before.buckets();
  for (std::size_t b = 0; b < now.size(); ++b) delta.add_bucket(b, now[b] - then[b]);
  return delta;
}

double histogram_quantile(const LatencyHistogram& histogram, double q) {
  const auto buckets = histogram.buckets();
  if (histogram.count() == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(histogram.count());
  double cumulative = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const auto count = static_cast<double>(buckets[b]);
    if (count == 0.0 || cumulative + count < rank) {
      cumulative += count;
      continue;
    }
    const double lo = HistogramLayout::lower(b);
    const double hi = HistogramLayout::upper(b);
    if (lo <= 0.0 || !std::isfinite(hi)) return HistogramLayout::representative(b);
    return lo * std::pow(hi / lo, (rank - cumulative) / count);
  }
  return HistogramLayout::representative(buckets.size() - 1);
}

std::map<std::string, std::vector<double>> span_durations(
    const oisched::obs::TraceRecorder& recorder, oisched::Stopwatch::TimePoint since) {
  const double since_us =
      oisched::Stopwatch::seconds_between(recorder.epoch(), since) * 1e6;
  const oisched::JsonValue document = oisched::parse_json(recorder.to_json());
  const oisched::JsonValue& events = document.at("traceEvents");
  std::map<std::string, std::vector<double>> durations;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const oisched::JsonValue& event = events.item(i);
    if (event.at("ph").as_string() != "X") continue;
    if (event.at("ts").as_double() < since_us) continue;
    durations[event.at("name").as_string()].push_back(event.at("dur").as_double() * 1e-6);
  }
  return durations;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
