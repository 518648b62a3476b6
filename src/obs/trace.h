// Event tracing: Chrome trace-event JSON spans with per-thread tracks.
//
// A TraceRecorder owns named tracks (one per thread of interest — each
// service shard, the replay driver); a TraceSpan is an RAII guard that
// records one complete event ("ph":"X") on a track, timed from
// construction to destruction. The output loads directly into
// chrome://tracing or https://ui.perfetto.dev, giving a per-event
// breakdown of where time goes (queue wait vs. feasibility scan vs.
// accumulator update vs. compaction).
//
// Cost contract: tracing is OFF unless the caller holds a non-null
// TraceTrack* — the OISCHED_TRACE_SPAN macro then expands to a single
// pointer test (no clock read, no allocation). Compiling with
// -DOISCHED_TRACING=0 removes even that: the macro expands to nothing.
#ifndef OISCHED_OBS_TRACE_H
#define OISCHED_OBS_TRACE_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stopwatch.h"

#ifndef OISCHED_TRACING
#define OISCHED_TRACING 1
#endif

namespace oisched::obs {

class TraceRecorder;

/// One timeline row in the trace viewer (a "thread"). Created by (and
/// owned by, at a stable address) a TraceRecorder; spans append under a
/// per-track mutex, so a track may be shared across threads, though one
/// track per thread reads best in the viewer.
class TraceTrack {
 public:
  TraceTrack(const TraceTrack&) = delete;
  TraceTrack& operator=(const TraceTrack&) = delete;

  /// Records a complete event [begin, end) on this track. `name` must
  /// point at storage outliving the recorder (string literals, in
  /// practice).
  void record(const char* name, Stopwatch::TimePoint begin, Stopwatch::TimePoint end);

 private:
  friend class TraceRecorder;

  struct Event {
    const char* name;
    double ts_us;   // microseconds since the recorder's epoch
    double dur_us;  // microseconds
  };

  TraceTrack(std::string name, std::size_t tid, Stopwatch::TimePoint epoch)
      : name_(std::move(name)), tid_(tid), epoch_(epoch) {}

  std::string name_;
  std::size_t tid_;
  Stopwatch::TimePoint epoch_;
  std::mutex mutex_;
  std::vector<Event> events_;
};

/// RAII span: times construction → destruction and records the interval
/// on a track. A null track disables the span entirely — not even the
/// clock is read.
class TraceSpan {
 public:
  TraceSpan(TraceTrack* track, const char* name) noexcept
      : track_(track), name_(name) {
    if (track_ != nullptr) begin_ = Stopwatch::now();
  }
  ~TraceSpan() {
    if (track_ != nullptr) track_->record(name_, begin_, Stopwatch::now());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceTrack* track_;
  const char* name_;
  Stopwatch::TimePoint begin_{};
};

/// Owns the tracks and serializes them as Chrome trace-event JSON
/// (an object with a "traceEvents" array of "ph":"X" complete events,
/// plus "ph":"M" thread_name metadata naming each track).
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Stopwatch::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A new timeline row; the reference stays valid for the recorder's
  /// lifetime.
  [[nodiscard]] TraceTrack& create_track(std::string name);

  /// The shared t=0 all event timestamps are relative to.
  [[nodiscard]] Stopwatch::TimePoint epoch() const noexcept { return epoch_; }

  [[nodiscard]] std::size_t event_count() const;

  /// Chrome trace JSON, loadable in chrome://tracing or Perfetto.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to a file; false (with errno intact) on failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Stopwatch::TimePoint epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceTrack>> tracks_;
};

}  // namespace oisched::obs

#define OISCHED_OBS_CONCAT_IMPL(a, b) a##b
#define OISCHED_OBS_CONCAT(a, b) OISCHED_OBS_CONCAT_IMPL(a, b)

/// Times the rest of the enclosing scope as one span on `track` (a
/// TraceTrack*, may be null → disabled). Expands to nothing when
/// compiled with -DOISCHED_TRACING=0.
#if OISCHED_TRACING
#define OISCHED_TRACE_SPAN(track, name)                                   \
  ::oisched::obs::TraceSpan OISCHED_OBS_CONCAT(oisched_trace_span_,       \
                                               __COUNTER__)((track), (name))
#else
#define OISCHED_TRACE_SPAN(track, name) \
  do {                                  \
  } while (false)
#endif

#endif  // OISCHED_OBS_TRACE_H
