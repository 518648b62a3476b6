// The host-speed probe: a fixed unit of floating-point work that belongs to
// the benchmark, not to the program, timed on the measuring thread right
// next to the program's own work.
//
// The benchmark runs on a shared host whose vCPUs change speed with the
// load of other tenants, by up to 2x for minutes at a time and core by
// core. Such a slowdown stretches the probe and the program alike, so
// program timings scaled by the probe's time hold still where the raw
// timings do not. A change to the program leaves the probe's time alone,
// so it shows in full. The probe's kernel is the program's hottest loop in
// miniature: error-free two-sum accumulation over a few KiB of doubles.
// It sees how fast a core computes, not how much of the shared L3 and
// memory bandwidth other tenants leave, so the workloads are sized so that
// those do not limit them.
//
// Every timing the benchmark reports is scaled to the reference speed:
// raw seconds × (kReferencePassSeconds ÷ the probe's median pass time
// around that timing). The raw figures are printed alongside.
#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstddef>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// One pass takes about this long on the reference host (a quiet
  /// 4-vCPU Sapphire Rapids Xeon, Release build, default flags).
  static constexpr double kReferencePassSeconds = 1.3e-6;

  SpeedProbe();

  /// Runs one pass and returns its wall seconds.
  double pass();

  /// Runs `passes` passes; the factor that scales a timing taken now to the
  /// reference speed, from their median.
  double factor(std::size_t passes);

 private:
  std::vector<double> sums_;
  std::vector<double> errors_;
  std::vector<double> addends_;
};

/// reference ÷ median of `pass_seconds` (1 when there are none).
double speed_factor(const std::vector<double>& pass_seconds);

/// The mean factor of the given vCPUs at once: one probe thread pinned to
/// each, running `passes` passes. For timings of threads that run on those
/// vCPUs, whose speed changes independently of the measuring thread's.
double cores_factor(const std::vector<int>& cpus, std::size_t passes);

/// The vCPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus`; threads it creates afterwards
/// inherit the restriction. Returns false when the system refuses.
bool pin_current_thread(const std::vector<int>& cpus);

/// A series of timed operations on one thread, each followed by probe
/// passes that take about kProbeShare of its time (at least one pass).
/// Each operation is scaled by the median pass of its block of kBlock
/// consecutive operations, so a change of host speed within a round is
/// followed.
class ProbedSeries {
 public:
  static constexpr double kProbeShare = 0.02;
  static constexpr std::size_t kBlock = 32;

  explicit ProbedSeries(SpeedProbe& probe) : probe_(&probe) {}

  /// Records one operation's raw seconds and probes right after it.
  void add(double seconds);

  [[nodiscard]] const std::vector<double>& raw() const { return raw_; }
  /// Every operation's seconds, scaled to the reference speed.
  [[nodiscard]] std::vector<double> scaled() const;
  /// reference ÷ median pass over the whole series.
  [[nodiscard]] double factor() const { return speed_factor(passes_); }

 private:
  SpeedProbe* probe_;
  std::vector<double> raw_;
  std::vector<double> passes_;  // mean pass time after each operation
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H
