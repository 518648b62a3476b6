// The benchmark's workloads. Each one stresses a different layer of the
// scheduler stack; README.md gives the reasons and the layer each metric
// should move.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall-clock budget of the measured rounds; at least kMinRounds run.
  double seconds = 10.0;
  /// Traced run: alternate untraced and span-recording rounds and report
  /// the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] RunResult run_workload(const std::string& name, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
