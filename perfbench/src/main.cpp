// perfbench_run: one measured run of one workload.
//
//   perfbench_run --workload churn-n4096 --seed 7 --seconds 10 --trace 0
//
// Prints a details line, then, as the last line of standard output, the
// result: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits non-zero
// when any correctness gate fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench_run --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:";
  for (const std::string& name : perfbench::workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || workload.empty() || !(options.seconds > 0.0)) return usage();

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(workload, options);
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  for (const std::string& violation : result.violations) {
    std::cerr << "perfbench: gate failed: " << violation << "\n";
  }
  std::cout << "{\"workload\": \"" << workload << "\", \"seed\": " << options.seed
            << ", \"details\": " << perfbench::metrics_json(result.details) << "}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": "
            << perfbench::metrics_json(options.trace ? result.per_layer : result.end_to_end)
            << "}" << std::endl;
  return result.correct ? 0 : 1;
}
