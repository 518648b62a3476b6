#include "probe.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <thread>

#include "util/stats.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

/// Doubles per array: three arrays of 4 KiB, resident in L1.
constexpr std::size_t kSlots = 512;
/// Sweeps over the arrays per pass.
constexpr int kSweeps = 4;

}  // namespace

SpeedProbe::SpeedProbe() : sums_(kSlots, 0.0), errors_(kSlots, 0.0), addends_(kSlots) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    addends_[i] = 0.5 + static_cast<double>((i * 2654435761U) % 1024U) / 1024.0;
  }
}

double SpeedProbe::pass() {
  const oisched::Stopwatch watch;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    // Alternate the sign so the sums stay bounded however many passes run.
    const double sign = sweep % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const double a = sums_[i];
      const double b = sign * addends_[i];
      const double s = a + b;
      const double bb = s - a;
      errors_[i] += (a - (s - bb)) + (b - bb);
      sums_[i] = s;
    }
  }
  return watch.elapsed_seconds();
}

double SpeedProbe::factor(std::size_t passes) {
  std::vector<double> seconds(passes);
  for (double& s : seconds) s = pass();
  return speed_factor(seconds);
}

double speed_factor(const std::vector<double>& pass_seconds) {
  const double median = oisched::percentile(pass_seconds, 0.5);
  return median > 0.0 ? SpeedProbe::kReferencePassSeconds / median : 1.0;
}

double cores_factor(const std::vector<int>& cpus, std::size_t passes) {
  if (cpus.empty()) return 1.0;
  std::vector<double> factors(cpus.size(), 1.0);
  {
    // jthreads join when this scope ends, on every path out of it.
    std::vector<std::jthread> threads;
    threads.reserve(cpus.size());
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      threads.emplace_back([&factors, &cpus, c, passes] {
        pin_current_thread({cpus[c]});
        factors[c] = SpeedProbe().factor(passes);
      });
    }
  }
  double total = 0.0;
  for (const double f : factors) total += f;
  return total / static_cast<double>(cpus.size());
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

void ProbedSeries::add(double seconds) {
  raw_.push_back(seconds);
  double spent = 0.0;
  int passes = 0;
  do {
    spent += probe_->pass();
    ++passes;
  } while (spent < kProbeShare * seconds);
  passes_.push_back(spent / passes);
}

std::vector<double> ProbedSeries::scaled() const {
  std::vector<double> out(raw_.size());
  for (std::size_t begin = 0; begin < raw_.size(); begin += kBlock) {
    const std::size_t end = std::min(raw_.size(), begin + kBlock);
    const double f = speed_factor(std::vector<double>(passes_.begin() + begin,
                                                      passes_.begin() + end));
    for (std::size_t i = begin; i < end; ++i) out[i] = raw_[i] * f;
  }
  return out;
}

}  // namespace perfbench
