#include "core/greedy.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "sinr/power_control.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace oisched {
namespace {

/// The from-scratch engine: a membership test re-validates the whole class
/// plus the candidate through check_feasible, exactly as an external caller
/// of the public API would.
class RecheckClass {
 public:
  RecheckClass(const MetricSpace& metric, std::span<const Request> requests,
               std::span<const double> powers, const SinrParams& params, Variant variant)
      : metric_(metric),
        requests_(requests),
        powers_(powers),
        params_(params),
        variant_(variant) {}

  [[nodiscard]] bool can_add(std::size_t request_index) const {
    std::vector<std::size_t> with(members_);
    with.push_back(request_index);
    return check_feasible(metric_, requests_, powers_, with, params_, variant_).feasible;
  }
  void add(std::size_t request_index) { members_.push_back(request_index); }

 private:
  const MetricSpace& metric_;
  std::span<const Request> requests_;
  std::span<const double> powers_;
  SinrParams params_;
  Variant variant_;
  std::vector<std::size_t> members_;
};

/// First-fit over any class representation exposing can_add/add.
///
/// With scan_threads > 1, each round's candidate scan fans across a worker
/// pool: worker t probes classes t, t + T, t + 2T, ... in ascending order
/// and stops at its first acceptor, so the minimum over workers is the
/// lowest-index accepting class — the one sequential first-fit commits to.
/// can_add writes no class state and every backend's reads are
/// thread-safe, so probing extra classes concurrently keeps the schedules
/// bit-identical.
template <typename ClassT, typename Factory>
Schedule first_fit_coloring(const Instance& instance, RequestOrder order,
                            const Factory& make_class, std::size_t scan_threads) {
  Schedule schedule;
  schedule.color_of.assign(instance.size(), -1);
  std::vector<ClassT> classes;
  std::optional<ThreadPool> pool;
  if (scan_threads > 1) pool.emplace(scan_threads);
  std::vector<std::size_t> local_first;
  for (const std::size_t i : ordered_indices(instance, order)) {
    std::size_t chosen = classes.size();
    if (pool.has_value() && classes.size() > 1) {
      const std::size_t workers = std::min(scan_threads, classes.size());
      local_first.assign(workers, classes.size());
      for (std::size_t t = 0; t < workers; ++t) {
        pool->submit([&, t, workers] {
          for (std::size_t c = t; c < classes.size(); c += workers) {
            if (classes[c].can_add(i)) {
              local_first[t] = c;
              return;
            }
          }
        });
      }
      pool->wait_idle();
      chosen = *std::min_element(local_first.begin(), local_first.end());
    } else {
      for (std::size_t c = 0; c < classes.size(); ++c) {
        if (classes[c].can_add(i)) {
          chosen = c;
          break;
        }
      }
    }
    if (chosen == classes.size()) classes.push_back(make_class());
    classes[chosen].add(i);
    schedule.color_of[i] = static_cast<int>(chosen);
  }
  schedule.num_colors = static_cast<int>(classes.size());
  return schedule;
}

}  // namespace

std::vector<std::size_t> ordered_indices(const Instance& instance, RequestOrder order) {
  std::vector<std::size_t> idx = instance.all_indices();
  switch (order) {
    case RequestOrder::as_given:
      break;
    case RequestOrder::longest_first:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return instance.length(a) > instance.length(b);
      });
      break;
    case RequestOrder::shortest_first:
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return instance.length(a) < instance.length(b);
      });
      break;
  }
  return idx;
}

Schedule greedy_coloring(const Instance& instance, std::span<const double> powers,
                         const SinrParams& params, Variant variant, RequestOrder order,
                         FeasibilityEngine engine, GainBackend storage,
                         std::size_t scan_threads) {
  require(powers.size() == instance.size(), "greedy_coloring: one power per request");
  switch (engine) {
    case FeasibilityEngine::direct:
      return first_fit_coloring<RecheckClass>(
          instance, order,
          [&] {
            return RecheckClass(instance.metric(), instance.requests(), powers, params,
                                variant);
          },
          scan_threads);
    case FeasibilityEngine::gain_matrix:
      break;
  }
  const auto gains =
      instance.gains(powers, params.alpha, variant, /*with_sender_gains=*/false, storage);
  return first_fit_coloring<IncrementalGainClass>(
      instance, order, [&] { return IncrementalGainClass(*gains, params); }, scan_threads);
}

PowerControlColoring greedy_power_control_coloring(const Instance& instance,
                                                   const SinrParams& params,
                                                   Variant variant, RequestOrder order) {
  PowerControlColoring result;
  result.schedule.color_of.assign(instance.size(), -1);

  std::vector<std::vector<std::size_t>> classes;
  for (const std::size_t i : ordered_indices(instance, order)) {
    bool placed = false;
    for (auto& members : classes) {
      members.push_back(i);
      if (power_control_feasible(instance.metric(), instance.requests(), members, params,
                                 variant)
              .feasible) {
        result.schedule.color_of[i] = static_cast<int>(&members - classes.data());
        placed = true;
        break;
      }
      members.pop_back();
    }
    if (!placed) {
      classes.push_back({i});
      result.schedule.color_of[i] = static_cast<int>(classes.size() - 1);
    }
  }
  result.schedule.num_colors = static_cast<int>(classes.size());

  // Recompute witness powers per final class, ordered as color_classes()
  // reports members (increasing request index).
  for (auto& members : classes) std::sort(members.begin(), members.end());
  result.class_powers.reserve(classes.size());
  for (const auto& members : classes) {
    PowerControlResult pc = power_control_feasible(instance.metric(), instance.requests(),
                                                   members, params, variant);
    ensure(pc.feasible, "greedy_power_control_coloring: final class must be feasible");
    if (pc.witness_powers.empty()) pc.witness_powers.assign(members.size(), 1.0);
    result.class_powers.push_back(std::move(pc.witness_powers));
  }
  return result;
}

}  // namespace oisched
