// Greedy first-fit coloring.
//
// The straightforward O(n)-approximation the paper mentions ("there is a
// straightforward algorithm that achieves an O(n)-approximation"): process
// requests in some order and put each into the first color class that stays
// SINR-feasible, opening a new class when none does. Works with any fixed
// power assignment, and — as the non-oblivious comparator of Theorem 1 —
// with per-class *power control*, where a class accepts a request iff some
// power assignment keeps the whole class feasible (decided exactly via the
// Perron–Frobenius oracle in sinr/power_control.h).
#ifndef OISCHED_CORE_GREEDY_H
#define OISCHED_CORE_GREEDY_H

#include <span>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "sinr/gain_matrix.h"

namespace oisched {

enum class RequestOrder {
  as_given,
  longest_first,
  shortest_first,
};

/// Request indices of `instance` arranged in the given order (ties broken by
/// index, so orderings are deterministic).
[[nodiscard]] std::vector<std::size_t> ordered_indices(const Instance& instance,
                                                       RequestOrder order);

/// First-fit coloring under a fixed power vector. Both engines produce
/// bit-for-bit identical schedules; gain_matrix precomputes the pairwise
/// gains once and answers membership tests from tables with plain
/// insertion-order sums (RemovePolicy::rebuild), direct re-validates whole
/// classes per test. `storage` picks the table backend of the gain_matrix
/// engine, dense or computed (results are backend-independent; computed
/// keeps no table, so it runs universes a dense table cannot hold) and is
/// ignored by the direct engine.
///
/// `scan_threads` > 1 fans each request's candidate scan (the first-fit
/// sweep over open classes) across a worker pool. Workers probe disjoint
/// class subsets and the lowest-index accepting class wins, exactly the
/// class sequential first-fit commits to — schedules are bit-identical
/// for every engine (can_add is const; gated by the determinism test).
[[nodiscard]] Schedule greedy_coloring(
    const Instance& instance, std::span<const double> powers, const SinrParams& params,
    Variant variant, RequestOrder order = RequestOrder::longest_first,
    FeasibilityEngine engine = FeasibilityEngine::gain_matrix,
    GainBackend storage = GainBackend::dense, std::size_t scan_threads = 1);

struct PowerControlColoring {
  Schedule schedule;
  /// Witness powers per color class, aligned with the class's members in
  /// increasing request order (as produced by color_classes()).
  std::vector<std::vector<double>> class_powers;
};

/// First-fit coloring where feasibility of a class is "exists *some* power
/// assignment" — the unrestricted comparator the paper measures oblivious
/// assignments against.
[[nodiscard]] PowerControlColoring greedy_power_control_coloring(
    const Instance& instance, const SinrParams& params, Variant variant,
    RequestOrder order = RequestOrder::longest_first);

}  // namespace oisched

#endif  // OISCHED_CORE_GREEDY_H
