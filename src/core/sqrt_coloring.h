// The coloring algorithm for the square-root assignment (Section 5).
//
// Theorem 15: a randomized polynomial-time algorithm with approximation
// factor O(log n) for the coloring problem under the square-root power
// assignment. The algorithm repeatedly extracts one color class:
//
//   1. Partition the still-uncolored requests into distance classes C_i
//      with lengths in [4^i, 4^{i+1}) (Section 5's factor-4 classes).
//   2. For i = 0..k ascending, choose S_i from C_i on top of the already
//      selected S_0,...,S_{i-1}: restrict to requests whose endpoints still
//      tolerate the current selection (the set V' of the paper), solve the
//      fractional relaxation of "maximize |T|, subject to the per-node
//      interference budgets of Claim 17", and round the LP solution
//      randomly, repairing violations by alteration (Lemma 16).
//   3. The union may overshoot the gain by a constant factor (assumption
//      (a): class losses are not exactly 4^(alpha*i); (b): gain beta/2;
//      (c): interference flowing backwards onto earlier classes, Lemma 19),
//      so it is thinned to gain beta by the constructive Proposition-3
//      greedy before becoming a color class.
//
// The outer greedy loop repeats until everything is colored; since each
// round extracts Omega(lambda) requests (lambda = the largest single color),
// O(log n) * OPT colors suffice.
#ifndef OISCHED_CORE_SQRT_COLORING_H
#define OISCHED_CORE_SQRT_COLORING_H

#include <cstdint>

#include "core/instance.h"
#include "core/schedule.h"
#include "lp/rounding.h"
#include "sinr/gain_matrix.h"

namespace oisched {

struct SqrtColoringOptions {
  std::uint64_t seed = 1;
  /// Base of the distance classes (the paper uses 4).
  double class_base = 4.0;
  /// Solve the per-class LP relaxation (the paper's path). When false, or
  /// for classes larger than `lp_variable_limit`, a within-class greedy is
  /// used instead (same constraint structure, no LP).
  bool use_lp = true;
  std::size_t lp_variable_limit = 384;
  RoundingOptions rounding;
  /// gain_matrix precomputes the pairwise gains once per call and keeps
  /// incremental per-round interference accumulators; any other value runs
  /// the original metric-recomputing path. Results are bit-for-bit
  /// identical either way.
  FeasibilityEngine engine = FeasibilityEngine::gain_matrix;
  /// Storage backend of the gain_matrix engine's tables, dense or computed
  /// (results are backend-independent).
  GainBackend storage = GainBackend::dense;
  /// > 1 fans each round's candidate scan (the per-class V' tolerance
  /// filter) across a worker pool. The filter is a pure per-request
  /// predicate and survivors are collected in index order, so results are
  /// bit-identical to the sequential scan (gated by the determinism test).
  std::size_t scan_threads = 1;
};

struct SqrtColoringStats {
  int rounds = 0;
  int lp_solves = 0;
  int greedy_fallbacks = 0;
};

struct SqrtColoringResult {
  Schedule schedule;
  std::vector<double> powers;  // the square-root powers used throughout
  SqrtColoringStats stats;
};

[[nodiscard]] SqrtColoringResult sqrt_coloring(const Instance& instance,
                                               const SinrParams& params, Variant variant,
                                               const SqrtColoringOptions& options = {});

}  // namespace oisched

#endif  // OISCHED_CORE_SQRT_COLORING_H
