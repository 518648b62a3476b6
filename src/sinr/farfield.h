// Far-field interference aggregation over a spatial cell grid.
//
// The n-wide exact accumulators this layer was built around walked a full
// O(n) gain row on every mutation (member-indexed classes no longer do;
// see IncrementalGainClass).
// Geometry says almost all of that row is *distant*: links far from a
// receiver contribute little interference, and — crucially for the paper's
// oblivious power regime — their contribution can be bracketed from their
// cell alone. FarFieldContext is the shared geometry/bookkeeping layer
// behind that idea:
//
//   - a SpatialIndex grid over the metric's points, with per-link endpoint
//     cell assignments kept in lockstep with the online universe
//     (append_link / update_link mirror GainMatrix growth and mobility);
//   - per-(link, cell) conservative gain bounds: for any node w in `cell`,
//       bound_lo(j, cell) <= gain of link j at w <= bound_hi(j, cell),
//     derived from the inter-cell distance bounds and the link's power;
//   - the near/far partition: a cell is "near" link j when it lies within
//     a small Chebyshev radius of either endpoint cell of j (both variants
//     use both endpoints, so a link is always near its own cells and its
//     own slots — self-interference can never leak into a far aggregate);
//   - per-cell slot lists (receiver- and sender-endpoint keyed), the walk
//     order of the exact near-field updates;
//   - the bound-hit / exact-fallback counters the scheduler stats and the
//     metrics registry read. They live here (not in the color classes)
//     because classes are destroyed by compaction mid-replay.
//
// IncrementalGainClass (sinr/gain_matrix.h) consumes this: in far-field
// mode its exact accumulator banks hold NEAR-ONLY sums, each class keeps
// per-cell exact aggregates of the far members' bounds, and a feasibility
// test is answered from [near + far_lo, near + far_hi] when that interval
// clears the SINR threshold either way — falling back to an exact
// reconstruction (bit-identical to the exact-only path by the order-free
// pure-function property of ExactSum) only when the bounds straddle it.
// Conservatism costs a fallback, never a different decision.
#ifndef OISCHED_SINR_FARFIELD_H
#define OISCHED_SINR_FARFIELD_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "metric/euclidean.h"
#include "sinr/model.h"
#include "sinr/spatial_index.h"

namespace oisched {

struct FarFieldOptions {
  /// Grid resolution target; the flagship n=131072 cell uses 1024. More
  /// cells = smaller near fraction but larger per-class aggregate state.
  std::size_t target_cells = 256;
  /// Chebyshev radius (in cells) of the exact neighborhood around each
  /// endpoint cell; must be >= 1 so far cells always have a positive
  /// distance gap (finite upper bounds).
  std::size_t near_radius = 1;
};

/// Shared far-field geometry and counters for one online universe. Built
/// once per scheduler over the full metric (points never move outside the
/// recorded update events, and new links reference existing nodes, so the
/// grid box covers every future endpoint). Single-threaded, like the
/// scheduler that owns it.
class FarFieldContext {
 public:
  FarFieldContext(std::shared_ptr<const EuclideanMetric> metric,
                  std::vector<Request> requests, std::vector<double> powers,
                  double alpha, Variant variant, FarFieldOptions options = {});

  [[nodiscard]] std::size_t size() const noexcept { return cell_v_.size(); }
  [[nodiscard]] const SpatialIndex& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t num_cells() const noexcept { return grid_.num_cells(); }
  [[nodiscard]] Variant variant() const noexcept { return variant_; }
  [[nodiscard]] std::size_t near_radius() const noexcept { return options_.near_radius; }

  /// Endpoint cells of link j.
  [[nodiscard]] std::size_t cell_v(std::size_t j) const { return cell_v_[j]; }
  [[nodiscard]] std::size_t cell_u(std::size_t j) const { return cell_u_[j]; }

  /// True when `cell` lies within the near radius of either endpoint cell
  /// of link j — the partition between exact and aggregated interference.
  [[nodiscard]] bool is_near(std::size_t j, std::size_t cell) const noexcept {
    return grid_.chebyshev(cell_u_[j], cell) <= options_.near_radius ||
           grid_.chebyshev(cell_v_[j], cell) <= options_.near_radius;
  }

  /// Conservative bounds on the gain link j contributes at any node in
  /// `cell`. bound_hi is finite whenever !is_near(j, cell); bound_lo is
  /// always finite and >= 0.
  [[nodiscard]] double bound_hi(std::size_t j, std::size_t cell) const noexcept;
  [[nodiscard]] double bound_lo(std::size_t j, std::size_t cell) const noexcept;

  /// Slots whose receiver (v) / sender (u) endpoint lies in `cell` — the
  /// walk order of exact near-field accumulator updates.
  [[nodiscard]] std::span<const std::size_t> slots_v(std::size_t cell) const {
    return slots_v_[cell];
  }
  [[nodiscard]] std::span<const std::size_t> slots_u(std::size_t cell) const {
    return slots_u_[cell];
  }

  /// The flat ids of every cell near link j (union of the Chebyshev balls
  /// around both endpoint cells), replacing the contents of `out`.
  void near_cells(std::size_t j, std::vector<std::size_t>& out) const;

  /// Mirrors GainMatrix::append_request: the new link takes slot size().
  void append_link(const Request& r, double power);
  /// Mirrors GainMatrix::update_request (endpoint motion / power change).
  void update_link(std::size_t j, const Request& r, double power);

  /// Feasibility-test outcome counters, summed across every class of the
  /// owning scheduler. Mutable so classes can bump them through their
  /// const context pointer; the fallback fraction (fallbacks / total) is
  /// the headline observable of the whole layer.
  void count_bound_hit() const noexcept { ++bound_hits_; }
  void count_exact_fallback() const noexcept { ++exact_fallbacks_; }
  [[nodiscard]] std::uint64_t bound_hits() const noexcept { return bound_hits_; }
  [[nodiscard]] std::uint64_t exact_fallbacks() const noexcept {
    return exact_fallbacks_;
  }

 private:
  [[nodiscard]] std::size_t delta_index(std::size_t a, std::size_t b) const noexcept;
  void assign_cells(std::size_t j);

  std::shared_ptr<const EuclideanMetric> metric_;
  std::vector<Request> requests_;
  std::vector<double> powers_;
  double alpha_;
  Variant variant_;
  FarFieldOptions options_;
  SpatialIndex grid_;
  /// Inverse-path-loss bound factors per cell-index delta (dy * cells_x +
  /// dx): bound = power * factor, with the geometric slack folded in so
  /// the product conservatively brackets the exact gain the filler
  /// computes.
  std::vector<double> ub_factor_;
  std::vector<double> lb_factor_;
  std::vector<std::size_t> cell_v_;
  std::vector<std::size_t> cell_u_;
  std::vector<std::vector<std::size_t>> slots_v_;
  std::vector<std::vector<std::size_t>> slots_u_;
  mutable std::uint64_t bound_hits_ = 0;
  mutable std::uint64_t exact_fallbacks_ = 0;
};

}  // namespace oisched

#endif  // OISCHED_SINR_FARFIELD_H
