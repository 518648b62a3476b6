// Abstract finite metric space.
//
// The paper states its positive result (Theorem 2) for request pairs "from
// every metric space", and its machinery moves between general metrics, tree
// metrics and star metrics. This interface is the common currency: every
// algorithm in the library is written against it.
#ifndef OISCHED_METRIC_METRIC_SPACE_H
#define OISCHED_METRIC_METRIC_SPACE_H

#include <cstddef>
#include <string>

namespace oisched {

/// Index of a point in a finite metric space.
using NodeId = std::size_t;

/// A finite metric space over points {0, ..., size()-1}.
///
/// Implementations must guarantee the metric axioms: non-negativity,
/// identity (distance(v,v) == 0), symmetry and the triangle inequality.
/// Symmetry must be exact, not approximate: distance(a, b) and
/// distance(b, a) must return the same double, bit for bit, because the
/// gain tables read one of them for both (GainMatrix's dense build,
/// LinkLossMatrix) and promise the values of per-entry evaluation.
/// `verify_metric_axioms` (checks.h) validates these exhaustively in tests,
/// symmetry with `!=`.
class MetricSpace {
 public:
  virtual ~MetricSpace() = default;

  /// Number of points.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Distance between two points; exactly symmetric, zero iff a == b (for
  /// distinct embedded positions).
  [[nodiscard]] virtual double distance(NodeId a, NodeId b) const = 0;

  /// Human-readable description for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace oisched

#endif  // OISCHED_METRIC_METRIC_SPACE_H
