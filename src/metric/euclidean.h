// Euclidean point sets (1, 2 or 3 dimensions).
//
// The paper's negative result (Theorem 1) lives on the line; generators for
// random topologies use the plane. A single 3-coordinate point type covers
// all cases without template machinery.
#ifndef OISCHED_METRIC_EUCLIDEAN_H
#define OISCHED_METRIC_EUCLIDEAN_H

#include <cmath>
#include <span>
#include <vector>

#include "metric/metric_space.h"

namespace oisched {

/// A point in up to three Euclidean dimensions; unused coordinates are 0.
struct Point {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// |a - b|^2, summed in x, y, z order.
[[nodiscard]] inline double squared_euclidean_distance(const Point& a,
                                                       const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

/// |a - b|. Inline, so the computed gain kernel (sinr/gain_matrix.h) reads
/// the same distances as EuclideanMetric::distance without a virtual call.
[[nodiscard]] inline double euclidean_distance(const Point& a, const Point& b) noexcept {
  return std::sqrt(squared_euclidean_distance(a, b));
}

/// Finite metric space induced by explicit point coordinates.
class EuclideanMetric final : public MetricSpace {
 public:
  explicit EuclideanMetric(std::vector<Point> points);

  /// Convenience for line instances: positions on the x-axis.
  [[nodiscard]] static EuclideanMetric line(std::span<const double> positions);

  [[nodiscard]] std::size_t size() const noexcept override { return points_.size(); }
  [[nodiscard]] double distance(NodeId a, NodeId b) const override;
  [[nodiscard]] std::string name() const override { return "euclidean"; }

  [[nodiscard]] const Point& point(NodeId v) const;
  [[nodiscard]] const std::vector<Point>& points() const noexcept { return points_; }

 private:
  std::vector<Point> points_;
};

}  // namespace oisched

#endif  // OISCHED_METRIC_EUCLIDEAN_H
