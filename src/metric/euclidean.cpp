#include "metric/euclidean.h"

#include <cmath>

#include "util/error.h"

namespace oisched {

EuclideanMetric::EuclideanMetric(std::vector<Point> points) : points_(std::move(points)) {
  require(!points_.empty(), "EuclideanMetric: point set must not be empty");
  for (const Point& p : points_) {
    require(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z),
            "EuclideanMetric: coordinates must be finite");
  }
}

EuclideanMetric EuclideanMetric::line(std::span<const double> positions) {
  std::vector<Point> pts;
  pts.reserve(positions.size());
  for (const double x : positions) pts.push_back(Point{x, 0.0, 0.0});
  return EuclideanMetric(std::move(pts));
}

double EuclideanMetric::distance(NodeId a, NodeId b) const {
  require(a < points_.size() && b < points_.size(), "EuclideanMetric: node out of range");
  return euclidean_distance(points_[a], points_[b]);
}

const Point& EuclideanMetric::point(NodeId v) const {
  require(v < points_.size(), "EuclideanMetric: node out of range");
  return points_[v];
}

}  // namespace oisched
