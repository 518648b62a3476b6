// Row kernel for the plain accumulator hot path.
//
// The rebuild-policy accumulators and the sqrt coloring's selection sums
// walk a contiguous gain-table row run (GainStorage::row_run) against a
// flat accumulator array. This is that walk: one IEEE addition per slot,
// in slot order, so every caller sees the same per-slot operation
// sequence and the results stay bit-identical across engines and builds.
#ifndef OISCHED_SINR_ROW_KERNELS_H
#define OISCHED_SINR_ROW_KERNELS_H

#include <cstddef>

namespace oisched::kernels {

/// acc[i] += row[i] for i in [0, n).
inline void acc_add_row(double* acc, const double* row, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += row[i];
}

}  // namespace oisched::kernels

#endif  // OISCHED_SINR_ROW_KERNELS_H
