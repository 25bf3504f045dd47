// What is left of the former row-kernel layer: two scalar rows and the
// backend name, all read only by the benchmark (benchmark/src/replay.cpp's
// traced retire fold and benchmark/src/host.cpp's host block). No file
// under src/ includes this header; every hot formula of the library lives
// once, in its only caller. These three leave with ROADMAP item 4, which
// deletes the benchmark's replica of the fleet loop.
//
// Each row is the exact scalar expression of the helper it batches, so a
// row and a per-element loop give the same bits: chunk_quality_row is
// qoe::chunk_quality (ternary min/max spells out std::max's operand order),
// and sum_row folds strictly left to right, the order every aggregate is
// pinned to. tests/test_kernels.cpp checks both.
#pragma once

#include <cmath>
#include <cstddef>

namespace sensei::util {

// The kernel implementation the rows run on, recorded in the benchmark's
// host blocks. There is one: the scalar rows below.
inline const char* kernel_backend_name() { return "scalar"; }

namespace kernels {

// Elementwise qoe::chunk_quality over parallel arrays:
//   pen    = stall[i] <= 0 ? 0 : stall[i] / (1 + sat * stall[i])
//   out[i] = max(floor, vq[i] - br * pen - bsw * |vq[i] - prev_vq[i]|)
inline void chunk_quality_row(const double* vq, const double* stall,
                              const double* prev_vq, size_t n, double br, double sat,
                              double bsw, double floor, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double s = stall[i];
    const double pen = s <= 0.0 ? 0.0 : s / (1.0 + sat * s);
    const double q = vq[i] - br * pen - bsw * std::fabs(vq[i] - prev_vq[i]);
    out[i] = floor < q ? q : floor;
  }
}

// Sequential left-to-right sum (the aggregate folds' pinned order).
inline double sum_row(const double* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

}  // namespace kernels
}  // namespace sensei::util
