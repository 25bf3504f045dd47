// Batched row kernels for the hot inner loops.
//
// The planners, the Whittle index, the scenario generators, and the fleet
// aggregate fold all spend their time in the same half-dozen rows:
// download times (a divide per scenario), post-step buffer/stall dynamics
// (two selects and a clamp), the saturating chunk-quality expression, and
// the per-rung index map. This header exposes each of those rows as one
// inline scalar loop over structure-of-arrays inputs: the win is the
// layout and one call per row instead of one call per element.
//
// Each row is the exact scalar expression of the helper it batches
// (qoe::chunk_quality, WhittleIndexAbr::level_index,
// the planners' buffer dynamics, net::triangular_scenarios), so swapping a
// per-element loop for a row changes no bits; tests/test_kernels.cpp pins
// every row against its helper. Ternary min/max spells out the exact
// std::min/std::max operand order (and with it their NaN and +/-0
// semantics). Multiply-then-add stays two rounded operations. Reductions
// (sums, argmax) fold strictly left to right, the order every aggregate
// and determinism row is pinned to.
#pragma once

#include <cmath>
#include <cstddef>

namespace sensei::util {

// The kernel implementation the rows run on, recorded in bench JSON config
// and host blocks. There is one: the scalar rows below.
inline const char* kernel_backend_name() { return "scalar"; }

namespace kernels {

// --- elementwise rows ----------------------------------------------------

// out[i] = num / max(den_floor, den[i]) + add
// The planner download-time row: bits_kb / clamped-kbps + RTT.
inline void div_add_row(double num, const double* den, size_t n, double den_floor,
                        double add, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double d = den_floor < den[i] ? den[i] : den_floor;  // max(den_floor, den)
    out[i] = num / d + add;
  }
}

// out[i] = x[i] / den  (probability normalization; `out` may alias `x`)
inline void div_scalar_row(const double* x, size_t n, double den, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] / den;
}

// Post-step buffer dynamics across scenarios, branchless:
//   over      = dl[i] > buffer_s
//   stall     = (over ? dl[i] - buffer_s : 0) + extra_s
//   b         = (over ? 0 : buffer_s - dl[i]) + extra_s
//   buf_out   = min(b + tau_s, cap_s)
//   stall_out = stall
// `extra_s` folds the planners' scheduled-rebuffer branch: callers pass the
// scheduled stall when it is > 0, else 0.0 (adding 0.0 is exact here —
// both addends are guaranteed non-negative).
inline void step_buffer_stall_row(double buffer_s, const double* dl, size_t n,
                                  double extra_s, double tau_s, double cap_s,
                                  double* buf_out, double* stall_out) {
  for (size_t i = 0; i < n; ++i) {
    const double d = dl[i];
    const bool over = d > buffer_s;
    const double stall = (over ? d - buffer_s : 0.0) + extra_s;
    double b = (over ? 0.0 : buffer_s - d) + extra_s;
    b += tau_s;
    buf_out[i] = cap_s < b ? cap_s : b;  // min(b, cap)
    stall_out[i] = stall;
  }
}

// The planner's per-scenario chunk-quality select:
//   out[i] = stall[i] > 0
//              ? max(floor, vq - br * (stall[i] / (1 + sat * stall[i]))
//                            - bsw * |vq - prev_vq|)
//              : nostall_q
// (the `stall > 0 ? chunk_quality(...) : qn` fold of ViPlanner/DpPlanner).
inline void chunk_quality_stall_row(double vq, double prev_vq, double nostall_q,
                                    const double* stall, size_t n, double br, double sat,
                                    double bsw, double floor, double* out) {
  const double kq = bsw * std::fabs(vq - prev_vq);
  for (size_t i = 0; i < n; ++i) {
    const double s = stall[i];
    const double pen = s / (1.0 + sat * s);
    double q = vq - br * pen - kq;
    q = floor < q ? q : floor;  // max(floor, q)
    out[i] = s > 0.0 ? q : nostall_q;
  }
}

// General elementwise qoe::chunk_quality over parallel arrays:
//   pen    = stall[i] <= 0 ? 0 : stall[i] / (1 + sat * stall[i])
//   out[i] = max(floor, vq[i] - br * pen - bsw * |vq[i] - prev_vq[i]|)
// The fleet retire() per-record fold uses this with prev_vq = vq shifted
// by one record.
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

// No-stall chunk quality, visual quality varying (root_qn_ rows):
//   out[i] = max(floor, vq[i] - bsw * |vq[i] - prev_vq|)
inline void chunk_quality_nostall_row(const double* vq, size_t n, double prev_vq,
                                      double bsw, double floor, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double q = vq[i] - bsw * std::fabs(vq[i] - prev_vq);
    out[i] = floor < q ? q : floor;
  }
}

// No-stall chunk quality, previous level varying (the PlanBatch qn table's
// contiguous axis): out[i] = max(floor, vq - bsw * |vq - prev_vq[i]|)
inline void chunk_quality_nostall_prev_row(double vq, const double* prev_vq, size_t n,
                                           double bsw, double floor, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double q = vq - bsw * std::fabs(vq - prev_vq[i]);
    out[i] = floor < q ? q : floor;
  }
}

// The DAS-IP Whittle index of every rung in one call (abr/whittle.h):
//   dl     = (size_bytes[i] * 8) / den        (den = budget_kbps * 1000)
//   unc    = max(0, dl - buffer_s)
//   pen    = unc <= 0 ? 0 : unc / (1 + sat * unc)
//   short  = max(0, headroom * dl - (buffer_s - dl))
//   out[i] = vq[i] - bsw * |vq[i] - prev_vq[i]| - br * pen - drain * short
inline void whittle_index_row(const double* size_bytes, const double* vq,
                              const double* prev_vq, size_t n, double den,
                              double buffer_s, double headroom, double drain, double br,
                              double sat, double bsw, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dl = (size_bytes[i] * 8.0) / den;
    const double ad = std::fabs(vq[i] - prev_vq[i]);
    const double unc_raw = dl - buffer_s;
    const double unc = 0.0 < unc_raw ? unc_raw : 0.0;  // max(0, .)
    const double pen = unc <= 0.0 ? 0.0 : unc / (1.0 + sat * unc);
    const double short_raw = headroom * dl - (buffer_s - dl);
    const double shortfall = 0.0 < short_raw ? short_raw : 0.0;
    out[i] = vq[i] - bsw * ad - br * pen - drain * shortfall;
  }
}

// The triangular scenario fan (net::triangular_scenarios), probabilities
// unnormalized (callers fold with sum_row + div_scalar_row):
//   pos     = count == 1 ? 0 : -1 + 2 * i / (count - 1)
//   prob[i] = 1 + (1 - |pos|)
//   kbps[i] = max(floor_kbps, center * (1 + cv * pos))
inline void triangular_fan(size_t count, double center, double cv, double floor_kbps,
                           double* kbps, double* prob) {
  const double span = count > 1 ? static_cast<double>(count - 1) : 1.0;
  for (size_t i = 0; i < count; ++i) {
    const double pos = count == 1 ? 0.0 : -1.0 + 2.0 * static_cast<double>(i) / span;
    const double p = 1.0 + (1.0 - std::fabs(pos));
    const double k = center * (1.0 + cv * pos);
    kbps[i] = floor_kbps < k ? k : floor_kbps;  // max(floor_kbps, k)
    prob[i] = p;
  }
}

// --- order-pinned reductions and transcendental maps ---------------------

// Sequential left-to-right sum (the aggregate folds' pinned order).
inline double sum_row(const double* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

// First index attaining the strict maximum, scanning from index 0 — the
// planners' and the Whittle policy's argmax semantics, evaluated
// branchlessly. Ties keep the lowest index. A NaN after index 0 never wins
// (no comparison with it is true), but a NaN at index 0 is returned: no
// x[i] > NaN holds, so nothing ever replaces it. n == 0 returns 0.
inline size_t argmax_strict_row(const double* x, size_t n) {
  if (n == 0) return 0;
  size_t best = 0;
  double best_v = x[0];
  for (size_t i = 1; i < n; ++i) {
    const bool gt = x[i] > best_v;
    best_v = gt ? x[i] : best_v;
    best = gt ? i : best;
  }
  return best;
}

}  // namespace kernels
}  // namespace sensei::util
