// Per-chunk quality contribution q(b, t) shared across the stack.
//
// This is the "simplified model of KSQI" the paper plugs into Fugu's
// objective (Eq. 3) and the q_i term of SENSEI's reweighted QoE (Eq. 2):
//   q_i = vq_i - beta_rebuf * pen(t_i) - beta_switch * |vq_i - vq_{i-1}|
// with a saturating stall penalty pen(t) = t / (1 + sat * t) reflecting the
// diminishing marginal annoyance of longer stalls, and a floor so one
// catastrophic chunk cannot dominate an entire session unboundedly.
//
// stall_penalty/chunk_quality are defined inline: the MPC planners evaluate
// them at every node of every lookahead, and the call must fold into the
// surrounding loop rather than cross a translation unit.
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/render.h"

namespace sensei::qoe {

struct ChunkQualityParams {
  double beta_rebuf = 1.1;   // stall penalty scale
  double rebuf_saturation = 0.30;
  double beta_switch = 0.40;  // smoothness penalty scale
  double floor = -0.5;        // per-chunk quality floor
};

// Saturating stall penalty.
inline double stall_penalty(double stall_s, const ChunkQualityParams& p = ChunkQualityParams()) {
  if (stall_s <= 0.0) return 0.0;
  return stall_s / (1.0 + p.rebuf_saturation * stall_s);
}

// Quality contribution of a chunk given its visual quality, the stall before
// it, and the previous chunk's visual quality (pass vq itself for chunk 0).
inline double chunk_quality(double visual_quality, double stall_s, double prev_visual_quality,
                            const ChunkQualityParams& p = ChunkQualityParams()) {
  double q = visual_quality - p.beta_rebuf * stall_penalty(stall_s, p) -
             p.beta_switch * std::abs(visual_quality - prev_visual_quality);
  return std::max(p.floor, q);
}

// Per-chunk qualities written into a caller-provided buffer (cleared
// first). Scoring paths call this once per prediction; reusing one buffer
// keeps them free of heap allocation (the scenarios_into precedent).
void chunk_qualities_into(const sim::RenderedVideo& video, const ChunkQualityParams& p,
                          std::vector<double>& out);

// Reusable per-chunk-quality workspace. QoE models and the weight-inference
// pipeline evaluate chunk-quality vectors once per rendering scored; holding
// one cache per thread (or per batch loop) pins those evaluations to a
// single grow-only buffer instead of a fresh vector per call.
class ChunkQualityCache {
 public:
  // Computes q_i for `video` into the internal buffer and returns it. The
  // reference is invalidated by the next qualities() call on this cache.
  const std::vector<double>& qualities(const sim::RenderedVideo& video,
                                       const ChunkQualityParams& p) {
    chunk_qualities_into(video, p, q_);
    return q_;
  }

 private:
  std::vector<double> q_;
};

// The per-thread cache the scoring paths share. QoE models and the
// ground-truth oracle are process-wide objects scored concurrently by
// ExperimentRunner workers, so their reusable scratch lives per thread —
// and in one place, so every model on a thread grows the same buffer.
ChunkQualityCache& thread_local_chunk_quality_cache();

}  // namespace sensei::qoe
