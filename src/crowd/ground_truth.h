// Ground-truth user QoE oracle — the stand-in for real viewers.
//
// Substitution rationale (README.md, "Substitutions and fidelity"): the
// paper's experiments only consume MOS values; what matters is that the
// latent rating process (a) weights incidents by the content's hidden
// per-chunk sensitivity, (b) is largely agnostic to incident type given
// position (§2.3), and (c) is *not* exactly representable by SENSEI's
// linear model class, so model accuracies stay realistic rather than
// saturating at 1.0.
//
// The oracle scores a rendered video as a blend of
//   M: the sensitivity-weighted mean of per-chunk qualities, and
//   W: an attention-discounted "worst memory" — the peak-end effect:
//        W = min_i (1 - s_i * (1 - q_i))
//      A ruined chunk (low q_i) craters W only when the viewer was paying
//      attention (high s_i); low quality during a boring stretch is barely
//      remembered. This keeps single-incident MOS drops large even in long
//      videos (as the paper's Figures 1/3 show) without diluting with length.
// minus a small startup term:  Q = mu*M + (1-mu)*W - st.
//
// The per-chunk quality q_i reuses qoe::chunk_quality, so incident type only
// enters through a scalar penalty — making sensitivity rankings
// incident-agnostic by construction, with rater noise added on top by the
// campaign simulator.
#pragma once

#include "qoe/chunk_quality.h"
#include "sim/render.h"

namespace sensei::crowd {

struct GroundTruthParams {
  qoe::ChunkQualityParams chunk;   // shared chunk-quality shape
  double mean_weight = 0.85;       // mu: blend of mean vs worst-memory
  double startup_weight = 0.04;
};

class GroundTruthQoE {
 public:
  explicit GroundTruthQoE(GroundTruthParams params = GroundTruthParams());

  // True QoE in [0, 1] for a rendered video (deterministic; rater noise is
  // layered on by RaterPool/Campaign).
  double score(const sim::RenderedVideo& video) const;

  // Components, exposed for tests.
  double weighted_mean(const sim::RenderedVideo& video) const;
  double worst_memory(const sim::RenderedVideo& video) const;

  const GroundTruthParams& params() const { return params_; }

 private:
  // Component math over an already-computed per-chunk quality vector:
  // score() evaluates the qualities once (into a per-thread reusable
  // buffer) and feeds both components, instead of each component
  // allocating and recomputing its own vector.
  double weighted_mean_of(const sim::RenderedVideo& video,
                          const std::vector<double>& q) const;
  double worst_memory_of(const sim::RenderedVideo& video,
                         const std::vector<double>& q) const;

  GroundTruthParams params_;
};

}  // namespace sensei::crowd
