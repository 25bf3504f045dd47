// The additive QoE model of KSQI (Duanmu et al.) and SENSEI's reweighting
// of it (paper Eqs. 1 and 2), one class:
//
//   Q = sum_i w_i * q_i / sum_i w_i
//
// where q_i comes from the shared chunk-quality model and w_i is the
// inferred sensitivity weight of chunk i, minus a startup-delay term, passed
// through a trainable affine calibration (fit by OLS against MOS). The
// original KSQI combines VMAF, rebuffering and quality-switch terms in a
// knowledge-constrained linear model; ours is additive over chunks.
//
// With no weights every w_i is 1 and Q is the plain mean of Eq. 1: the
// position-agnostic KSQI that SENSEI's reweighting fixes, bit for bit (the
// sum of 1 * q_i is the sum of q_i, and the sum of ones is the count). The
// crowdsourced weights (src/crowd) are normalized to mean 1, so an all-ones
// vector gives the same scores.
#pragma once

#include <string>
#include <vector>

#include "qoe/chunk_quality.h"
#include "qoe/qoe_model.h"

namespace sensei::qoe {

class SenseiQoeModel : public QoeModel {
 public:
  // Empty `weights` is KSQI.
  explicit SenseiQoeModel(std::vector<double> weights = {},
                          ChunkQualityParams params = ChunkQualityParams());

  std::string name() const override { return weights_.empty() ? "KSQI" : "SENSEI"; }
  double predict(const sim::RenderedVideo& video) const override;

  // Affine calibration against MOS, like the other trainable models.
  void train(const std::vector<sim::RenderedVideo>& videos,
             const std::vector<double>& mos) override;

  // Weighted mean of per-chunk qualities before affine calibration.
  double raw_score(const sim::RenderedVideo& video) const;

  const std::vector<double>& weights() const { return weights_; }
  double scale() const { return scale_; }
  double offset() const { return offset_; }

 private:
  std::vector<double> weights_;
  ChunkQualityParams params_;
  double scale_ = 1.0;
  double offset_ = 0.0;
  double startup_weight_ = 0.05;
};

}  // namespace sensei::qoe
