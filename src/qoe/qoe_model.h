// Common interface of all QoE models evaluated in the paper (§2.1, §7.3).
//
// A QoE model maps a rendered video to a predicted QoE in [0, 1]. Trainable
// models fit themselves to (rendered video, MOS) pairs, mirroring how the
// paper retrains the open-source baselines on its own dataset (§2.2).
#pragma once

#include <string>
#include <vector>

#include "sim/render.h"

namespace sensei::qoe {

class QoeModel {
 public:
  virtual ~QoeModel() = default;
  virtual std::string name() const = 0;

  // Predicted QoE in [0, 1].
  virtual double predict(const sim::RenderedVideo& video) const = 0;

  // Fits the model to ground-truth MOS values; default is non-trainable.
  // Trainable models throw std::invalid_argument when the two sizes differ.
  virtual void train(const std::vector<sim::RenderedVideo>& videos,
                     const std::vector<double>& mos) {
    (void)videos;
    (void)mos;
  }

  // Batch prediction helper.
  std::vector<double> predict_all(const std::vector<sim::RenderedVideo>& videos) const;
};

}  // namespace sensei::qoe
