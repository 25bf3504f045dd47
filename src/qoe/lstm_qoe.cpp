#include "qoe/lstm_qoe.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/stats.h"

namespace sensei::qoe {

LstmQoeModel::LstmQoeModel(size_t hidden_dim, int epochs, double lr, uint64_t seed)
    : hidden_dim_(hidden_dim), epochs_(epochs), lr_(lr), seed_(seed) {}

std::vector<std::vector<double>> LstmQoeModel::features(const sim::RenderedVideo& video) {
  std::vector<std::vector<double>> seq;
  seq.reserve(video.num_chunks());
  for (size_t i = 0; i < video.num_chunks(); ++i) {
    const auto& c = video.chunk(i);
    const auto& content = video.content(i);
    double prev_vq = i > 0 ? video.chunk(i - 1).visual_quality : c.visual_quality;
    seq.push_back({
        c.visual_quality,
        stall_penalty(c.rebuffer_s),
        std::abs(c.visual_quality - prev_vq),
        content.motion,      // "dynamicness" of the scene
        content.complexity,  // STRRED-like spatial signal
    });
  }
  return seq;
}

double LstmQoeModel::predict(const sim::RenderedVideo& video) const {
  if (!trained_) return 0.6;
  return util::clamp(lstm_.predict(features(video)), 0.0, 1.0);
}

void LstmQoeModel::train(const std::vector<sim::RenderedVideo>& videos,
                         const std::vector<double>& mos) {
  if (videos.size() != mos.size()) {
    throw std::invalid_argument("LstmQoeModel::train: " + std::to_string(videos.size()) +
                                " videos but " + std::to_string(mos.size()) + " MOS values");
  }
  if (videos.size() < 5) return;
  util::Rng rng(seed_);
  lstm_ = ml::LstmRegressor(5, hidden_dim_, rng);
  std::vector<std::vector<std::vector<double>>> sequences;
  sequences.reserve(videos.size());
  for (const auto& v : videos) sequences.push_back(features(v));
  lstm_.fit(sequences, mos, epochs_, lr_, rng);
  trained_ = true;
}

}  // namespace sensei::qoe
