#include "media/encoder.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"
#include "util/stats.h"

namespace sensei::media {

const EncodedVideo::Payload& EncodedVideo::no_payload() {
  static const Payload kNone;
  return kNone;
}

void EncodedVideo::throw_out_of_range(size_t chunk, size_t level) {
  throw std::out_of_range("encoded video: no rep at chunk " + std::to_string(chunk) +
                          ", level " + std::to_string(level));
}

Encoder::Encoder(BitrateLadder ladder) : ladder_(std::move(ladder)) {}

double Encoder::visual_quality(double bitrate_kbps, double complexity) {
  // Saturating rate-quality curve: q = 1 - exp(-r / r0), where the reference
  // rate r0 grows with complexity. Calibrated so the paper's ladder spans
  // roughly [0.35, 0.97] for a mid-complexity chunk.
  double r0 = 550.0 + 1450.0 * complexity;
  double q = 1.0 - std::exp(-bitrate_kbps / r0);
  return util::clamp(q, 0.0, 1.0);
}

EncodedVideo Encoder::encode(const SourceVideo& video) const {
  util::Rng rng = util::Rng::from_string(video.name(), 0xE2C0DE);
  auto payload = std::make_shared<EncodedVideo::Payload>();
  payload->source = video;
  payload->ladder = ladder_;
  payload->reps.reserve(video.num_chunks() * ladder_.level_count());
  const double tau = video.chunk_duration_s();

  for (size_t i = 0; i < video.num_chunks(); ++i) {
    const ChunkContent& content = video.chunk(i);
    // VBR factor: high-motion chunks overshoot the target bitrate, static
    // chunks undershoot. One draw per chunk shared across levels, as a real
    // encoder's rate control correlates across the ladder.
    double vbr = 1.0 + 0.25 * (content.motion - 0.5) + rng.normal(0.0, 0.06);
    vbr = util::clamp(vbr, 0.6, 1.5);

    for (size_t l = 0; l < ladder_.level_count(); ++l) {
      EncodedChunk ec;
      ec.bitrate_kbps = ladder_.kbps(l);
      ec.size_bytes = ec.bitrate_kbps * 1000.0 / 8.0 * tau * vbr;
      ec.visual_quality = visual_quality(ec.bitrate_kbps, content.complexity);
      payload->reps.push_back(ec);
    }
  }
  return EncodedVideo(std::move(payload));
}

}  // namespace sensei::media
