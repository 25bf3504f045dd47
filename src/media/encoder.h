// Encoder substrate: turns a SourceVideo into per-chunk, per-bitrate encoded
// representations with (a) realistic VBR chunk sizes and (b) a visual-quality
// proxy standing in for VMAF/SSIM (the paper's pixel-based metrics).
//
// Visual quality follows a saturating log curve of bitrate, discounted by
// chunk complexity: complex (high-motion, high-detail) chunks need more bits
// for the same quality, matching rate-distortion behaviour of H.264.
#pragma once

#include <memory>
#include <vector>

#include "media/ladder.h"
#include "media/video.h"

namespace sensei::media {

struct EncodedChunk {
  double bitrate_kbps = 0.0;
  double size_bytes = 0.0;
  double visual_quality = 0.0;  // [0,1], VMAF-like proxy
};

// An encoded video: a handle over one immutable payload (the source, the
// ladder and the rep table), built once by Encoder::encode and shared by
// every copy, so copying a video copies a pointer. Nothing writes to a
// payload once encode() has built it, so copies held by different
// ExperimentRunner workers read it concurrently without synchronization;
// only the reference count is shared, and it is atomic. A default-
// constructed video has no payload: no chunks, and a default-constructed
// source and ladder.
class EncodedVideo {
 public:
  EncodedVideo() = default;

  const SourceVideo& source() const { return payload().source; }
  const BitrateLadder& ladder() const { return payload().ladder; }
  size_t num_chunks() const { return source().num_chunks(); }
  double chunk_duration_s() const { return source().chunk_duration_s(); }

  // Throws std::out_of_range past the last chunk or level.
  const EncodedChunk& rep(size_t chunk, size_t level) const {
    const Payload& p = payload();
    const size_t levels = p.ladder.level_count();
    if (chunk >= p.source.num_chunks() || level >= levels) throw_out_of_range(chunk, level);
    return p.reps[chunk * levels + level];
  }
  double size_bytes(size_t chunk, size_t level) const { return rep(chunk, level).size_bytes; }
  double visual_quality(size_t chunk, size_t level) const {
    return rep(chunk, level).visual_quality;
  }

 private:
  friend class Encoder;

  struct Payload {
    SourceVideo source;
    BitrateLadder ladder;
    std::vector<EncodedChunk> reps;  // [chunk * ladder.level_count() + level]
  };

  explicit EncodedVideo(std::shared_ptr<const Payload> payload) : payload_(std::move(payload)) {}

  const Payload& payload() const { return payload_ ? *payload_ : no_payload(); }
  // What a default-constructed video reads.
  static const Payload& no_payload();
  [[noreturn]] static void throw_out_of_range(size_t chunk, size_t level);

  std::shared_ptr<const Payload> payload_;
};

class Encoder {
 public:
  explicit Encoder(BitrateLadder ladder = BitrateLadder());

  // Deterministic in the source video's name.
  EncodedVideo encode(const SourceVideo& video) const;

  // The visual-quality proxy, exposed so QoE models can reuse the same curve.
  // bitrate in Kbps, complexity in [0,1]; returns [0,1].
  static double visual_quality(double bitrate_kbps, double complexity);

 private:
  BitrateLadder ladder_;
};

}  // namespace sensei::media
