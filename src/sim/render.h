// Rendered videos: what a viewer actually watches.
//
// A rendered video fixes, per chunk, the bitrate level played and any stall
// immediately preceding the chunk, plus the initial startup delay. It is the
// common currency between the streaming simulator (which produces one from a
// session), the crowdsourcing substrate (raters rate rendered videos), and
// the QoE models (which predict a score for one).
//
// §2.3's "video series" — the same source content with a single low-quality
// incident injected at varying positions — are built with the with_*
// factories below.
#pragma once

#include <string>
#include <vector>

#include "media/encoder.h"

namespace sensei::sim {

struct RenderedChunk {
  size_t level = 0;
  double bitrate_kbps = 0.0;
  double visual_quality = 0.0;
  double rebuffer_s = 0.0;  // stall immediately before this chunk plays
};

class RenderedVideo {
 public:
  RenderedVideo() = default;
  RenderedVideo(std::string name, double chunk_duration_s,
                std::vector<RenderedChunk> chunks,
                std::vector<media::ChunkContent> content, double startup_delay_s = 0.0);

  // The source at its highest bitrate with no stalls (the "reference" video
  // used both as a series baseline and for rater calibration).
  static RenderedVideo pristine(const media::EncodedVideo& video, const std::string& name = "");

  // Copies of this rendering with one injected incident (series factories).
  RenderedVideo with_rebuffering(size_t chunk, double seconds) const;
  RenderedVideo with_bitrate_drop(size_t first_chunk, size_t num_chunks, size_t level,
                                  const media::EncodedVideo& video) const;
  RenderedVideo with_startup_delay(double seconds) const;

  const std::string& name() const { return name_; }
  double chunk_duration_s() const { return chunk_duration_s_; }
  size_t num_chunks() const { return chunks_.size(); }
  const RenderedChunk& chunk(size_t i) const { return chunks_.at(i); }
  const std::vector<RenderedChunk>& chunks() const { return chunks_; }
  const media::ChunkContent& content(size_t i) const { return content_.at(i); }
  const std::vector<media::ChunkContent>& content() const { return content_; }
  double startup_delay_s() const { return startup_delay_s_; }

  double total_rebuffer_s() const;
  double playback_duration_s() const;
  double mean_bitrate_kbps() const;
  // Number of adjacent chunk pairs with different levels.
  size_t switch_count() const;
  // Sum over |vq_i - vq_{i-1}| (smoothness penalty input).
  double total_quality_switch_magnitude() const;

 private:
  std::string name_;
  double chunk_duration_s_ = 4.0;
  std::vector<RenderedChunk> chunks_;
  std::vector<media::ChunkContent> content_;
  double startup_delay_s_ = 0.0;
};

// Builds the §2.3 video series: one rendering per chunk position, each with a
// single incident at that position.
std::vector<RenderedVideo> rebuffer_series(const media::EncodedVideo& video, double seconds);
std::vector<RenderedVideo> bitrate_drop_series(const media::EncodedVideo& video,
                                               size_t drop_level, size_t drop_chunks);

}  // namespace sensei::sim
