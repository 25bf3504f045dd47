#include "qoe/chunk_quality.h"

namespace sensei::qoe {

void chunk_qualities_into(const sim::RenderedVideo& video, const ChunkQualityParams& p,
                          std::vector<double>& out) {
  out.clear();
  out.reserve(video.num_chunks());
  for (size_t i = 0; i < video.num_chunks(); ++i) {
    const auto& c = video.chunk(i);
    double prev_vq = i > 0 ? video.chunk(i - 1).visual_quality : c.visual_quality;
    out.push_back(chunk_quality(c.visual_quality, c.rebuffer_s, prev_vq, p));
  }
}

ChunkQualityCache& thread_local_chunk_quality_cache() {
  static thread_local ChunkQualityCache cache;
  return cache;
}

}  // namespace sensei::qoe
