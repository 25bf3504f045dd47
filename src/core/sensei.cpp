#include "core/sensei.h"

namespace sensei::core {

Sensei::Sensei(const crowd::GroundTruthQoE& oracle, crowd::SchedulerConfig scheduler_config,
               uint64_t seed)
    : oracle_(oracle), scheduler_config_(scheduler_config), seed_(seed) {}

ProfileOutput Sensei::profile(const media::EncodedVideo& video) const {
  crowd::Scheduler scheduler(oracle_, scheduler_config_, seed_);
  ProfileOutput out;
  out.profile = scheduler.profile(video);

  out.manifest.video_name = video.source().name();
  out.manifest.chunk_duration_s = video.chunk_duration_s();
  out.manifest.num_chunks = video.num_chunks();
  out.manifest.bitrates_kbps = video.ladder().levels_kbps();
  out.manifest.weights = out.profile.weights;
  return out;
}

}  // namespace sensei::core
