#include "oracles/legacy_player.h"

#include <algorithm>
#include <stdexcept>

namespace sensei::oracles {

sim::SessionResult stream_legacy(const sim::PlayerConfig& config,
                                 const media::EncodedVideo& video,
                                 const net::ThroughputTrace& trace, sim::AbrPolicy& policy,
                                 const std::vector<double>& weights) {
  if (config.max_buffer_s <= 0.0) throw std::runtime_error("player: max buffer must be > 0");
  if (video.num_chunks() == 0) throw std::runtime_error("player: empty video");
  if (!weights.empty() && weights.size() != video.num_chunks())
    throw std::runtime_error("player: weight vector size mismatch");

  policy.begin_session(video);

  const double tau = video.chunk_duration_s();
  const size_t n = video.num_chunks();
  const size_t levels = video.ladder().level_count();

  double wall_clock_s = 0.0;
  double buffer_s = 0.0;
  double startup_delay_s = 0.0;
  size_t last_level = 0;
  double last_throughput = 0.0;
  double last_download_time = 0.0;

  std::vector<sim::ChunkRecord> records;
  records.reserve(n);

  // Shares the timeline engine's allocation discipline: one cursor over the
  // trace index and one observation refilled in place.
  net::TraceCursor link(trace);
  sim::AbrObservation obs;
  obs.num_chunks = n;
  obs.video = &video;

  for (size_t i = 0; i < n; ++i) {
    obs.next_chunk = i;
    obs.buffer_s = buffer_s;
    obs.last_level = last_level;
    obs.last_throughput_kbps = last_throughput;
    obs.last_download_time_s = last_download_time;
    if (!weights.empty()) obs.future_weights = {weights.data() + i, n - i};

    sim::AbrDecision decision = policy.decide(obs);
    if (decision.level >= levels) decision.level = levels - 1;
    double scheduled = std::max(0.0, decision.scheduled_rebuffer_s);

    sim::ChunkRecord rec;
    rec.index = i;
    rec.level = decision.level;
    const auto& rep = video.rep(i, decision.level);
    rec.bitrate_kbps = rep.bitrate_kbps;
    rec.size_bytes = rep.size_bytes;
    rec.visual_quality = rep.visual_quality;
    rec.download_start_s = wall_clock_s;

    double dl = link.download_time_s(rep.size_bytes, wall_clock_s, config.rtt_s);
    rec.download_time_s = dl;
    wall_clock_s += dl;

    double stall = 0.0;
    if (i == 0) {
      // Startup: the first chunk's download is join latency, not a stall.
      startup_delay_s = dl + scheduled;
      buffer_s = tau;
    } else {
      // Buffer drains while downloading.
      if (dl > buffer_s) {
        stall = dl - buffer_s;
        buffer_s = 0.0;
      } else {
        buffer_s -= dl;
      }
      // Scheduled pause: playback halts, downloads continue — the buffer is
      // credited with the pause and the pause is charged as a stall.
      if (scheduled > 0.0) {
        buffer_s += scheduled;
        stall += scheduled;
      }
      buffer_s += tau;
    }
    rec.scheduled_rebuffer_s = (i == 0) ? 0.0 : scheduled;
    rec.rebuffer_s = stall;

    // Buffer cap: the client idles (wall clock advances, buffer drains by the
    // same amount) until there is room for the next chunk.
    if (buffer_s > config.max_buffer_s) {
      double idle = buffer_s - config.max_buffer_s;
      wall_clock_s += idle;
      buffer_s = config.max_buffer_s;
    }
    rec.buffer_after_s = buffer_s;

    last_throughput = dl > 0.0 ? rep.size_bytes * 8.0 / 1000.0 / dl : 0.0;
    last_download_time = dl;
    last_level = decision.level;

    records.push_back(rec);
  }

  return sim::SessionResult(video.source().name(), trace.name(), tau, std::move(records),
                            startup_delay_s);
}

}  // namespace sensei::oracles
