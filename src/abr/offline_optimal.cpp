#include "abr/offline_optimal.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sensei::abr {

namespace {

struct DpContext {
  const media::EncodedVideo* video = nullptr;
  // Cursor over the trace's cumulative-capacity index: every DP node's
  // download-time probe locates its finishing interval by warm-started
  // binary search instead of an O(n) interval walk.
  net::TraceCursor link;
  const std::vector<double>* weights = nullptr;
  const OfflineConfig* config = nullptr;
  size_t n = 0;            // chunks
  size_t levels = 0;
  size_t time_buckets = 0;
  size_t buffer_buckets = 0;
  double tau = 4.0;

  // Memo tables (value function, best action, download-time cache) live in
  // the caller-provided scratch so repeated plans reuse one allocation.
  // Indexing: ((chunk * time_buckets + t) * buffer_buckets + b) * levels +
  // last_level for states; (chunk * levels + level) * time_buckets + t for
  // the download cache.
  OfflineScratch* s = nullptr;

  size_t state_index(size_t chunk, size_t t, size_t b, size_t last) const {
    return ((chunk * time_buckets + t) * buffer_buckets + b) * levels + last;
  }

  double download_time(size_t chunk, size_t level, size_t t_bucket) {
    size_t idx = (chunk * levels + level) * time_buckets + t_bucket;
    if (!s->dl_cached[idx]) {
      double t = static_cast<double>(t_bucket) * config->time_quantum_s;
      s->dl_cache[idx] = static_cast<float>(
          link.download_time_s(video->size_bytes(chunk, level), t));
      s->dl_cached[idx] = 1;
    }
    return s->dl_cache[idx];
  }

  size_t clamp_time(double t) const {
    // An outage upstream yields t = +inf; lround(inf) is unspecified, so
    // pin it to the horizon's last bucket explicitly.
    if (!std::isfinite(t)) return time_buckets - 1;
    auto bucket = static_cast<long>(std::lround(t / config->time_quantum_s));
    if (bucket < 0) bucket = 0;
    if (bucket >= static_cast<long>(time_buckets)) bucket = static_cast<long>(time_buckets) - 1;
    return static_cast<size_t>(bucket);
  }

  size_t clamp_buffer(double b) const {
    auto bucket = static_cast<long>(std::lround(b / config->buffer_quantum_s));
    if (bucket < 0) bucket = 0;
    if (bucket >= static_cast<long>(buffer_buckets))
      bucket = static_cast<long>(buffer_buckets) - 1;
    return static_cast<size_t>(bucket);
  }
};

double solve(DpContext& ctx, size_t chunk, size_t t_bucket, size_t b_bucket, size_t last) {
  if (chunk >= ctx.n) return 0.0;
  size_t idx = ctx.state_index(chunk, t_bucket, b_bucket, last);
  if (ctx.s->visited[idx]) return ctx.s->value[idx];

  const OfflineConfig& cfg = *ctx.config;
  const size_t stall_count = cfg.rebuffer_options.size();
  double buffer = static_cast<double>(b_bucket) * cfg.buffer_quantum_s;
  double prev_vq = chunk > 0 ? ctx.video->visual_quality(chunk - 1, last)
                             : ctx.video->visual_quality(0, 0);
  double w = chunk < ctx.weights->size() ? (*ctx.weights)[chunk] : 1.0;

  double best = -1e30;
  uint16_t best_act = 0;
  for (size_t level = 0; level < ctx.levels; ++level) {
    double dl = ctx.download_time(chunk, level, t_bucket);
    double vq = ctx.video->visual_quality(chunk, level);
    for (size_t si = 0; si < stall_count; ++si) {
      // The first chunk's download is startup, not a stall; scheduled stalls
      // are pointless there.
      double scheduled = chunk == 0 ? 0.0 : cfg.rebuffer_options[si];
      if (chunk == 0 && si > 0) continue;

      double t = static_cast<double>(t_bucket) * cfg.time_quantum_s + dl;
      double buf = buffer;
      double stall = 0.0;
      if (chunk == 0) {
        buf = ctx.tau;
      } else {
        if (dl > buf) {
          stall = dl - buf;
          buf = 0.0;
        } else {
          buf -= dl;
        }
        if (scheduled > 0.0) {
          buf += scheduled;
          stall += scheduled;
        }
        buf += ctx.tau;
      }
      if (buf > cfg.max_buffer_s) {
        t += buf - cfg.max_buffer_s;
        buf = cfg.max_buffer_s;
      }

      double q = qoe::chunk_quality(vq, stall, chunk == 0 ? vq : prev_vq, cfg.chunk);
      double value = w * q + solve(ctx, chunk + 1, ctx.clamp_time(t), ctx.clamp_buffer(buf),
                                   level);
      if (value > best) {
        best = value;
        best_act = static_cast<uint16_t>(level * stall_count + si);
      }
    }
  }

  ctx.s->value[idx] = static_cast<float>(best);
  ctx.s->best_action[idx] = best_act;
  ctx.s->visited[idx] = 1;
  return best;
}

}  // namespace

sim::SessionResult plan_offline(const media::EncodedVideo& video,
                                const net::ThroughputTrace& trace,
                                const std::vector<double>& weights,
                                const OfflineConfig& config) {
  OfflineScratch scratch;
  return plan_offline(video, trace, weights, config, scratch);
}

sim::SessionResult plan_offline(const media::EncodedVideo& video,
                                const net::ThroughputTrace& trace,
                                const std::vector<double>& weights,
                                const OfflineConfig& config, OfflineScratch& scratch) {
  if (video.num_chunks() == 0) throw std::runtime_error("offline: empty video");
  if (config.rebuffer_options.empty() || config.rebuffer_options[0] != 0.0)
    throw std::runtime_error("offline: rebuffer options must start with 0");

  DpContext ctx;
  ctx.s = &scratch;
  ctx.video = &video;
  ctx.link = net::TraceCursor(trace);
  ctx.weights = &weights;
  ctx.config = &config;
  ctx.n = video.num_chunks();
  ctx.levels = video.ladder().level_count();
  ctx.tau = video.chunk_duration_s();
  double max_time = video.source().duration_s() + config.horizon_slack_s;
  ctx.time_buckets = static_cast<size_t>(max_time / config.time_quantum_s) + 2;
  ctx.buffer_buckets = static_cast<size_t>(config.max_buffer_s / config.buffer_quantum_s) + 2;

  // assign() keeps capacity: with a shared scratch, repeat plans of
  // same-shaped sessions allocate nothing.
  size_t states = ctx.n * ctx.time_buckets * ctx.buffer_buckets * ctx.levels;
  scratch.value.assign(states, 0.0f);
  scratch.visited.assign(states, 0);
  scratch.best_action.assign(states, 0);
  scratch.dl_cache.assign(ctx.n * ctx.levels * ctx.time_buckets, 0.0f);
  scratch.dl_cached.assign(ctx.n * ctx.levels * ctx.time_buckets, 0);

  solve(ctx, 0, 0, 0, 0);

  // Replay the optimal policy exactly (continuous dynamics, quantized lookup).
  const size_t stall_count = config.rebuffer_options.size();
  double t = 0.0, buffer = 0.0, startup = 0.0;
  size_t last = 0;
  std::vector<sim::ChunkRecord> records;
  records.reserve(ctx.n);
  for (size_t chunk = 0; chunk < ctx.n; ++chunk) {
    size_t t_bucket = ctx.clamp_time(t);
    size_t b_bucket = ctx.clamp_buffer(buffer);
    // The continuous replay can drift off the quantized grid into states the
    // backward pass never reached; solve them on demand.
    solve(ctx, chunk, t_bucket, b_bucket, last);
    size_t idx = ctx.state_index(chunk, t_bucket, b_bucket, last);
    uint16_t act = ctx.s->best_action[idx];
    size_t level = act / stall_count;
    double scheduled = chunk == 0 ? 0.0 : config.rebuffer_options[act % stall_count];

    sim::ChunkRecord rec;
    rec.index = chunk;
    rec.level = level;
    const auto& rep = video.rep(chunk, level);
    rec.bitrate_kbps = rep.bitrate_kbps;
    rec.size_bytes = rep.size_bytes;
    rec.visual_quality = rep.visual_quality;
    rec.download_start_s = t;

    double dl = ctx.link.download_time_s(rep.size_bytes, t);
    if (!std::isfinite(dl)) {
      // The link died mid-plan: truncate like the player does and surface
      // the outage instead of accumulating infinite wall clocks.
      sim::SessionResult truncated(video.source().name(), trace.name() + "-offline", ctx.tau,
                                   std::move(records), startup);
      truncated.set_outcome(sim::SessionOutcome::kOutage, sim::OutcomeCause::kDeadLink,
                            truncated.chunks().size());
      return truncated;
    }
    rec.download_time_s = dl;
    t += dl;
    double stall = 0.0;
    if (chunk == 0) {
      startup = dl;
      buffer = ctx.tau;
    } else {
      if (dl > buffer) {
        stall = dl - buffer;
        buffer = 0.0;
      } else {
        buffer -= dl;
      }
      if (scheduled > 0.0) {
        buffer += scheduled;
        stall += scheduled;
      }
      buffer += ctx.tau;
    }
    if (buffer > config.max_buffer_s) {
      t += buffer - config.max_buffer_s;
      buffer = config.max_buffer_s;
    }
    rec.rebuffer_s = stall;
    rec.scheduled_rebuffer_s = chunk == 0 ? 0.0 : scheduled;
    rec.buffer_after_s = buffer;
    records.push_back(rec);
    last = level;
  }

  return sim::SessionResult(video.source().name(), trace.name() + "-offline", ctx.tau,
                            std::move(records), startup);
}

}  // namespace sensei::abr
