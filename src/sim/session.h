// Streaming-session records produced by the player simulator.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "media/encoder.h"
#include "sim/render.h"

namespace sensei::sim {

class SessionTimeline;  // sim/timeline.h

// How a session ended. kOutage: a chunk's download could never complete —
// the link died (all-zero trace stretch with no recovery, or a finite
// trace exhausted mid-transfer) and the session truncates at that chunk.
enum class SessionOutcome { kCompleted, kOutage };

// Why it ended that way — the typed cause behind the coarse outcome.
// kCompleted sessions carry kNone (watched to the end) or kAbandoned (the
// viewer left early by script — fleet workloads' abandon_fraction). kOutage
// sessions carry kDeadLink (the link can never deliver the chunk and no
// retry budget remains untried) or kTimeoutBudget (every attempt timed out
// and the bounded-retry budget is exhausted).
enum class OutcomeCause { kNone, kAbandoned, kDeadLink, kTimeoutBudget };

const char* to_string(OutcomeCause cause);

struct ChunkRecord {
  size_t index = 0;
  size_t level = 0;
  double bitrate_kbps = 0.0;
  double size_bytes = 0.0;
  double download_start_s = 0.0;   // wall clock when the download began
  double download_time_s = 0.0;    // includes RTT
  double rebuffer_s = 0.0;         // total stall before this chunk plays
  double scheduled_rebuffer_s = 0.0;  // portion deliberately initiated by ABR
  double buffer_after_s = 0.0;     // buffer level right after the chunk arrives
  double visual_quality = 0.0;
};

class SessionResult {
 public:
  SessionResult() = default;
  SessionResult(std::string video_name, std::string trace_name, double chunk_duration_s,
                std::vector<ChunkRecord> chunks, double startup_delay_s);

  const std::string& video_name() const { return video_name_; }
  const std::string& trace_name() const { return trace_name_; }
  const std::vector<ChunkRecord>& chunks() const { return chunks_; }
  double startup_delay_s() const { return startup_delay_s_; }
  double chunk_duration_s() const { return chunk_duration_s_; }

  double total_rebuffer_s() const;
  double rebuffer_ratio() const;  // stall time / (stall + playback)
  double mean_bitrate_kbps() const;
  size_t switch_count() const;
  double total_bytes() const;
  double mean_visual_quality() const;

  // Converts the session into the rendered video the viewer saw, for rating
  // by the ground-truth oracle / QoE models.
  RenderedVideo to_rendered(const media::EncodedVideo& video) const;

  // --- exact trajectory (timeline engine) ---------------------------------

  // kOutage when the session was cut short by a dead link; the surviving
  // chunk records cover everything downloaded before the outage.
  SessionOutcome outcome() const { return outcome_; }
  void set_outcome(SessionOutcome outcome, OutcomeCause cause, size_t failed_chunk) {
    outcome_ = outcome;
    outcome_cause_ = cause;
    failed_chunk_ = failed_chunk;
  }

  // Typed cause, and the chunk index where the session stopped: the chunk
  // that failed (outage), the first chunk never requested (abandoned), or
  // the chunk count (watched to the end).
  OutcomeCause outcome_cause() const { return outcome_cause_; }
  size_t failed_chunk() const { return failed_chunk_; }

  // The full playhead/buffer trajectory, when the session was produced by
  // the timeline engine (nullptr from the legacy test oracle). Shared so
  // copying grid results stays cheap.
  const SessionTimeline* timeline() const { return timeline_.get(); }
  void set_timeline(std::shared_ptr<const SessionTimeline> timeline) {
    timeline_ = std::move(timeline);
  }

 private:
  std::string video_name_;
  std::string trace_name_;
  double chunk_duration_s_ = 4.0;
  std::vector<ChunkRecord> chunks_;
  double startup_delay_s_ = 0.0;
  SessionOutcome outcome_ = SessionOutcome::kCompleted;
  OutcomeCause outcome_cause_ = OutcomeCause::kNone;
  size_t failed_chunk_ = 0;
  std::shared_ptr<const SessionTimeline> timeline_;
};

}  // namespace sensei::sim
