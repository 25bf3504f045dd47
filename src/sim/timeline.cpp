#include "sim/timeline.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace sensei::sim {

const char* to_string(TimelineEventKind kind) {
  switch (kind) {
    case TimelineEventKind::kStartupWait: return "startup";
    case TimelineEventKind::kRttWait: return "rtt";
    case TimelineEventKind::kTransfer: return "transfer";
    case TimelineEventKind::kStall: return "stall";
    case TimelineEventKind::kScheduledPause: return "scheduled-pause";
    case TimelineEventKind::kIdle: return "idle";
    case TimelineEventKind::kRetryWait: return "retry-wait";
    case TimelineEventKind::kBackoff: return "backoff";
  }
  return "?";
}

SessionTimeline::SessionTimeline(double chunk_duration_s, double rtt_s)
    : chunk_duration_s_(chunk_duration_s), rtt_s_(rtt_s) {}

void SessionTimeline::mark_outage(size_t chunk, double wall_s) {
  outcome_ = SessionOutcome::kOutage;
  outage_chunk_ = chunk;
  outage_wall_s_ = wall_s;
}

double SessionTimeline::duration_s() const {
  if (chunks_.empty()) return 0.0;
  return chunks_.back().arrival_wall_s + chunks_.back().idle_s;
}

double SessionTimeline::total_stall_s() const {
  double total = 0.0;
  for (const auto& c : chunks_) total += c.stall_s + c.scheduled_pause_s;
  return total;
}

double SessionTimeline::total_unscheduled_stall_s() const {
  double total = 0.0;
  for (const auto& c : chunks_) total += c.stall_s;
  return total;
}

double SessionTimeline::total_scheduled_pause_s() const {
  double total = 0.0;
  for (const auto& c : chunks_) total += c.scheduled_pause_s;
  return total;
}

double SessionTimeline::total_idle_s() const {
  double total = 0.0;
  for (const auto& c : chunks_) total += c.idle_s;
  return total;
}

double SessionTimeline::first_stall_wall_s() const {
  for (const auto& c : chunks_) {
    if (c.stall_s > 0.0) return c.stall_start_wall_s;
  }
  return -1.0;
}

std::vector<TimelineEvent> SessionTimeline::events() const {
  std::vector<TimelineEvent> out;
  for (const auto& c : chunks_) {
    const bool first = c.chunk == 0;
    const double recovery_s = c.retry_wasted_s + c.backoff_s;
    // Buffer levels at the phase boundaries. Before startup completes the
    // buffer holds media but playback has not begun, so nothing drains.
    double post_recovery = first ? 0.0 : std::max(c.buffer_before_s - recovery_s, 0.0);
    double post_rtt = first ? 0.0 : std::max(c.buffer_before_s - (recovery_s + c.rtt_s), 0.0);
    double post_transfer =
        first ? 0.0
              : std::max(c.buffer_before_s - (recovery_s + c.rtt_s + c.transfer_s), 0.0);
    if (first) {
      out.push_back({TimelineEventKind::kStartupWait, c.chunk, c.request_wall_s,
                     startup_delay_s_, 0.0, 0.0});
    }
    // Recovery spans: consolidated totals (waste then backoff) ahead of the
    // delivering attempt — see the TimelineEventKind comment.
    if (c.retry_wasted_s > 0.0) {
      out.push_back({TimelineEventKind::kRetryWait, c.chunk, c.request_wall_s,
                     c.retry_wasted_s, c.buffer_before_s,
                     first ? 0.0 : std::max(c.buffer_before_s - c.retry_wasted_s, 0.0)});
    }
    if (c.backoff_s > 0.0) {
      out.push_back({TimelineEventKind::kBackoff, c.chunk, c.request_wall_s + c.retry_wasted_s,
                     c.backoff_s,
                     first ? 0.0 : std::max(c.buffer_before_s - c.retry_wasted_s, 0.0),
                     post_recovery});
    }
    if (c.rtt_s > 0.0) {
      out.push_back({TimelineEventKind::kRttWait, c.chunk, c.request_wall_s + recovery_s,
                     c.rtt_s, post_recovery, post_rtt});
    }
    if (c.transfer_s > 0.0) {
      out.push_back({TimelineEventKind::kTransfer, c.chunk,
                     c.request_wall_s + recovery_s + c.rtt_s, c.transfer_s, post_rtt,
                     post_transfer});
    }
    if (c.stall_s > 0.0) {
      out.push_back({TimelineEventKind::kStall, c.chunk, c.stall_start_wall_s, c.stall_s,
                     0.0, 0.0});
    }
    if (c.scheduled_pause_s > 0.0) {
      out.push_back({TimelineEventKind::kScheduledPause, c.chunk, c.arrival_wall_s,
                     c.scheduled_pause_s, post_transfer, post_transfer + c.scheduled_pause_s});
    }
    if (c.idle_s > 0.0) {
      out.push_back({TimelineEventKind::kIdle, c.chunk, c.arrival_wall_s, c.idle_s,
                     c.buffer_after_s + c.idle_s, c.buffer_after_s});
    }
  }
  return out;
}

bool SessionTimeline::check_invariants(std::string* why) const {
  auto violate = [&](size_t chunk, const std::string& what) {
    if (why) {
      std::ostringstream os;
      os << "chunk " << chunk << ": " << what;
      *why = os.str();
    }
    return false;
  };
  const double eps = 1e-9;
  double scheduled_cum = 0.0;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const auto& c = chunks_[i];
    if (c.chunk != i) return violate(i, "non-consecutive chunk index");
    if (c.rtt_s < 0.0 || c.transfer_s < 0.0 || c.stall_s < 0.0 ||
        c.scheduled_pause_s < 0.0 || c.idle_s < 0.0 || c.retry_wasted_s < 0.0 ||
        c.backoff_s < 0.0) {
      return violate(i, "negative span");
    }
    if (c.buffer_before_s < 0.0 || c.buffer_after_s < 0.0) {
      return violate(i, "negative buffer");
    }
    if (c.retries == 0 && c.retry_wasted_s + c.backoff_s > 0.0) {
      return violate(i, "recovery spans recorded without a retry");
    }
    double dl = c.retry_wasted_s + c.backoff_s + c.rtt_s + c.transfer_s;
    if (std::abs(c.arrival_wall_s - (c.request_wall_s + dl)) > eps * (1.0 + c.arrival_wall_s)) {
      return violate(i, "arrival != request + retry waste + backoff + rtt + transfer");
    }
    if (c.stall_s > 0.0 &&
        std::abs(c.stall_start_wall_s - (c.arrival_wall_s - c.stall_s)) >
            eps * (1.0 + c.arrival_wall_s)) {
      return violate(i, "stall not anchored at arrival - stall");
    }
    if (i > 0) {
      const auto& p = chunks_[i - 1];
      if (std::abs(c.request_wall_s - (p.arrival_wall_s + p.idle_s)) >
          eps * (1.0 + c.request_wall_s)) {
        return violate(i, "request does not continue previous chunk's window");
      }
      if (c.buffer_before_s != p.buffer_after_s) {
        return violate(i, "buffer discontinuity between chunks");
      }
      if (c.playhead_before_s != p.playhead_after_s) {
        return violate(i, "playhead discontinuity between chunks");
      }
    }
    // Media conservation. The credited buffer holds stored media *plus* the
    // outstanding pause debt (a pause is credited at decision time but
    // served later), so: rendered + buffer - debt == media arrived.
    scheduled_cum += c.scheduled_pause_s;
    double arrived = static_cast<double>(i + 1) * chunk_duration_s_;
    if (c.pause_debt_after_s < 0.0 || c.pause_debt_after_s > scheduled_cum + eps) {
      return violate(i, "pause debt exceeds scheduled pauses");
    }
    if (std::abs(c.playhead_after_s + c.buffer_after_s - c.pause_debt_after_s - arrived) >
        1e-6 * (1.0 + arrived)) {
      return violate(i, "playhead + buffer - pause debt != media arrived");
    }
    if (c.playhead_after_s + eps < c.playhead_before_s) {
      return violate(i, "playhead moved backwards");
    }
  }
  if (outcome_ == SessionOutcome::kOutage && outage_chunk_ != chunks_.size()) {
    return violate(outage_chunk_, "outage chunk does not follow the last completed chunk");
  }
  return true;
}

}  // namespace sensei::sim
