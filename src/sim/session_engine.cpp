#include "sim/session_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/fault.h"
#include "net/shared_link.h"
#include "util/rng.h"

namespace sensei::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

SessionEngine::SessionEngine(const PlayerConfig& config, const media::EncodedVideo& video,
                             const net::ThroughputTrace& trace, AbrPolicy& policy,
                             const std::vector<double>& weights, double start_s)
    : video_(&video), policy_(&policy), cursor_(trace) {
  init(config, weights, start_s);
}

SessionEngine::SessionEngine(const PlayerConfig& config, const media::EncodedVideo& video,
                             net::SharedLink& link, AbrPolicy& policy,
                             const std::vector<double>& weights, double start_s)
    : video_(&video), policy_(&policy), link_(&link) {
  init(config, weights, start_s);
}

// Full (re)initialization: every session-scoped field is assigned here, not
// left to member defaults, so reset() can rebind a used engine to a fresh
// session by re-running it. Buffers are cleared, never shrunk — after the
// engine has seen its longest video, a non-recording re-init allocates
// nothing (the fleet free-pool contract, pinned by tests).
void SessionEngine::init(const PlayerConfig& config, const std::vector<double>& weights,
                         double start_s) {
  config_ = config;
  weights_ = weights.empty() ? nullptr : &weights;
  if (video_->num_chunks() == 0) throw std::runtime_error("player: empty video");
  if (weights_ != nullptr && weights_->size() != video_->num_chunks())
    throw std::runtime_error("player: weight vector size mismatch");
  const ResilienceConfig& res = config_.resilience;
  if (res.enabled() && !(res.request_timeout_s > 0.0))
    throw std::runtime_error("player: request timeout must be positive");
  if (res.enabled() &&
      (!(res.backoff_base_s >= 0.0) || !(res.backoff_factor >= 1.0) ||
       !(res.backoff_max_s >= 0.0) || !(res.backoff_jitter_frac >= 0.0) ||
       res.backoff_jitter_frac >= 1.0)) {
    throw std::runtime_error("player: invalid backoff configuration");
  }

  policy_->begin_session(*video_);

  tau_ = video_->chunk_duration_s();
  n_ = video_->num_chunks();
  levels_ = video_->ladder().level_count();
  end_chunk_ = std::min(n_, std::max<size_t>(1, chunk_limit_));

  if (config_.record_timeline) {
    // A fresh timeline per session: the previous session's result may still
    // share the old one (shared_ptr), so it cannot be recycled in place.
    timeline_ = std::make_shared<SessionTimeline>(tau_, config_.rtt_s);
    timeline_->reserve(n_);
  } else {
    timeline_.reset();
  }
  history_.clear();
  history_.reserve(config_.throughput_history_len + 1);
  records_.clear();
  records_.reserve(n_);

  // One observation reused across the session: its vectors reach their
  // high-water capacity during the first chunks and the per-chunk refills
  // never touch the heap again (the monolithic loop's discipline).
  obs_.num_chunks = n_;  // the full video — abandonment is invisible to the ABR
  obs_.video = video_;
  obs_.timeline = timeline_.get();
  obs_.throughput_history_kbps.clear();
  obs_.throughput_history_kbps.reserve(config_.throughput_history_len + 1);
  obs_.future_weights.clear();
  obs_.future_weights.reserve(config_.weight_horizon);

  wall_clock_s_ = 0.0;
  buffer_s_ = 0.0;
  playhead_s_ = 0.0;
  pause_debt_s_ = 0.0;
  total_stall_s_ = 0.0;
  startup_delay_s_ = 0.0;
  last_level_ = 0;
  last_throughput_ = 0.0;
  last_download_time_ = 0.0;
  next_chunk_ = 0;
  rep_ = nullptr;
  scheduled_ = 0.0;
  dl_s_ = 0.0;
  transfer_elapsed_s_ = 0.0;
  transfer_start_abs_s_ = 0.0;
  transfer_id_ = 0;
  faults_ = nullptr;
  session_tag_ = 0;
  cur_rtt_s_ = config_.rtt_s;
  last_rtt_s_ = 0.0;
  attempt_start_abs_s_ = 0.0;
  deadline_abs_s_ = kInf;
  pending_timeout_ = false;
  attempts_failed_ = 0;
  chunk_reattempts_ = 0;
  chunk_retry_wasted_s_ = 0.0;
  chunk_backoff_s_ = 0.0;
  retry_level_ = 0;
  outage_cause_ = OutcomeCause::kDeadLink;
  timeouts_ = 0;
  retries_ = 0;
  recovered_chunks_ = 0;
  failovers_ = 0;
  result_taken_ = false;

  start_abs_s_ = start_s;
  state_ = State::kRequesting;
  next_event_abs_s_ = start_s;
}

void SessionEngine::set_chunk_limit(size_t limit) {
  if (next_chunk_ != 0 || state_ != State::kRequesting)
    throw std::logic_error("session engine: chunk limit must be set before the first transition");
  chunk_limit_ = limit;
  end_chunk_ = std::min(n_, std::max<size_t>(1, limit));
}

void SessionEngine::set_session_tag(uint64_t tag) {
  if (next_chunk_ != 0 || state_ != State::kRequesting)
    throw std::logic_error("session engine: session tag must be set before the first transition");
  session_tag_ = tag;
}

void SessionEngine::set_fault_plan(const net::FaultPlan* plan) {
  if (next_chunk_ != 0 || state_ != State::kRequesting)
    throw std::logic_error("session engine: fault plan must be set before the first transition");
  faults_ = plan;
}

void SessionEngine::reset(const media::EncodedVideo& video, net::SharedLink& link,
                          AbrPolicy& policy, const std::vector<double>& weights,
                          double start_s, size_t chunk_limit) {
  video_ = &video;
  policy_ = &policy;
  link_ = &link;
  chunk_limit_ = chunk_limit;
  init(config_, weights, start_s);
}

void SessionEngine::advance_to(double t) {
  while (!done() && next_event_abs_s_ <= t) step();
}

void SessionEngine::step() {
  switch (state_) {
    case State::kRequesting:
      issue_request();
      break;
    case State::kRtt:
      // A deadline shorter than the RTT fires before the first byte could
      // move: the attempt dies in flight without ever joining the link.
      if (deadline_abs_s_ < transfer_start_abs_s_) {
        enter_timed_out();
      } else {
        begin_transfer();
      }
      break;
    case State::kTransferring:
      if (link_ != nullptr) {
        // A shared-link transfer's finish belongs to the link — the only
        // self-driven event while kTransferring is the attempt's deadline.
        if (!std::isfinite(deadline_abs_s_))
          throw std::logic_error("session engine: a shared-link transfer finishes via the link");
        enter_timed_out();
      } else if (pending_timeout_) {
        // Dedicated: the request-time integration already knew this attempt
        // could not beat its deadline.
        enter_timed_out();
      } else {
        finish_chunk();
      }
      break;
    case State::kTimedOut:
      resolve_timeout();
      break;
    case State::kBackoff:
      // The backoff has been served: re-request at this very instant.
      state_ = State::kRetrying;
      break;
    case State::kRetrying:
      issue_retry();
      break;
    case State::kArrived:
      // The buffer-cap idle (if any) has been served: issue the next
      // request at this very instant.
      state_ = State::kRequesting;
      break;
    case State::kDone:
    case State::kOutage:
      break;
  }
}

double SessionEngine::request_rtt_s(double attempt_start_abs_s) const {
  // With no plan attached this is exactly config_.rtt_s; with one attached
  // but no spike active, + 0.0 is an exact identity.
  return faults_ == nullptr ? config_.rtt_s
                            : config_.rtt_s + faults_->rtt_extra_s(attempt_start_abs_s);
}

void SessionEngine::arm_deadline() {
  deadline_abs_s_ = config_.resilience.enabled()
                        ? attempt_start_abs_s_ + config_.resilience.request_timeout_s
                        : kInf;
}

double SessionEngine::backoff_wait_s(size_t attempt) const {
  const ResilienceConfig& res = config_.resilience;
  // Repeated multiplication, not std::pow — libm rounding is not pinned
  // across platforms, and the attempt count is tiny.
  double wait = res.backoff_base_s;
  for (size_t k = 1; k < attempt; ++k) wait *= res.backoff_factor;
  wait = std::min(wait, res.backoff_max_s);
  if (res.backoff_jitter_frac > 0.0) {
    util::Rng rng(util::mix_seed(util::mix_seed(res.jitter_seed, session_tag_),
                                 (static_cast<uint64_t>(next_chunk_) << 16) ^
                                     static_cast<uint64_t>(attempt)));
    wait *= 1.0 + res.backoff_jitter_frac * (2.0 * rng.uniform() - 1.0);
  }
  return wait;
}

void SessionEngine::issue_request() {
  const size_t i = next_chunk_;
  obs_.next_chunk = i;
  obs_.buffer_s = buffer_s_;
  obs_.last_level = last_level_;
  obs_.last_throughput_kbps = last_throughput_;
  obs_.last_download_time_s = last_download_time_;
  obs_.throughput_history_kbps = history_;
  if (weights_ != nullptr) {
    size_t end = std::min(n_, i + config_.weight_horizon);
    obs_.future_weights.assign(weights_->begin() + static_cast<long>(i),
                               weights_->begin() + static_cast<long>(end));
  }
  obs_.wall_clock_s = wall_clock_s_;
  obs_.playhead_s = playhead_s_;
  obs_.total_stall_s = total_stall_s_;
  obs_.last_rtt_s = i > 0 ? last_rtt_s_ : 0.0;

  AbrDecision decision = policy_->decide(obs_);
  if (decision.level >= levels_) decision.level = levels_ - 1;
  scheduled_ = std::max(0.0, decision.scheduled_rebuffer_s);

  // Fresh chunk: clear the per-chunk recovery accumulators.
  attempts_failed_ = 0;
  chunk_reattempts_ = 0;
  chunk_retry_wasted_s_ = 0.0;
  chunk_backoff_s_ = 0.0;
  retry_level_ = decision.level;

  rep_ = &video_->rep(i, decision.level);
  rec_ = ChunkRecord();
  rec_.index = i;
  rec_.level = decision.level;
  rec_.bitrate_kbps = rep_->bitrate_kbps;
  rec_.size_bytes = rep_->size_bytes;
  rec_.visual_quality = rep_->visual_quality;
  rec_.download_start_s = wall_clock_s_;

  traj_ = ChunkTrajectory();
  traj_.chunk = i;
  traj_.level = decision.level;
  traj_.request_wall_s = wall_clock_s_;
  traj_.buffer_before_s = buffer_s_;
  traj_.playhead_before_s = playhead_s_;

  // RTT first (dead wall clock, no trace capacity), then the transfer.
  attempt_start_abs_s_ = start_abs_s_ + wall_clock_s_;
  cur_rtt_s_ = request_rtt_s(attempt_start_abs_s_);
  transfer_start_abs_s_ = start_abs_s_ + (wall_clock_s_ + cur_rtt_s_);
  launch_attempt();
}

// Re-request of the in-flight chunk after a timeout retry or a failover
// reconnect: same shape as issue_request past the decision point, except no
// new decision is made (the rung is retry_level_) and the attempt starts at
// the backoff's end rather than at a fresh request boundary.
void SessionEngine::issue_retry() {
  const size_t i = next_chunk_;
  rep_ = &video_->rep(i, retry_level_);
  rec_.level = retry_level_;
  rec_.bitrate_kbps = rep_->bitrate_kbps;
  rec_.size_bytes = rep_->size_bytes;
  rec_.visual_quality = rep_->visual_quality;
  traj_.level = retry_level_;

  attempt_start_abs_s_ = next_event_abs_s_;
  cur_rtt_s_ = request_rtt_s(attempt_start_abs_s_);
  transfer_start_abs_s_ = attempt_start_abs_s_ + cur_rtt_s_;
  launch_attempt();
}

void SessionEngine::launch_attempt() {
  arm_deadline();
  pending_timeout_ = false;
  if (link_ == nullptr) {
    // Dedicated link: integrate the whole transfer now, exactly as the
    // monolithic loop did at this point.
    net::TransferResult transfer = cursor_.advance(rep_->size_bytes, transfer_start_abs_s_);
    if (!transfer.completed) {
      if (!config_.resilience.enabled()) {
        // The link died: this chunk can never arrive. Truncate the session
        // and surface the outage instead of faking a completed download.
        mark_outage();
        return;
      }
      // With a deadline armed, a dead link is just an attempt that will
      // time out — the retry path decides whether the session survives.
      pending_timeout_ = true;
    } else {
      transfer_elapsed_s_ = transfer.elapsed_s;
      if (transfer_start_abs_s_ + transfer.elapsed_s > deadline_abs_s_) {
        pending_timeout_ = true;  // completes, but after the deadline
      } else {
        dl_s_ = ((chunk_retry_wasted_s_ + chunk_backoff_s_) + cur_rtt_s_) + transfer_elapsed_s_;
      }
    }
  }

  state_ = State::kRtt;
  next_event_abs_s_ =
      deadline_abs_s_ < transfer_start_abs_s_ ? deadline_abs_s_ : transfer_start_abs_s_;
}

void SessionEngine::begin_transfer() {
  if (link_ != nullptr) {
    transfer_id_ = link_->begin(rep_->size_bytes, transfer_start_abs_s_);
    // The link owns the completion event; the engine's only self-driven
    // event is the attempt's deadline (+inf with resilience disabled).
    next_event_abs_s_ = deadline_abs_s_;
  } else if (pending_timeout_) {
    next_event_abs_s_ = deadline_abs_s_;
  } else {
    next_event_abs_s_ = start_abs_s_ + (wall_clock_s_ + dl_s_);
  }
  state_ = State::kTransferring;
}

void SessionEngine::complete_transfer(double finish_abs_s) {
  if (state_ != State::kTransferring || link_ == nullptr)
    throw std::logic_error("session engine: no shared-link transfer in flight");
  transfer_elapsed_s_ = std::max(0.0, finish_abs_s - transfer_start_abs_s_);
  dl_s_ = ((chunk_retry_wasted_s_ + chunk_backoff_s_) + cur_rtt_s_) + transfer_elapsed_s_;
  finish_chunk();
}

void SessionEngine::fail_transfer() {
  if (state_ != State::kTransferring || link_ == nullptr)
    throw std::logic_error("session engine: no shared-link transfer in flight");
  mark_outage();
}

void SessionEngine::enter_timed_out() {
  // The attempt dies at its deadline. Everything since the attempt began —
  // the RTT wait and any partial transfer — is wall clock the viewer spent
  // for nothing: exactly one timeout's worth, charged as retry waste. The
  // link (if joined) drops the transfer; its partial grants stay frozen in
  // the link's accounting.
  if (state_ == State::kTransferring && link_ != nullptr) link_->abort(transfer_id_);
  chunk_retry_wasted_s_ += config_.resilience.request_timeout_s;
  ++attempts_failed_;
  ++timeouts_;
  pending_timeout_ = false;
  state_ = State::kTimedOut;
  // next_event_abs_s_ is already the deadline (now): resolution chains in
  // the same instant's next step.
}

void SessionEngine::resolve_timeout() {
  if (attempts_failed_ > config_.resilience.max_retries) {
    // Retry budget exhausted: the chunk is lost and the session truncates,
    // with the wall clock advanced past everything the failed attempts
    // burned (the viewer gave up *now*, not back at the request).
    outage_cause_ = OutcomeCause::kTimeoutBudget;
    wall_clock_s_ += chunk_retry_wasted_s_ + chunk_backoff_s_;
    mark_outage();
    return;
  }
  // Retry one rung lower (a timeout is congestion evidence), after an
  // exponentially backed-off, deterministically jittered wait.
  if (config_.resilience.retry_lower_rung && retry_level_ > 0) --retry_level_;
  ++retries_;
  ++chunk_reattempts_;
  const double wait = backoff_wait_s(attempts_failed_);
  chunk_backoff_s_ += wait;
  state_ = State::kBackoff;
  next_event_abs_s_ += wait;
}

void SessionEngine::rehome(net::SharedLink& link, double reconnect_delay_s, double now_abs_s) {
  if (link_ == nullptr)
    throw std::logic_error("session engine: rehome requires a shared-link session");
  if (done()) {
    link_ = &link;
    return;
  }
  switch (state_) {
    case State::kTransferring:
      link_->abort(transfer_id_);
      [[fallthrough]];
    case State::kRtt:
      // The in-flight request died with the cell: charge the span since the
      // attempt began as retry waste and the reconnection delay as backoff,
      // then re-request the same rung on the fallback. A failover is not
      // congestion evidence — it neither drops the rung nor spends the
      // retry budget.
      chunk_retry_wasted_s_ += now_abs_s - attempt_start_abs_s_;
      chunk_backoff_s_ += reconnect_delay_s;
      ++chunk_reattempts_;
      retry_level_ = rec_.level;
      pending_timeout_ = false;
      state_ = State::kBackoff;
      next_event_abs_s_ = now_abs_s + reconnect_delay_s;
      break;
    default:
      // Between requests (kRequesting / kArrived / kBackoff): the next
      // attempt simply joins the new link on its existing schedule.
      break;
  }
  ++failovers_;
  link_ = &link;
}

// The arrival accounting: statement for statement the tail of the
// monolithic loop body, so however the session is sliced the emitted
// numbers are bit-identical to run-to-completion streaming.
void SessionEngine::finish_chunk() {
  const size_t i = next_chunk_;
  const double dl = dl_s_;
  rec_.download_time_s = dl;
  traj_.rtt_s = cur_rtt_s_;
  traj_.transfer_s = transfer_elapsed_s_;
  traj_.retry_wasted_s = chunk_retry_wasted_s_;
  traj_.backoff_s = chunk_backoff_s_;
  traj_.retries = chunk_reattempts_;

  wall_clock_s_ += dl;
  traj_.arrival_wall_s = wall_clock_s_;

  // Outstanding scheduled-pause debt (from earlier decisions) freezes
  // playback across this download window before anything else can play.
  double pause_served_in_window = std::min(pause_debt_s_, dl);
  pause_debt_s_ -= pause_served_in_window;

  double stall = 0.0;
  if (i == 0) {
    // Startup: the first chunk's download (and any scheduled pre-roll
    // wait) is join latency, not a stall.
    startup_delay_s_ = dl + scheduled_;
    buffer_s_ = tau_;
  } else {
    // Buffer drains in real time across the whole download (RTT wait
    // included — playback does not know the request is still in flight).
    if (dl > buffer_s_) {
      stall = dl - buffer_s_;
      buffer_s_ = 0.0;
    } else {
      buffer_s_ -= dl;
    }
    traj_.stall_s = stall;
    if (stall > 0.0) traj_.stall_start_wall_s = traj_.arrival_wall_s - stall;
    // Scheduled pause: playback halts, downloads continue — the buffer is
    // credited with the pause and the pause is charged as a stall.
    if (scheduled_ > 0.0) {
      buffer_s_ += scheduled_;
      stall += scheduled_;
      traj_.scheduled_pause_s = scheduled_;
      pause_debt_s_ += scheduled_;
    }
    buffer_s_ += tau_;
  }
  rec_.scheduled_rebuffer_s = (i == 0) ? 0.0 : scheduled_;
  rec_.rebuffer_s = stall;
  total_stall_s_ += stall;

  // Buffer cap: the client idles (wall clock advances, buffer drains by the
  // same amount) until there is room for the next chunk.
  if (buffer_s_ > config_.max_buffer_s) {
    double idle = buffer_s_ - config_.max_buffer_s;
    wall_clock_s_ += idle;
    buffer_s_ = config_.max_buffer_s;
    traj_.idle_s = idle;
  }
  rec_.buffer_after_s = buffer_s_;
  traj_.buffer_after_s = buffer_s_;

  // Idle time also serves outstanding pause debt (the viewer is frozen
  // either way; whatever remains frozen keeps the buffer from draining).
  double idle_play = traj_.idle_s;
  if (pause_debt_s_ > 0.0 && traj_.idle_s > 0.0) {
    double served_in_idle = std::min(pause_debt_s_, traj_.idle_s);
    pause_debt_s_ -= served_in_idle;
    idle_play = traj_.idle_s - served_in_idle;
  }
  traj_.pause_debt_after_s = pause_debt_s_;

  // Playhead integration: playback runs across the download window except
  // while stalled (buffer empty) or serving scheduled-pause debt, and
  // across whatever idle time is not pause-frozen.
  double play_time =
      i == 0 ? 0.0 : std::max(0.0, dl - traj_.stall_s - pause_served_in_window);
  playhead_s_ += play_time + idle_play;
  traj_.playhead_after_s = playhead_s_;

  // Goodput over the transfer alone — the RTT consumed no link capacity,
  // so folding it in would bias every predictor low on small chunks.
  last_throughput_ = transfer_elapsed_s_ > 0.0
                         ? rep_->size_bytes * 8.0 / 1000.0 / transfer_elapsed_s_
                         : 0.0;
  traj_.goodput_kbps = last_throughput_;
  last_download_time_ = dl;
  last_rtt_s_ = cur_rtt_s_;
  last_level_ = rec_.level;
  history_.push_back(last_throughput_);
  if (history_.size() > config_.throughput_history_len) history_.erase(history_.begin());
  if (chunk_reattempts_ > 0) ++recovered_chunks_;

  if (timeline_) timeline_->push_chunk(traj_);
  records_.push_back(rec_);

  ++next_chunk_;
  if (next_chunk_ == end_chunk_) {
    state_ = State::kDone;
    next_event_abs_s_ = kInf;
    finalize();
  } else {
    state_ = State::kArrived;
    next_event_abs_s_ = start_abs_s_ + wall_clock_s_;
  }
}

void SessionEngine::mark_outage() {
  if (timeline_) timeline_->mark_outage(next_chunk_, wall_clock_s_);
  state_ = State::kOutage;
  next_event_abs_s_ = kInf;
  finalize();
}

void SessionEngine::finalize() {
  if (timeline_) timeline_->set_startup_delay(startup_delay_s_);
}

SessionResult SessionEngine::run() {
  if (link_ != nullptr)
    throw std::logic_error("session engine: a shared-link session needs a driver");
  while (!done()) advance_to(next_event_abs_s_);
  return take_result();
}

SessionResult SessionEngine::take_result() {
  if (!done()) throw std::logic_error("session engine: session still in flight");
  // A second take would silently hand back an empty session (the records
  // moved out) that downstream aggregation treats as a valid zero-chunk run.
  if (result_taken_) throw std::logic_error("session engine: result already taken");
  result_taken_ = true;
  const std::string& trace_name =
      link_ != nullptr ? link_->trace().name() : cursor_.trace()->name();
  SessionResult result(video_->source().name(), trace_name, tau_, std::move(records_),
                       startup_delay_s_);
  result.set_outcome(outcome(), outcome_cause(), failed_chunk());
  if (timeline_) result.set_timeline(timeline_);
  return result;
}

}  // namespace sensei::sim
