#include "abr/fugu.h"

namespace sensei::abr {

FuguAbr::FuguAbr(FuguConfig config)
    : FuguAbr(config, make_planner(config.planner)) {}

FuguAbr::FuguAbr(FuguConfig config, std::unique_ptr<Planner> planner)
    : config_(std::move(config)),
      predictor_(config_.predictor_window),
      planner_(std::move(planner)) {}

void FuguAbr::begin_session(const media::EncodedVideo& video) {
  (void)video;
  predictor_.reset();
}

sim::AbrDecision FuguAbr::decide(const sim::AbrObservation& obs) {
  if (obs.last_throughput_kbps > 0.0) predictor_.observe(obs.last_throughput_kbps);
  predictor_.scenarios_into(scenario_buf_);

  double prev_vq = obs.next_chunk > 0
                       ? obs.video->visual_quality(obs.next_chunk - 1, obs.last_level)
                       : obs.video->visual_quality(0, 0);

  PlanQuery q;
  q.obs = &obs;
  q.scenarios = scenario_buf_.data();
  q.num_scenarios = scenario_buf_.size();
  q.horizon = config_.horizon;
  q.rebuffer_options = config_.rebuffer_options.data();
  q.num_rebuffer_options = config_.rebuffer_options.size();
  q.use_weights = config_.use_weights;
  q.weight_shrinkage = config_.weight_shrinkage;
  q.chunk = config_.chunk;
  q.prev_visual_quality = prev_vq;

  PlanResult r = planner_->plan(q);

  sim::AbrDecision d;
  if (r.best_rebuffer_s > 0.0 &&
      r.best_value < r.nostall_value + config_.rebuffer_margin) {
    d.level = r.nostall_level;
    d.scheduled_rebuffer_s = 0.0;
  } else {
    d.level = r.best_level;
    d.scheduled_rebuffer_s = r.best_rebuffer_s;
  }
  return d;
}

}  // namespace sensei::abr
