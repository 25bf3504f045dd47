#include "oracles/exhaustive_planner.h"

#include <algorithm>

#include "qoe/chunk_quality.h"

namespace sensei::oracles {

namespace {

// The 30 s buffer cap the production planners plan against (abr/planner.cpp)
// and the player's default max_buffer_s.
constexpr double kMaxBufferS = 30.0;

}  // namespace

abr::PlanResult ExhaustivePlanner::plan(const abr::PlanQuery& q) {
  if (abr::degenerate_plan(q, &result_)) return result_;
  std::vector<PlanState> states(q.num_scenarios);
  for (auto& st : states) {
    st.buffer_s = q.obs->buffer_s;
    st.prev_vq = q.prev_visual_quality;
  }
  result_ = abr::PlanResult{};
  plan_first_level_ = 0;
  plan_first_rebuffer_ = 0.0;
  walk(q, 0, q.obs->next_chunk, states, 0.0);
  return result_;
}

double ExhaustivePlanner::walk(const abr::PlanQuery& q, size_t depth, size_t chunk,
                               std::vector<PlanState>& states, double prev_weighted_sum) {
  const auto& video = *q.obs->video;
  const size_t levels = video.ladder().level_count();
  const double tau = video.chunk_duration_s();

  if (depth >= q.horizon || chunk >= q.obs->num_chunks) {
    // Leaf: record if this is the best complete plan.
    if (prev_weighted_sum > result_.best_value) {
      result_.best_value = prev_weighted_sum;
      result_.best_level = plan_first_level_;
      result_.best_rebuffer_s = plan_first_rebuffer_;
    }
    if (plan_first_rebuffer_ == 0.0 && prev_weighted_sum > result_.nostall_value) {
      result_.nostall_value = prev_weighted_sum;
      result_.nostall_level = plan_first_level_;
    }
    return prev_weighted_sum;
  }

  // Weight for this horizon step: 1 when weight-unaware or none provided.
  double w = 1.0;
  if (q.use_weights && depth < q.obs->future_weights.size()) {
    w = 1.0 + q.weight_shrinkage * (q.obs->future_weights[depth] - 1.0);
  }

  static const double no_stall[1] = {0.0};
  const double* stall_options = depth == 0 ? q.rebuffer_options : no_stall;
  const size_t stall_count = depth == 0 ? q.num_rebuffer_options : 1;

  double best = -1e18;
  for (size_t level = 0; level < levels; ++level) {
    const auto& rep = video.rep(chunk, level);
    for (size_t si = 0; si < stall_count; ++si) {
      double scheduled = stall_options[si];
      // Advance each scenario independently; expectation over scenarios.
      std::vector<PlanState> next_states = states;
      double expected_q = 0.0;
      double expected_q_nostall = 0.0;
      for (size_t s = 0; s < q.num_scenarios; ++s) {
        double kbps = std::max(1.0, q.scenarios[s].kbps);
        double dl = rep.size_bytes * 8.0 / 1000.0 / kbps + 0.08;
        PlanState& st = next_states[s];
        double stall = 0.0;
        if (dl > st.buffer_s) {
          stall = dl - st.buffer_s;
          st.buffer_s = 0.0;
        } else {
          st.buffer_s -= dl;
        }
        if (scheduled > 0.0) {
          st.buffer_s += scheduled;
          stall += scheduled;
        }
        st.buffer_s = std::min(st.buffer_s + tau, kMaxBufferS);
        double qv = qoe::chunk_quality(rep.visual_quality, stall, st.prev_vq, q.chunk);
        double q_nostall = qoe::chunk_quality(rep.visual_quality, 0.0, st.prev_vq, q.chunk);
        st.prev_vq = rep.visual_quality;
        expected_q += q.scenarios[s].probability * qv;
        expected_q_nostall += q.scenarios[s].probability * q_nostall;
      }

      if (depth == 0) {
        plan_first_level_ = level;
        plan_first_rebuffer_ = scheduled;
      }
      // Stall terms are never discounted below neutral: a weight below 1
      // means the viewer cares less about *quality* there, not that stalling
      // is free. Decompose expected_q into its stall-free part and the stall
      // penalty part, and weight them separately.
      double value = walk(q, depth + 1, chunk + 1, next_states,
                          prev_weighted_sum + abr::weighted_step_quality(w, expected_q,
                                                                         expected_q_nostall));
      best = std::max(best, value);
    }
  }
  return best;
}

}  // namespace sensei::oracles
