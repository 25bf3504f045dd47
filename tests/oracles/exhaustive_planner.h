// The original Fugu recursion, verbatim: a depth-first walk of the full
// (levels x rebuffer_options)^horizon decision tree, advancing a heap-
// allocated per-scenario state vector at every node. Exponential in the
// horizon and deliberately NOT optimized: it is the correctness baseline the
// exact abr::DpPlanner must reproduce bit for bit at horizons 1-7
// (tests/test_planner_equivalence.cpp, tests/test_oracle_grids.cpp). It
// lives in the test-only oracle library; production Fugu runs
// abr::DpPlanner or abr::ViPlanner. Full sessions run it through FuguAbr's
// planner-taking constructor.
#pragma once

#include <vector>

#include "abr/planner.h"

namespace sensei::oracles {

class ExhaustivePlanner : public abr::Planner {
 public:
  const char* name() const override { return "exhaustive"; }
  abr::PlanResult plan(const abr::PlanQuery& query) override;

 private:
  struct PlanState {
    double buffer_s = 0.0;
    double prev_vq = 0.0;
  };

  double walk(const abr::PlanQuery& q, size_t depth, size_t chunk,
              std::vector<PlanState>& states, double prev_weighted_sum);

  // Best first action found by the current walk, tracked separately for
  // stall-free plans so the caller can apply the rebuffer margin.
  abr::PlanResult result_;
  size_t plan_first_level_ = 0;
  double plan_first_rebuffer_ = 0.0;
};

}  // namespace sensei::oracles
