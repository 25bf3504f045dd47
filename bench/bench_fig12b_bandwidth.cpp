// Figure 12b: QoE vs normalized bandwidth usage — each ABR evaluated on a
// trace scaled by different ratios; bandwidth savings read off horizontally
// at a target QoE. Paper: ~27.9% savings vs Pensieve/Fugu, ~32.1% vs BBA at
// target QoE 0.8 (on their scale).
//
// Ported onto core::ExperimentRunner: each ABR's (video × scaled-trace) grid
// fans across the worker pool (`--threads N`, default hardware concurrency);
// results are bit-identical to a serial run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"

using namespace sensei;
using core::Experiments;

namespace {

// Mean true QoE per bandwidth scale for one policy: one run_grid over
// (videos × scaled traces), then a column average per trace.
std::vector<double> qoe_per_scale(const Experiments::PolicyFactory& make_policy,
                                  const std::vector<net::ThroughputTrace>& scaled,
                                  bool use_weights, const core::ExperimentRunner& runner) {
  const auto& videos = Experiments::videos();
  auto cells = Experiments::run_grid(
      videos, scaled, make_policy,
      use_weights ? Experiments::weights() : std::vector<std::vector<double>>{}, runner);
  std::vector<double> out;
  for (size_t t = 0; t < scaled.size(); ++t) {
    util::Accumulator acc;
    for (size_t v = 0; v < videos.size(); ++v) acc.add(cells[v * scaled.size() + t].true_qoe);
    out.push_back(acc.mean());
  }
  return out;
}

// Linear interpolation of the scale needed to reach `target` QoE.
double scale_for_target(const std::vector<double>& scales, const std::vector<double>& qoe,
                        double target) {
  for (size_t i = 1; i < scales.size(); ++i) {
    if (qoe[i] >= target) {
      double t = (target - qoe[i - 1]) / (qoe[i] - qoe[i - 1]);
      return scales[i - 1] + t * (scales[i] - scales[i - 1]);
    }
  }
  return scales.back();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"--threads", "--planner"}, {},
                     "bench_fig12b_bandwidth [--threads N] [--planner dp|vi]");
  core::ExperimentRunner runner(bench::threads_arg(argc, argv));
  const abr::PlannerKind planner = bench::planner_arg(argc, argv);

  net::ThroughputTrace base_trace = Experiments::traces()[6];  // ~2.7 Mbps broadband
  const std::vector<double> scales = {0.2, 0.35, 0.5, 0.65, 0.8, 1.0};
  std::vector<net::ThroughputTrace> scaled;
  for (double scale : scales) scaled.push_back(base_trace.scaled(scale));

  // Warm the shared fixtures (videos, weights, trained Pensieve) before
  // timing so the wall clock below measures the grid sweep alone. All four
  // policies come from the registry via Experiments::policy_factory.
  Experiments::weights();
  Experiments::pensieve();
  const std::string suffix = std::string(":planner=") + bench::planner_text(planner);

  auto start = std::chrono::steady_clock::now();
  auto q_sensei =
      qoe_per_scale(Experiments::policy_factory("sensei-fugu" + suffix), scaled, true, runner);
  auto q_pen = qoe_per_scale(Experiments::policy_factory("pensieve"), scaled, false, runner);
  auto q_fugu =
      qoe_per_scale(Experiments::policy_factory("fugu" + suffix), scaled, false, runner);
  auto q_bba = qoe_per_scale(Experiments::policy_factory("bba"), scaled, false, runner);
  double sweep_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                       .count();

  std::printf("%s", util::banner("Figure 12b: QoE vs normalized bandwidth usage").c_str());
  util::Table table({"bandwidth scale", "SENSEI", "Pensieve", "Fugu", "BBA"});
  for (size_t i = 0; i < scales.size(); ++i) {
    table.add_row(std::vector<double>{scales[i], q_sensei[i], q_pen[i], q_fugu[i], q_bba[i]},
                  3);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Bandwidth savings at a mid-range target QoE reachable by all ABRs.
  double target = 0.9 * std::min({q_sensei.back(), q_pen.back(), q_fugu.back(),
                                  q_bba.back()});
  double s_sensei = scale_for_target(scales, q_sensei, target);
  double s_fugu = scale_for_target(scales, q_fugu, target);
  double s_bba = scale_for_target(scales, q_bba, target);
  std::printf("target QoE %.3f: SENSEI needs %.2fx bandwidth, Fugu %.2fx, BBA %.2fx\n",
              target, s_sensei, s_fugu, s_bba);
  std::printf("bandwidth savings: %.1f%% vs Fugu, %.1f%% vs BBA "
              "(paper: 27.9%% vs Pensieve/Fugu, 32.1%% vs BBA)\n",
              (1.0 - s_sensei / s_fugu) * 100.0, (1.0 - s_sensei / s_bba) * 100.0);
  std::printf("grid sweep: %zu sessions in %.2fs on %zu thread(s)\n",
              4 * Experiments::videos().size() * scaled.size(), sweep_s,
              runner.num_threads());
  return 0;
}
