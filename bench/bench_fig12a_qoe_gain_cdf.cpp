// Figure 12a: distribution (CDF) of QoE gains over BBA for SENSEI, Pensieve
// and Fugu across all 16 videos x 10 traces. Paper: SENSEI's median gain
// ~14.4% vs ~5.7% for Pensieve/Fugu.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"

using namespace sensei;
using core::Experiments;

int main() {
  const auto& videos = Experiments::videos();
  const auto& traces = Experiments::traces();
  const auto& weights = Experiments::weights();

  abr::BbaAbr bba;
  auto fugu = core::Sensei::make_fugu();
  auto sensei_fugu = core::Sensei::make_sensei_fugu();
  auto& pensieve = Experiments::pensieve();
  auto& sensei_pensieve = Experiments::sensei_pensieve();

  std::vector<double> gain_sensei, gain_pensieve, gain_fugu, gain_sensei_pen;
  const std::vector<double> none;
  for (size_t v = 0; v < videos.size(); ++v) {
    for (const auto& trace : traces) {
      double q_bba = Experiments::run(videos[v], trace, bba, none).true_qoe;
      if (q_bba < 0.02) continue;  // avoid exploding ratios on degenerate runs
      double q_fugu = Experiments::run(videos[v], trace, *fugu, none).true_qoe;
      double q_pen = Experiments::run(videos[v], trace, pensieve, none).true_qoe;
      double q_sf = Experiments::run(videos[v], trace, *sensei_fugu, weights[v]).true_qoe;
      double q_sp =
          Experiments::run(videos[v], trace, sensei_pensieve, weights[v]).true_qoe;
      gain_fugu.push_back((q_fugu - q_bba) / q_bba * 100.0);
      gain_pensieve.push_back((q_pen - q_bba) / q_bba * 100.0);
      gain_sensei.push_back((q_sf - q_bba) / q_bba * 100.0);
      gain_sensei_pen.push_back((q_sp - q_bba) / q_bba * 100.0);
    }
  }

  bench::print_cdf("Figure 12a: QoE gain over BBA — SENSEI (Sensei-Fugu)", gain_sensei);
  bench::print_cdf("Figure 12a: QoE gain over BBA — Fugu", gain_fugu);
  bench::print_cdf("Figure 12a: QoE gain over BBA — Pensieve", gain_pensieve);
  bench::print_cdf("Figure 12a: QoE gain over BBA — Sensei-Pensieve", gain_sensei_pen);

  std::printf("medians: SENSEI %+.1f%%, Fugu %+.1f%%, Pensieve %+.1f%%, "
              "Sensei-Pensieve %+.1f%%\n",
              util::median(gain_sensei), util::median(gain_fugu),
              util::median(gain_pensieve), util::median(gain_sensei_pen));
  std::printf("(paper: SENSEI median +14.4%%, Pensieve/Fugu ~+5.7%%; our RL substrate "
              "is weaker than A3C, so the Fugu family carries the headline here — see "
              "README.md, Substitutions and fidelity)\n");
  return 0;
}
