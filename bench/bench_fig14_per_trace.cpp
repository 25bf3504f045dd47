// Figure 14: QoE gain over BBA per throughput trace (ordered by increasing
// average throughput), averaged across videos. Paper: SENSEI's advantage is
// largest when throughput is low.
//
// Ported onto core::ExperimentRunner: the four (video × trace) grids fan
// across the worker pool (`--threads N`, default hardware concurrency);
// aggregation happens after the fact on bit-identical per-cell results.
//
// `--construction registry|direct` selects how the four policies are
// built: through Experiments::policy_factory (the registry path every
// other layer uses, default) or via reference lambdas calling the
// concrete constructors. CI diffs the two outputs — they must be
// bit-identical, the registry==direct construction contract.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"--threads", "--planner", "--construction"}, {},
                     "bench_fig14_per_trace [--threads N] [--planner dp|vi] "
                     "[--construction registry|direct]");
  core::ExperimentRunner runner(bench::threads_arg(argc, argv));
  const abr::PlannerKind planner = bench::planner_arg(argc, argv);
  std::string construction = "registry";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--construction") == 0) construction = argv[i + 1];
  }
  if (construction != "registry" && construction != "direct") {
    std::fprintf(stderr, "error: --construction expects registry or direct\n");
    return 2;
  }

  const auto& videos = Experiments::videos();
  const auto& traces = Experiments::traces();
  Experiments::weights();
  auto& trained_pensieve = Experiments::pensieve();

  Experiments::PolicyFactory f_bba, f_sensei, f_pen, f_fugu;
  if (construction == "direct") {
    // Reference path: concrete constructors, bypassing the registry.
    f_bba = [] { return std::make_unique<abr::BbaAbr>(); };
    f_sensei = [planner] { return core::Sensei::make_sensei_fugu({}, planner); };
    f_pen = [&trained_pensieve] { return std::make_unique<abr::PensieveAbr>(trained_pensieve); };
    f_fugu = [planner] { return core::Sensei::make_fugu({}, planner); };
  } else {
    const std::string suffix = std::string(":planner=") + bench::planner_text(planner);
    f_bba = Experiments::policy_factory("bba");
    f_sensei = Experiments::policy_factory("sensei-fugu" + suffix);
    f_pen = Experiments::policy_factory("pensieve");
    f_fugu = Experiments::policy_factory("fugu" + suffix);
  }

  auto start = std::chrono::steady_clock::now();
  auto grid_bba = Experiments::run_grid(f_bba, false, runner);
  auto grid_sensei = Experiments::run_grid(f_sensei, true, runner);
  auto grid_pen = Experiments::run_grid(f_pen, false, runner);
  auto grid_fugu = Experiments::run_grid(f_fugu, false, runner);
  double sweep_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                       .count();

  std::printf("%s", util::banner(
                        "Figure 14: QoE gain over BBA per trace (ordered by mean "
                        "throughput)")
                        .c_str());
  util::Table table({"trace", "mean Kbps", "SENSEI %", "Pensieve %", "Fugu %"});
  double low_half_gain = 0.0, high_half_gain = 0.0;
  for (size_t t = 0; t < traces.size(); ++t) {
    util::Accumulator g_sensei, g_pen, g_fugu;
    for (size_t v = 0; v < videos.size(); ++v) {
      size_t cell = v * traces.size() + t;
      double q_bba = grid_bba[cell].true_qoe;
      if (q_bba < 0.02) continue;
      g_sensei.add((grid_sensei[cell].true_qoe - q_bba) / q_bba * 100.0);
      g_pen.add((grid_pen[cell].true_qoe - q_bba) / q_bba * 100.0);
      g_fugu.add((grid_fugu[cell].true_qoe - q_bba) / q_bba * 100.0);
    }
    if (t < traces.size() / 2) {
      low_half_gain += g_sensei.mean();
    } else {
      high_half_gain += g_sensei.mean();
    }
    table.add_row({traces[t].name(),
                   util::Table::format_double(traces[t].mean_kbps(), 0),
                   util::Table::format_double(g_sensei.mean(), 1),
                   util::Table::format_double(g_pen.mean(), 1),
                   util::Table::format_double(g_fugu.mean(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("SENSEI mean gain, low-throughput half: %+.1f%%; high half: %+.1f%% "
              "(paper: more improvement when throughput is lower)\n",
              low_half_gain / (traces.size() / 2.0),
              high_half_gain / (traces.size() / 2.0));
  std::printf("grid sweep: %zu sessions in %.2fs on %zu thread(s)\n",
              4 * videos.size() * traces.size(), sweep_s, runner.num_threads());
  return 0;
}
