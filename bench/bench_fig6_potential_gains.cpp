// Figure 6: potential gains of dynamic-sensitivity awareness under an
// idealized setting — both planners see the whole throughput trace; they
// differ only in the QoE model they maximize (sensitivity-aware vs not).
// Paper: 22-52% higher QoE at the same bandwidth, 39-49% bandwidth savings
// at the same QoE; gains shrink as bandwidth grows.
#include <cstdio>

#include "abr/offline_optimal.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig6_potential_gains");
  const auto& videos = Experiments::videos();
  const auto& oracle = Experiments::oracle();
  const auto& weights = Experiments::weights();
  net::ThroughputTrace base_trace = Experiments::traces()[4];  // ~1.9 Mbps broadband

  std::printf("%s",
              util::banner("Figure 6: idealized sensitivity-aware vs -unaware ABR "
                           "(offline planning, trace rescaled)")
                  .c_str());
  util::Table table({"scale", "mean Mbps", "unaware QoE", "aware QoE", "QoE gain %"});
  // One scratch across the whole sweep: every plan_offline reuses the
  // high-water memo allocation instead of re-faulting tens of MB per session.
  abr::OfflineScratch scratch;
  for (double scale : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto trace = base_trace.scaled(scale);
    util::Accumulator unaware_acc, aware_acc;
    for (size_t v = 0; v < videos.size(); ++v) {
      const auto& video = videos[v];
      std::vector<double> ones(video.num_chunks(), 1.0);
      abr::OfflineConfig unaware_cfg;
      unaware_cfg.rebuffer_options = {0.0};
      abr::OfflineConfig aware_cfg;
      aware_cfg.rebuffer_options = {0.0, 1.0, 2.0};
      auto s_unaware = abr::plan_offline(video, trace, ones, unaware_cfg, scratch);
      auto s_aware = abr::plan_offline(video, trace, weights[v], aware_cfg, scratch);
      unaware_acc.add(oracle.score(s_unaware.to_rendered(video)));
      aware_acc.add(oracle.score(s_aware.to_rendered(video)));
    }
    double gain = (aware_acc.mean() - unaware_acc.mean()) / unaware_acc.mean() * 100.0;
    table.add_row(std::vector<double>{scale, trace.mean_kbps() / 1000.0,
                                      unaware_acc.mean(), aware_acc.mean(), gain},
                  3);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper: aware ABR gains are largest at constrained bandwidth)\n");
  return 0;
}
