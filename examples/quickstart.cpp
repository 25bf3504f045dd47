// Quickstart: profile one video's dynamic quality sensitivity, then stream it
// with SENSEI-Fugu vs vanilla Fugu and compare true (oracle) QoE.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "abr/registry.h"
#include "core/sensei.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "qoe/metrics.h"
#include "sim/player.h"
#include "util/table.h"

using namespace sensei;

int main() {
  // 1. A source video from the paper's Table 1 test set and one throughput
  //    trace shaped like the 3G/HSDPA dataset.
  media::SourceVideo source = media::Dataset::by_name("Soccer1");
  media::EncodedVideo video = media::Encoder().encode(source);
  net::ThroughputTrace trace =
      net::TraceGenerator::cellular("demo-cell", 1400, 700.0, 7);

  std::printf("Video: %s (%s, %s, %zu chunks of %.0fs)\n", source.name().c_str(),
              media::to_string(source.genre()).c_str(), source.length_string().c_str(),
              source.num_chunks(), source.chunk_duration_s());
  std::printf("Trace: %s (mean %.0f Kbps)\n\n", trace.name().c_str(), trace.mean_kbps());

  // 2. Profile the video: simulated MTurk raters -> per-chunk weights.
  // Stands in for real viewers (README.md, "Substitutions and fidelity").
  crowd::GroundTruthQoE oracle;
  core::Sensei sensei(oracle);
  core::ProfileOutput profiled = sensei.profile(video);
  std::printf("Profiling: %zu renderings, %zu ratings, %zu participants\n",
              profiled.profile.renderings_rated, profiled.profile.ratings_collected,
              profiled.profile.participants);
  std::printf("Cost: $%.2f (%.1f min of video), elapsed ~%.0f minutes\n\n",
              profiled.profile.cost_usd, source.duration_s() / 60.0,
              profiled.profile.elapsed_minutes);

  // 3. Stream with each ABR and score the outcome with the oracle. The
  //    timeline engine attaches the exact trajectory to every session, so
  //    stall placement (SENSEI's whole premise) is read off it directly.
  sim::Player player;
  util::Table table({"ABR", "outcome", "true QoE", "mean Kbps", "rebuffer s", "stalls",
                     "first stall @", "switches"});

  auto evaluate = [&](sim::AbrPolicy& policy, const std::vector<double>& weights) {
    sim::SessionResult session = player.stream(video, trace, policy, weights);
    double qoe = oracle.score(session.to_rendered(video));
    qoe::StallProfile stalls = qoe::stall_profile(*session.timeline());
    // Surface how the session ended: on an outage the link died mid-stream,
    // the session truncated, and the QoE below covers only the delivered
    // prefix — printing it unlabeled would overstate the experience.
    std::string outcome =
        session.outcome() == sim::SessionOutcome::kOutage
            ? "OUTAGE@" + std::to_string(session.chunks().size()) + "/" +
                  std::to_string(video.num_chunks())
            : std::string("completed");
    table.add_row({policy.name(), outcome, util::Table::format_double(qoe, 3),
                   util::Table::format_double(session.mean_bitrate_kbps(), 0),
                   util::Table::format_double(session.total_rebuffer_s(), 1),
                   std::to_string(stalls.stall_event_count),
                   stalls.first_stall_wall_s < 0.0
                       ? std::string("-")
                       : util::Table::format_double(stalls.first_stall_wall_s, 1) + "s",
                   std::to_string(session.switch_count())});
    return qoe;
  };

  // Both controllers come from the policy registry (spec grammar in
  // abr/registry.h) — the same strings work in the benches and the fleet.
  auto fugu = abr::make_policy("fugu");
  auto sensei_fugu = abr::make_policy("sensei-fugu");
  double base = evaluate(*fugu, {});
  double ours = evaluate(*sensei_fugu, profiled.profile.weights);

  std::printf("%s\n", table.to_string().c_str());
  std::printf("SENSEI-Fugu QoE gain over Fugu: %+.1f%%\n",
              base > 0 ? (ours - base) / base * 100.0 : 0.0);
  return 0;
}
