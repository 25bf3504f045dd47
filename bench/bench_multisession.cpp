// Multi-session simulator bench: identity, determinism and accuracy rows
// for concurrent contending viewers on shared bottlenecks. Emits
// machine-readable BENCH_multisession.json (schema in bench/README.md).
// Stdout is a pure function of the flags; the thread count goes to stderr.
// Speed is measured by benchmark/, not here.
//
//   ./bench_multisession                       full sweep
//   ./bench_multisession --smoke               reduced sweep for CI
//   ./bench_multisession --out FILE            JSON destination
//   ./bench_multisession --threads N           ExperimentRunner pool size
//   ./bench_multisession --policy SPEC         extra scale scenario (repeatable)
//
// Three sections:
//  1. identity — single sessions driven through the Simulator on a
//     dedicated link, diffed field-by-field against Player::stream (the
//     tests/test_simulator.cpp gate, re-run here on every bench); any diff
//     fails the process.
//  2. grid — Experiments::run_multisession_grid cells printed as
//     deterministic "grid ..." rows. CI diffs these across --threads 1/4:
//     they must be byte-identical.
//  3. scale — staggered-arrival contention scenarios on one shared
//     bottleneck sized N x a per-viewer fair share, up to >= 1000 concurrent
//     sessions. Fugu runs twice, once per planner mode (dp = exact, vi =
//     discretized value iteration), and the JSON pins the vi-vs-dp
//     mean-QoE delta ("fugu_compare"); the Whittle index policy runs the
//     same population and is pinned against Fugu-vi ("whittle_compare").
//
// Every policy is built from an abr::PolicyRegistry spec string; extra
// `--policy SPEC` flags append scale scenarios without recompiling.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abr/planner.h"
#include "abr/registry.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "sim/simulator.h"

using namespace sensei;

namespace {

struct CellAggregate {
  size_t sessions = 0;
  size_t chunks = 0;
  size_t outages = 0;
  double mean_bitrate_kbps = 0.0;
  double total_rebuffer_s = 0.0;
  double dl_checksum_s = 0.0;  // sum of download times: a bit-level digest
};

CellAggregate aggregate(const std::vector<sim::MultiSessionResult>& cell) {
  CellAggregate agg;
  agg.sessions = cell.size();
  double bitrate_sum = 0.0;
  for (const sim::MultiSessionResult& r : cell) {
    agg.chunks += r.session.chunks().size();
    if (r.session.outcome() == sim::SessionOutcome::kOutage) ++agg.outages;
    bitrate_sum += r.session.mean_bitrate_kbps();
    agg.total_rebuffer_s += r.session.total_rebuffer_s();
    for (const sim::ChunkRecord& c : r.session.chunks()) agg.dl_checksum_s += c.download_time_s;
  }
  agg.mean_bitrate_kbps = cell.empty() ? 0.0 : bitrate_sum / static_cast<double>(cell.size());
  return agg;
}

// Mean per-chunk QoE over every session in a run, under the default chunk
// quality parameters: the fixed yardstick behind the discretized-vs-exact
// delta pinned in the JSON. Stalls are charged as recorded (rebuffer_s
// already includes the scheduled portion).
double mean_chunk_qoe(const std::vector<sim::MultiSessionResult>& results) {
  qoe::ChunkQualityParams params;
  double sum = 0.0;
  size_t n = 0;
  for (const sim::MultiSessionResult& r : results) {
    const auto& chunks = r.session.chunks();
    for (size_t i = 0; i < chunks.size(); ++i) {
      double prev_vq = i > 0 ? chunks[i - 1].visual_quality : chunks[i].visual_quality;
      sum += qoe::chunk_quality(chunks[i].visual_quality, chunks[i].rebuffer_s, prev_vq,
                                params);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// Peak number of sessions simultaneously in flight (arrival to last event).
size_t peak_concurrency(const std::vector<sim::MultiSessionResult>& results) {
  std::vector<std::pair<double, int>> edges;
  edges.reserve(results.size() * 2);
  for (const sim::MultiSessionResult& r : results) {
    double duration = r.session.timeline() != nullptr ? r.session.timeline()->duration_s() : 0.0;
    edges.push_back({r.start_s, +1});
    edges.push_back({r.start_s + duration, -1});
  }
  std::sort(edges.begin(), edges.end());
  size_t peak = 0;
  long cur = 0;
  for (const auto& e : edges) {
    cur += e.second;
    peak = std::max(peak, static_cast<size_t>(std::max(0L, cur)));
  }
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {"--out", "--threads", "--policy"}, {"--smoke"},
                     "bench_multisession [--smoke] [--out FILE] [--threads N] "
                     "[--policy SPEC]...");
  const bool smoke = bench::smoke_arg(argc, argv);
  const std::string out_path = bench::out_arg(argc, argv, "BENCH_multisession.json");
  core::ExperimentRunner runner(bench::threads_arg(argc, argv));
  std::fprintf(stderr,
               "bench_multisession: %zu thread(s) build the grid cells; the scale event "
               "loop is serial\n",
               runner.num_threads());

  // ---- 1. identity: Simulator (dedicated, single session) vs Player ------
  size_t identity_cells = 0;
  size_t identity_diffs = 0;
  {
    std::vector<media::EncodedVideo> videos;
    media::Encoder encoder;
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("MsIdA", media::Genre::kSports, 120)));
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("MsIdB", media::Genre::kNature, 120)));
    std::vector<net::ThroughputTrace> traces = {
        net::TraceGenerator::cellular("ms-id-cell", 900, 500.0, 41),
        net::TraceGenerator::broadband("ms-id-bb", 2800, 500.0, 42),
        net::ThroughputTrace("ms-id-cliff", std::vector<double>(40, 3200.0), 1.0).as_finite(),
    };
    sim::PlayerConfig config;
    for (const media::EncodedVideo& video : videos) {
      for (const net::ThroughputTrace& trace : traces) {
        for (const char* policy_spec : {"bba", "fugu"}) {
          auto make = [policy_spec] { return abr::make_policy(policy_spec); };
          auto player_policy = make();
          sim::SessionResult expected =
              sim::Player(config).stream(video, trace, *player_policy);
          auto sim_policy = make();
          sim::SessionSpec spec;
          spec.video = &video;
          spec.policy = sim_policy.get();
          auto got = sim::Simulator(config).run({spec}, trace, sim::LinkMode::kDedicated);
          ++identity_cells;
          identity_diffs += bench::sessions_differ(expected, got[0].session) ? 1 : 0;
        }
      }
    }
  }
  std::printf("identity: %zu single-session Simulator-vs-Player cells, %zu diffs\n\n",
              identity_cells, identity_diffs);

  // ---- 2. deterministic multi-session grid (CI diffs these rows) ----------
  struct GridRow {
    core::Experiments::MultiSessionCell cell;
    CellAggregate agg;
  };
  std::vector<GridRow> grid_rows;
  {
    std::vector<core::Experiments::MultiSessionCell> cells;
    const std::vector<size_t> trace_indexes =
        smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 7};
    const size_t grid_sessions = smoke ? 6 : 12;
    for (size_t trace_index : trace_indexes) {
      for (sim::LinkMode mode : {sim::LinkMode::kShared, sim::LinkMode::kDedicated}) {
        core::Experiments::MultiSessionCell cell;
        cell.trace_index = trace_index;
        cell.num_sessions = grid_sessions;
        cell.stagger_s = 5.0;
        cell.mode = mode;
        cells.push_back(cell);
      }
    }
    auto results = core::Experiments::run_multisession_grid(
        cells, core::Experiments::policy_factory("bba"), false, runner);
    for (size_t c = 0; c < cells.size(); ++c) {
      grid_rows.push_back({cells[c], aggregate(results[c])});
      const GridRow& row = grid_rows.back();
      std::printf("grid trace=%s mode=%s sessions=%zu stagger=%.1f outages=%zu chunks=%zu "
                  "mean_kbps=%.9g rebuffer_s=%.9g dl_checksum=%.9g\n",
                  core::Experiments::traces()[row.cell.trace_index].name().c_str(),
                  sim::to_string(row.cell.mode), row.agg.sessions, row.cell.stagger_s,
                  row.agg.outages, row.agg.chunks, row.agg.mean_bitrate_kbps,
                  row.agg.total_rebuffer_s, row.agg.dl_checksum_s);
    }
    std::printf("\n");
  }

  // ---- 3. scale: contention scenarios up to >= 1000 concurrent sessions ---
  struct ScenarioRow {
    std::string spec;     // the registry spec as given on the scenario
    std::string policy;   // canonical registry name
    std::string planner;  // planner key for the fugu family, "-" otherwise
    size_t sessions = 0;
    double stagger_s = 0.0;
    CellAggregate agg;
    size_t peak_concurrent = 0;
    double sim_duration_s = 0.0;
    double mean_qoe = 0.0;
  };
  std::vector<ScenarioRow> scenario_rows;
  {
    media::Encoder encoder;
    std::vector<media::EncodedVideo> videos;
    const media::Genre genres[] = {media::Genre::kSports, media::Genre::kNature,
                                   media::Genre::kGaming, media::Genre::kAnimation};
    for (size_t i = 0; i < 4; ++i) {
      videos.push_back(encoder.encode(media::SourceVideo::generate(
          "MsScale" + std::to_string(i), genres[i], 120.0)));
    }
    std::vector<const media::EncodedVideo*> video_ptrs;
    for (const auto& v : videos) video_ptrs.push_back(&v);
    net::ThroughputTrace base = net::TraceGenerator::cellular("ms-bottleneck", 1700, 500.0, 77);

    struct ScenarioSpec {
      std::string spec;  // registry spec string
      size_t sessions;
    };
    // Fugu runs the same population once per planner mode (dp = exact
    // baseline, vi = discretized) so the JSON can pin the QoE delta;
    // whittle runs it too for whittle_compare.
    std::vector<ScenarioSpec> scenarios =
        smoke ? std::vector<ScenarioSpec>{{"bba", 50},
                                          {"bba", 200},
                                          {"fugu:planner=dp", 40},
                                          {"fugu:planner=vi", 40},
                                          {"whittle", 40}}
              : std::vector<ScenarioSpec>{{"bba", 100},
                                          {"fugu:planner=dp", 100},
                                          {"fugu:planner=vi", 100},
                                          {"whittle", 100},
                                          {"bba", 400},
                                          {"bba", 1000}};
    // Extra `--policy SPEC` scenarios append at the smoke fugu population
    // size so a one-off policy is comparable against the pinned rows.
    for (const std::string& spec : bench::policy_specs_arg(argc, argv)) {
      scenarios.push_back({spec, smoke ? size_t{40} : size_t{100}});
    }
    std::printf("scale: staggered arrivals on a shared bottleneck of N x 1700 Kbps\n");
    std::printf("%18s %8s %9s %10s %8s\n", "policy", "planner", "sessions", "peak",
                "outages");
    const abr::PolicyRegistry& registry = abr::PolicyRegistry::instance();
    for (const ScenarioSpec& scenario : scenarios) {
      // Canonicalize once per scenario: the display columns (name, planner
      // mode) come from the canonical form, construction from the registry.
      abr::PolicySpec canonical =
          registry.canonicalize(abr::PolicySpec::parse(scenario.spec));
      const std::string* planner_value = canonical.find("planner");
      // Bottleneck sized for a ~1700 Kbps per-viewer fair share, like a CDN
      // edge serving N concurrent players.
      net::ThroughputTrace bottleneck = base.scaled(
          static_cast<double>(scenario.sessions),
          "ms-bottleneck-x" + std::to_string(scenario.sessions));
      // All arrivals inside a 50 s window: shorter than any session lives,
      // so the whole population is genuinely concurrent at its peak.
      const double stagger_s = 50.0 / static_cast<double>(scenario.sessions);
      std::vector<std::unique_ptr<sim::AbrPolicy>> policies;
      std::vector<sim::AbrPolicy*> policy_ptrs;
      for (size_t k = 0; k < scenario.sessions; ++k) {
        policies.push_back(registry.make(canonical));
        policy_ptrs.push_back(policies.back().get());
      }
      auto specs = sim::StaggeredSpecs{video_ptrs, policy_ptrs, {}, scenario.sessions,
                                       stagger_s}
                       .build();
      auto results = sim::Simulator().run(specs, bottleneck, sim::LinkMode::kShared);

      ScenarioRow row;
      row.spec = scenario.spec;
      row.policy = canonical.name;
      row.planner = planner_value != nullptr ? *planner_value : "-";
      row.sessions = scenario.sessions;
      row.stagger_s = stagger_s;
      row.agg = aggregate(results);
      row.peak_concurrent = peak_concurrency(results);
      row.mean_qoe = mean_chunk_qoe(results);
      for (const sim::MultiSessionResult& r : results) {
        if (r.session.timeline() != nullptr) {
          row.sim_duration_s =
              std::max(row.sim_duration_s, r.start_s + r.session.timeline()->duration_s());
        }
      }
      scenario_rows.push_back(row);
      std::printf("%18s %8s %9zu %10zu %8zu\n", row.policy.c_str(), row.planner.c_str(),
                  row.sessions, row.peak_concurrent, row.agg.outages);
    }
  }

  // ---- JSON ---------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"multisession\",\n");
  std::fprintf(f, "  \"schema_version\": 5,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"config\": {\"threads\": %zu},\n", runner.num_threads());
  std::fprintf(f, "  \"identity\": {\"cells\": %zu, \"diffs\": %zu},\n", identity_cells,
               identity_diffs);
  std::fprintf(f, "  \"grid\": [\n");
  for (size_t i = 0; i < grid_rows.size(); ++i) {
    const GridRow& row = grid_rows[i];
    std::fprintf(f,
                 "    {\"trace\": \"%s\", \"mode\": \"%s\", \"sessions\": %zu, "
                 "\"stagger_s\": %.1f, \"outages\": %zu, \"chunks\": %zu, "
                 "\"mean_bitrate_kbps\": %.6f, \"total_rebuffer_s\": %.6f}%s\n",
                 core::Experiments::traces()[row.cell.trace_index].name().c_str(),
                 sim::to_string(row.cell.mode), row.agg.sessions, row.cell.stagger_s,
                 row.agg.outages, row.agg.chunks, row.agg.mean_bitrate_kbps,
                 row.agg.total_rebuffer_s, i + 1 < grid_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  size_t max_sessions = 0;
  for (size_t i = 0; i < scenario_rows.size(); ++i) {
    const ScenarioRow& row = scenario_rows[i];
    max_sessions = std::max(max_sessions, row.peak_concurrent);
    std::fprintf(f,
                 "    {\"spec\": \"%s\", \"policy\": \"%s\", \"planner\": \"%s\", "
                 "\"sessions\": %zu, \"peak_concurrent\": %zu, "
                 "\"stagger_s\": %.6g, \"link\": \"shared\", \"chunks\": %zu, "
                 "\"outages\": %zu, \"sim_duration_s\": %.1f, \"mean_qoe\": %.6f}%s\n",
                 row.spec.c_str(), row.policy.c_str(), row.planner.c_str(), row.sessions,
                 row.peak_concurrent, row.stagger_s, row.agg.chunks, row.agg.outages,
                 row.sim_duration_s, row.mean_qoe, i + 1 < scenario_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Discretized-vs-exact comparison over the paired Fugu scenarios: what
  // the vi planner costs in mean per-chunk QoE against the bit-exact dp
  // baseline.
  const ScenarioRow* dp_row = nullptr;
  const ScenarioRow* vi_row = nullptr;
  const ScenarioRow* whittle_row = nullptr;
  for (const ScenarioRow& row : scenario_rows) {
    if (row.policy == "whittle" && whittle_row == nullptr) whittle_row = &row;
    if (row.policy != "fugu") continue;
    if (row.planner == "dp" && dp_row == nullptr) dp_row = &row;
    if (row.planner == "vi" && vi_row == nullptr) vi_row = &row;
  }
  {
    if (dp_row != nullptr && vi_row != nullptr) {
      std::fprintf(f,
                   "  \"fugu_compare\": {\"sessions\": %zu, "
                   "\"dp_mean_qoe\": %.6f, \"vi_mean_qoe\": %.6f, "
                   "\"qoe_delta_vs_exact\": %.6f, \"vi_quantum_s\": %g},\n",
                   dp_row->sessions, dp_row->mean_qoe, vi_row->mean_qoe,
                   vi_row->mean_qoe - dp_row->mean_qoe, abr::kDefaultViBufferQuantumS);
      std::printf("\nfugu_compare: qoe delta vs exact %+.4f\n",
                  vi_row->mean_qoe - dp_row->mean_qoe);
    } else {
      std::fprintf(f, "  \"fugu_compare\": null,\n");
    }
  }

  // The index policy's mean-QoE delta against the fleet-scale Fugu-vi it
  // displaces in the workload mix.
  {
    if (whittle_row != nullptr && vi_row != nullptr) {
      std::fprintf(f,
                   "  \"whittle_compare\": {\"sessions\": %zu, "
                   "\"whittle_mean_qoe\": %.6f, \"qoe_delta_vs_fugu_vi\": %.6f},\n",
                   whittle_row->sessions, whittle_row->mean_qoe,
                   whittle_row->mean_qoe - vi_row->mean_qoe);
      std::printf("whittle_compare: qoe delta vs fugu-vi %+.4f\n",
                  whittle_row->mean_qoe - vi_row->mean_qoe);
    } else {
      std::fprintf(f, "  \"whittle_compare\": null,\n");
    }
  }
  std::fprintf(f,
               "  \"summary\": {\"max_concurrent_sessions\": %zu, \"identity_diffs\": %zu}\n",
               max_sessions, identity_diffs);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (identity_diffs > 0) {
    std::fprintf(stderr, "error: Simulator vs Player identity violated (%zu diffs)\n",
                 identity_diffs);
    return 1;
  }
  return 0;
}
