// One driver for the SENSEI paper's (NSDI'21) tables and figures:
//
//   bench_figures --fig NAME [--threads N] [--planner dp|vi]
//
// NAME is one of the names in kFigures below, or `all` for every figure in
// paper order. Each figure prints its rows to stdout; the output depends
// only on the flags. One timing line, fixture building vs figure work, goes
// to stderr.
//
// Figs. 12a, 12c, 13, 14 and 18 score one evaluation matrix (§7.1): the 16
// Table-1 videos x the 10 evaluation traces under each ABR, one
// Experiments::run_grid per policy spec, built on first use and shared.
// `--threads N` sizes the core::ExperimentRunner behind the matrix and Fig.
// 12b's sweep (default: all hardware threads); their cells are bit-identical
// at any thread count. `--planner` picks the Fugu lookahead engine of the
// matrix and of Fig. 12b. dp (default) is exact
// (tests/test_oracle_grids.cpp holds it to the exhaustive reference on these
// grids). vi is the lossy discretized value iteration: output may
// legitimately shift within the accuracy bound pinned by
// tests/test_planner_accuracy.cpp, so CI treats dp-vs-vi diffs as
// informational, never as a determinism failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "abr/offline_optimal.h"
#include "abr/registry.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "crowd/campaign.h"
#include "crowd/scheduler.h"
#include "cv/cv_models.h"
#include "qoe/lstm_qoe.h"
#include "qoe/metrics.h"
#include "qoe/p1203.h"
#include "qoe/sensei_qoe.h"
#include "sim/render.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

namespace {

// Crowdsourced MOS for a set of renderings of one source video: runs a
// simulated MTurk campaign against the pristine reference, as §4.1 does.
std::vector<double> crowdsourced_mos(const crowd::GroundTruthQoE& oracle,
                                     const media::EncodedVideo& video,
                                     const std::vector<sim::RenderedVideo>& renderings,
                                     size_t ratings_per_video, uint64_t seed) {
  crowd::Campaign campaign(oracle, crowd::RaterConfig(), crowd::CampaignConfig(), seed);
  auto reference = sim::RenderedVideo::pristine(video);
  return campaign.run(renderings, reference, ratings_per_video).mos;
}

// Prints an empirical CDF as "value fraction" rows at the given quantiles.
void print_cdf(const std::string& title, const std::vector<double>& values) {
  std::printf("%s", util::banner(title).c_str());
  util::Table table({"percentile", "value"});
  for (double p : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0}) {
    table.add_row(std::vector<double>{p, util::percentile(values, p)}, 2);
  }
  std::printf("%s\n", table.to_string().c_str());
}

// One evaluation cell's QoE gain over BBA, in percent.
struct Gain {
  size_t video;
  size_t trace;
  double pct;
};

// Mean of the gains whose `axis` (&Gain::video or &Gain::trace) is `index`.
double mean_gain(const std::vector<Gain>& gains, size_t Gain::*axis, size_t index) {
  util::MergeableAccumulator acc;
  for (const Gain& g : gains) {
    if (g.*axis == index) acc.add(g.pct);
  }
  return acc.mean();
}

std::vector<double> pcts(const std::vector<Gain>& gains) {
  std::vector<double> out;
  for (const Gain& g : gains) out.push_back(g.pct);
  return out;
}

// sensei-* policies stream with the profiled sensitivity weights.
bool weighted(const std::string& name) { return name.rfind("sensei-", 0) == 0; }

// State shared by the figures of one process: the flags and the lazily
// built evaluation matrix.
class Context {
 public:
  Context(size_t threads, abr::PlannerKind planner) : runner_(threads), planner_(planner) {}

  const core::ExperimentRunner& runner() const { return runner_; }

  // The registry spec of policy `name`; the Fugu family gets the --planner.
  std::string spec(const std::string& name) const {
    if (name.find("fugu") == std::string::npos) return name;
    return name + (planner_ == abr::PlannerKind::kVi ? ":planner=vi" : ":planner=dp");
  }

  // The evaluation matrix row of policy `name` over videos() x traces(),
  // cell (v, t) at v * traces().size() + t.
  const std::vector<Experiments::RunResult>& grid(const std::string& name) {
    auto it = grids_.find(name);
    if (it != grids_.end()) return it->second;
    const double start = bench::now_s();
    auto cells = Experiments::run_grid(Experiments::policy_factory(spec(name)), weighted(name),
                                       runner_);
    matrix_s += bench::now_s() - start;
    matrix_sessions += cells.size();
    return grids_.emplace(name, std::move(cells)).first->second;
  }

  // Policy `name`'s gain over BBA on every matrix cell, in cell order. A
  // cell where BBA scores below 0.02 is skipped: its ratio would explode on
  // a degenerate run.
  std::vector<Gain> gains_over_bba(const std::string& name) {
    const auto& bba = grid("bba");
    const auto& cells = grid(name);
    const size_t num_traces = Experiments::traces().size();
    std::vector<Gain> out;
    for (size_t i = 0; i < cells.size(); ++i) {
      const double q_bba = bba[i].true_qoe;
      if (q_bba < 0.02) continue;
      out.push_back({i / num_traces, i % num_traces, (cells[i].true_qoe - q_bba) / q_bba * 100.0});
    }
    return out;
  }

  double matrix_s = 0.0;
  size_t matrix_sessions = 0;

 private:
  core::ExperimentRunner runner_;
  abr::PlannerKind planner_;
  std::map<std::string, std::vector<Experiments::RunResult>> grids_;
};

// Table 1: summary of the test video set (names, genres, lengths, source
// datasets), plus the synthesized per-video content statistics our substrate
// generates for each entry.
void table_1(Context&) {
  std::printf("%s", util::banner("Table 1: summary of the test video set").c_str());
  util::Table table({"name", "genre", "length", "source dataset", "chunks",
                     "sens mean", "sens sd", "key moments"});
  for (const auto& entry : media::Dataset::table1()) {
    media::SourceVideo video = media::Dataset::by_name(entry.name);
    auto s = video.true_sensitivity();
    int keys = 0;
    for (const auto& c : video.chunks()) {
      keys += c.kind == media::SceneKind::kKeyMoment ? 1 : 0;
    }
    table.add_row({entry.name, media::to_string(entry.genre), video.length_string(),
                   entry.source_dataset, std::to_string(video.num_chunks()),
                   util::Table::format_double(util::mean(s), 2),
                   util::Table::format_double(util::stddev(s), 2), std::to_string(keys)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("descriptions (Figure 19):\n");
  for (const auto& entry : media::Dataset::table1()) {
    std::printf("  %-13s %s\n", entry.name.c_str(), entry.description.c_str());
  }
}

// Figure 1: MOS of Soccer1 renderings with a 1-second rebuffering event at
// different positions. The paper reports a >40% gap between the best and
// worst positions, with the minimum at the goal.
void fig_1(Context&) {
  media::SourceVideo clip = media::Dataset::soccer1_clip();
  media::EncodedVideo video = media::Encoder().encode(clip);
  crowd::GroundTruthQoE oracle;

  auto series = sim::rebuffer_series(video, 1.0);
  // >30 ratings per rendering, as in §2.2's ground-truth protocol.
  auto mos = crowdsourced_mos(oracle, video, series, 32, 1);

  std::printf("%s", util::banner(
                        "Figure 1: QoE (MOS) vs position of a 1-second rebuffering "
                        "(Soccer1 clip)")
                        .c_str());
  util::Table table({"rebuffer at (s)", "scene", "MOS", "true sensitivity"});
  for (size_t i = 0; i < series.size(); ++i) {
    table.add_row({util::Table::format_double(static_cast<double>(i) * 4.0, 0),
                   media::to_string(clip.chunk(i).kind),
                   util::Table::format_double(mos[i], 2),
                   util::Table::format_double(clip.chunk(i).sensitivity, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  double qmax = util::max_of(mos), qmin = util::min_of(mos);
  size_t worst = 0;
  for (size_t i = 0; i < mos.size(); ++i) {
    if (mos[i] == qmin) worst = i;
  }
  std::printf("max-min MOS gap: %.1f%% (paper: >40%% for this clip)\n",
              (qmax - qmin) / qmin * 100.0);
  std::printf("lowest MOS at chunk %zu (%s) — paper: during the goal\n", worst,
              media::to_string(clip.chunk(worst).kind).c_str());
}

// Figure 2: QoE prediction error (x-axis) and fraction of discordant ABR
// pairs (y-axis) for the baseline QoE models vs SENSEI.
//
// Reproduces §2.2's protocol: 16 videos x 7 traces x 3 ABR algorithms =
// 336 rendered sessions, ground-truth MOS crowdsourced per rendering, models
// trained on one split and evaluated on the other.
void fig_2(Context&) {
  const auto& videos = Experiments::videos();
  const auto& oracle = Experiments::oracle();
  const auto& weights = Experiments::weights();
  auto traces = net::TraceGenerator::motivation_set();

  // --- Render 336 sessions (16 videos x 7 traces x 3 ABRs). ---
  abr::BbaAbr bba;
  auto fugu = abr::make_policy("fugu");
  auto& pensieve = Experiments::pensieve();
  std::vector<sim::AbrPolicy*> abrs = {&bba, fugu.get(), &pensieve};

  struct Cell {
    size_t video;
    std::vector<sim::RenderedVideo> renderings;  // one per ABR
    std::vector<double> mos;
  };
  std::vector<Cell> cells;
  sim::Player player;
  crowd::RaterPool raters(crowd::RaterConfig(), 77);
  for (size_t v = 0; v < videos.size(); ++v) {
    for (const auto& trace : traces) {
      Cell cell;
      cell.video = v;
      for (auto* abr : abrs) {
        auto session = player.stream(videos[v], trace, *abr);
        cell.renderings.push_back(session.to_rendered(videos[v]));
      }
      // Ground-truth MOS: mean of 30 simulated ratings per rendering.
      for (const auto& r : cell.renderings) {
        double truth = oracle.score(r);
        double stars = 0.0;
        for (int k = 0; k < 30; ++k) {
          auto rater = raters.recruit();
          stars += raters.rate(rater, truth).stars;
        }
        cell.mos.push_back(crowd::RaterPool::stars_to_unit(stars / 30.0));
      }
      cells.push_back(std::move(cell));
    }
  }

  // --- Train/test split over flattened renderings (paper: 315/21). ---
  std::vector<sim::RenderedVideo> all_videos;
  std::vector<double> all_mos;
  std::vector<std::vector<double>> all_weights;
  for (const auto& cell : cells) {
    for (size_t a = 0; a < cell.renderings.size(); ++a) {
      all_videos.push_back(cell.renderings[a]);
      all_mos.push_back(cell.mos[a]);
      all_weights.push_back(weights[cell.video]);
    }
  }
  const size_t n = all_videos.size();
  const size_t test_start = n - n / 16;  // hold out ~6% as in the paper (21/336)
  std::vector<sim::RenderedVideo> train(all_videos.begin(),
                                        all_videos.begin() + static_cast<long>(test_start));
  std::vector<double> train_mos(all_mos.begin(),
                                all_mos.begin() + static_cast<long>(test_start));
  std::vector<double> test_mos(all_mos.begin() + static_cast<long>(test_start),
                               all_mos.end());

  // --- Models. SENSEI uses each test rendering's own per-video weights. ---
  qoe::SenseiQoeModel ksqi;  // no weights: KSQI
  qoe::P1203Model p1203;
  qoe::LstmQoeModel lstm(12, 30, 0.01, 26);
  ksqi.train(train, train_mos);
  p1203.train(train, train_mos);
  lstm.train(train, train_mos);

  auto sensei_predict = [&](const sim::RenderedVideo& v, size_t flat_index) {
    qoe::SenseiQoeModel model(all_weights[flat_index]);
    model.train(train, train_mos);  // affine calibration shared across videos
    return model.predict(v);
  };

  const char* names[] = {"SENSEI", "KSQI", "LSTM-QoE", "P.1203"};
  std::vector<std::vector<double>> pred_test(4);
  for (size_t i = test_start; i < n; ++i) {
    pred_test[0].push_back(sensei_predict(all_videos[i], i));
    pred_test[1].push_back(ksqi.predict(all_videos[i]));
    pred_test[2].push_back(lstm.predict(all_videos[i]));
    pred_test[3].push_back(p1203.predict(all_videos[i]));
  }
  // Discordant ABR pairs evaluated over all cells.
  std::vector<std::vector<qoe::AbrRankingCell>> ranking(4);
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    qoe::AbrRankingCell rc_sensei, rc_ksqi, rc_lstm, rc_p1203;
    for (size_t a = 0; a < cell.renderings.size(); ++a) {
      size_t flat = c * 3 + a;
      rc_sensei.true_qoe.push_back(cell.mos[a]);
      rc_ksqi.true_qoe.push_back(cell.mos[a]);
      rc_lstm.true_qoe.push_back(cell.mos[a]);
      rc_p1203.true_qoe.push_back(cell.mos[a]);
      rc_sensei.predicted_qoe.push_back(sensei_predict(cell.renderings[a], flat));
      rc_ksqi.predicted_qoe.push_back(ksqi.predict(cell.renderings[a]));
      rc_lstm.predicted_qoe.push_back(lstm.predict(cell.renderings[a]));
      rc_p1203.predicted_qoe.push_back(p1203.predict(cell.renderings[a]));
    }
    ranking[0].push_back(rc_sensei);
    ranking[1].push_back(rc_ksqi);
    ranking[2].push_back(rc_lstm);
    ranking[3].push_back(rc_p1203);
  }

  std::printf("%s", util::banner(
                        "Figure 2: QoE prediction error vs discordant ABR pairs "
                        "(336 rendered sessions)")
                        .c_str());
  util::Table table({"model", "relative error %", "discordant pairs %"});
  for (size_t m = 0; m < 4; ++m) {
    double err = util::mean_relative_error(pred_test[m], test_mos) * 100.0;
    double disc = qoe::discordant_pair_fraction(ranking[m]) * 100.0;
    table.add_row({names[m], util::Table::format_double(err, 1),
                   util::Table::format_double(disc, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\n(paper: SENSEI sits closest to the origin; even the best baseline has "
      ">10%% error and >10%% discordant pairs)\n");
}

// Builds the three §2.3 incident series for one video.
std::vector<std::vector<sim::RenderedVideo>> build_series(const media::EncodedVideo& video) {
  return {
      sim::rebuffer_series(video, 1.0),
      sim::rebuffer_series(video, 4.0),
      sim::bitrate_drop_series(video, 0, 1),  // 300 Kbps for one 4-s chunk
  };
}

double relative_gap(const std::vector<double>& qoe) {
  double lo = util::min_of(qoe), hi = util::max_of(qoe);
  return lo > 0 ? (hi - lo) / lo * 100.0 : 0.0;
}

// Figure 3: CDF of the max-min QoE gap when a low-quality incident (1-s
// rebuffering, 4-s rebuffering, or a 4-s bitrate drop) is injected at
// different positions in the same video — whole-video and 12-second-window
// variants. Paper: 21 of 48 series exceed a 40% gap.
void fig_3(Context&) {
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  std::vector<double> whole_video_gaps;
  std::vector<double> window_gaps;
  int over40 = 0, total = 0;
  uint64_t seed = 100;

  for (const auto& source : media::Dataset::test_set()) {
    media::EncodedVideo video = encoder.encode(source);
    for (auto& series : build_series(video)) {
      auto mos = crowdsourced_mos(oracle, video, series, 12, seed++);
      double gap = relative_gap(mos);
      whole_video_gaps.push_back(gap);
      ++total;
      if (gap > 40.0) ++over40;

      // 12-second-window variant: gaps among positions within each window of
      // 3 chunks, stepped at 4-second boundaries.
      for (size_t start = 0; start + 3 <= mos.size(); start += 1) {
        std::vector<double> window(mos.begin() + static_cast<long>(start),
                                   mos.begin() + static_cast<long>(start + 3));
        window_gaps.push_back(relative_gap(window));
      }
    }
  }

  print_cdf("Figure 3: max-min QoE gap CDF, whole video (48 series)", whole_video_gaps);
  print_cdf("Figure 3: max-min QoE gap CDF, 12-second windows", window_gaps);
  std::printf("series with gap > 40%%: %d of %d (paper: 21 of 48)\n", over40, total);
  std::printf("mean whole-video gap: %.1f%% (paper: ~42%% average, up to 121%%)\n",
              util::mean(whole_video_gaps));
}

// Figure 4: QoE vs incident position for three incident types on the
// Soccer1 clip. The paper's observation: absolute QoE depends on the
// incident, the *ranking over positions* does not.
void fig_4(Context&) {
  media::SourceVideo clip = media::Dataset::soccer1_clip();
  media::EncodedVideo video = media::Encoder().encode(clip);
  crowd::GroundTruthQoE oracle;

  auto mos1 = crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 1.0), 24, 41);
  auto mos4 = crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 4.0), 24, 42);
  auto mosd = crowdsourced_mos(oracle, video, sim::bitrate_drop_series(video, 0, 1), 24, 43);

  std::printf("%s", util::banner("Figure 4: QoE vs incident position (Soccer1 clip)")
                        .c_str());
  util::Table table(
      {"position (s)", "(a) 1-s rebuffering", "(b) 4-s rebuffering", "(c) bitrate drop"});
  for (size_t i = 0; i < mos1.size(); ++i) {
    table.add_row(std::vector<double>{static_cast<double>(i) * 4.0, mos1[i], mos4[i],
                                      mosd[i]},
                  2);
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("4-s rebuffering is uniformly worse than 1-s: %s\n",
              util::mean(mos4) < util::mean(mos1) ? "yes" : "NO");
  std::printf("rank correlation (1-s vs 4-s rebuffering):  SRCC=%.2f\n",
              util::spearman(mos1, mos4));
  std::printf("rank correlation (1-s rebuf vs bitrate drop): SRCC=%.2f\n",
              util::spearman(mos1, mosd));
  std::printf("(paper: the ranking over positions is identical across incidents)\n");
}

// Figure 5: rank correlation (Spearman) between QoE series generated with
// different incident types, per source video. The paper finds strong rank
// correlation across incident types, supporting the single-weight-per-chunk
// abstraction.
void fig_5(Context&) {
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;

  std::printf("%s", util::banner(
                        "Figure 5: QoE rank correlation between quality incidents, "
                        "per source video")
                        .c_str());
  util::Table table({"video", "(a) 1-s vs 4-s rebuffering", "(b) 1-s rebuf vs bitrate drop"});
  std::vector<double> all_a, all_b;
  uint64_t seed = 500;
  for (const auto& source : media::Dataset::test_set()) {
    media::EncodedVideo video = encoder.encode(source);
    auto mos1 = crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 1.0), 24, seed++);
    auto mos4 = crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 4.0), 24, seed++);
    auto mosd =
        crowdsourced_mos(oracle, video, sim::bitrate_drop_series(video, 0, 1), 24, seed++);
    double a = util::spearman(mos1, mos4);
    double b = util::spearman(mos1, mosd);
    all_a.push_back(a);
    all_b.push_back(b);
    table.add_row({source.name(), util::Table::format_double(a, 2),
                   util::Table::format_double(b, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("mean SRCC: (a)=%.2f (b)=%.2f (paper: both strongly positive)\n",
              util::mean(all_a), util::mean(all_b));
}

// Figure 6: potential gains of dynamic-sensitivity awareness under an
// idealized setting — both planners see the whole throughput trace; they
// differ only in the QoE model they maximize (sensitivity-aware vs not).
// Paper: 22-52% higher QoE at the same bandwidth, 39-49% bandwidth savings
// at the same QoE; gains shrink as bandwidth grows.
void fig_6(Context&) {
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
    util::MergeableAccumulator unaware_acc, aware_acc;
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
}

// Figure 12a: distribution (CDF) of QoE gains over BBA for SENSEI, Pensieve
// and Fugu across all 16 videos x 10 traces. Paper: SENSEI's median gain
// ~14.4% vs ~5.7% for Pensieve/Fugu.
void fig_12a(Context& ctx) {
  const std::vector<double> gain_sensei = pcts(ctx.gains_over_bba("sensei-fugu"));
  const std::vector<double> gain_fugu = pcts(ctx.gains_over_bba("fugu"));
  const std::vector<double> gain_pensieve = pcts(ctx.gains_over_bba("pensieve"));
  const std::vector<double> gain_sensei_pen = pcts(ctx.gains_over_bba("sensei-pensieve"));

  print_cdf("Figure 12a: QoE gain over BBA — SENSEI (Sensei-Fugu)", gain_sensei);
  print_cdf("Figure 12a: QoE gain over BBA — Fugu", gain_fugu);
  print_cdf("Figure 12a: QoE gain over BBA — Pensieve", gain_pensieve);
  print_cdf("Figure 12a: QoE gain over BBA — Sensei-Pensieve", gain_sensei_pen);

  std::printf("medians: SENSEI %+.1f%%, Fugu %+.1f%%, Pensieve %+.1f%%, "
              "Sensei-Pensieve %+.1f%%\n",
              util::median(gain_sensei), util::median(gain_fugu),
              util::median(gain_pensieve), util::median(gain_sensei_pen));
  std::printf("(paper: SENSEI median +14.4%%, Pensieve/Fugu ~+5.7%%; our RL substrate "
              "is weaker than A3C, so the Fugu family carries the headline here — see "
              "README.md, Substitutions and fidelity)\n");
}

// Mean true QoE per bandwidth scale for one policy: one run_grid over
// (videos × scaled traces), then a column average per trace.
std::vector<double> qoe_per_scale(Context& ctx, const std::string& name,
                                  const std::vector<net::ThroughputTrace>& scaled) {
  const auto& videos = Experiments::videos();
  auto cells = Experiments::run_grid(
      videos, scaled, Experiments::policy_factory(ctx.spec(name)),
      weighted(name) ? Experiments::weights() : std::vector<std::vector<double>>{},
      ctx.runner());
  std::vector<double> out;
  for (size_t t = 0; t < scaled.size(); ++t) {
    util::MergeableAccumulator acc;
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

// Figure 12b: QoE vs normalized bandwidth usage — each ABR evaluated on a
// trace scaled by different ratios; bandwidth savings read off horizontally
// at a target QoE. Paper: ~27.9% savings vs Pensieve/Fugu, ~32.1% vs BBA at
// target QoE 0.8 (on their scale).
void fig_12b(Context& ctx) {
  net::ThroughputTrace base_trace = Experiments::traces()[6];  // ~2.7 Mbps broadband
  const std::vector<double> scales = {0.2, 0.35, 0.5, 0.65, 0.8, 1.0};
  std::vector<net::ThroughputTrace> scaled;
  for (double scale : scales) scaled.push_back(base_trace.scaled(scale));

  auto q_sensei = qoe_per_scale(ctx, "sensei-fugu", scaled);
  auto q_pen = qoe_per_scale(ctx, "pensieve", scaled);
  auto q_fugu = qoe_per_scale(ctx, "fugu", scaled);
  auto q_bba = qoe_per_scale(ctx, "bba", scaled);

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
}

// Figure 12c: crowdsourcing cost (USD per minute of video) vs achieved QoE,
// with and without the two-step cost pruning. Paper: pruning cuts cost by
// ~96.7% with only ~3.1% QoE degradation, landing at ~$31.4/min.
void fig_12c(Context& ctx) {
  const auto& oracle = Experiments::oracle();
  // Profile 1-minute clips so cost is naturally USD per minute of video
  // (profiling cost grows with video length; the paper reports per-minute).
  media::Encoder encoder;
  std::vector<media::EncodedVideo> minute_clips;
  for (const auto& source : media::Dataset::test_set()) {
    size_t chunks = std::min<size_t>(15, source.num_chunks());
    minute_clips.push_back(encoder.encode(source.clip(0, chunks, source.name() + "-1min")));
  }

  double pruned_cost = 0.0, full_cost = 0.0, minutes = 0.0;
  std::vector<double> pruned_srcc, full_srcc;
  uint64_t seed = 7000;
  for (const auto& clip : minute_clips) {
    crowd::Scheduler scheduler(oracle, crowd::SchedulerConfig(), seed++);
    auto pruned = scheduler.profile(clip);
    auto full = scheduler.profile_exhaustive(clip, 30);
    pruned_cost += pruned.cost_usd;
    full_cost += full.cost_usd;
    minutes += clip.source().duration_s() / 60.0;
    auto s = clip.source().true_sensitivity();
    pruned_srcc.push_back(util::spearman(pruned.weights, s));
    full_srcc.push_back(util::spearman(full.weights, s));
  }

  // End-to-end QoE of Sensei-Fugu driven by the two-step pruned profiles
  // (Experiments::weights()), averaged over videos and every third trace.
  const auto& cells = ctx.grid("sensei-fugu");
  const size_t num_traces = Experiments::traces().size();
  util::MergeableAccumulator acc;
  for (size_t v = 0; v < Experiments::videos().size(); ++v) {
    for (size_t t = 0; t < num_traces; t += 3) acc.add(cells[v * num_traces + t].true_qoe);
  }
  double qoe_pruned = acc.mean();

  std::printf("%s", util::banner("Figure 12c: crowdsourcing cost vs QoE").c_str());
  util::Table table({"configuration", "USD per min", "weight SRCC", "QoE (Sensei-Fugu)"});
  table.add_row({"SENSEI w/ cost pruning",
                 util::Table::format_double(pruned_cost / minutes, 1),
                 util::Table::format_double(util::mean(pruned_srcc), 2),
                 util::Table::format_double(qoe_pruned, 3)});
  table.add_row({"SENSEI w/o cost pruning",
                 util::Table::format_double(full_cost / minutes, 1),
                 util::Table::format_double(util::mean(full_srcc), 2), "(upper bound)"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("cost reduction from pruning: %.1f%% (paper: 96.7%%)\n",
              (1.0 - pruned_cost / full_cost) * 100.0);
  std::printf("pruned cost: $%.1f per 1-minute video (paper: $31.4)\n",
              pruned_cost / minutes);
}

// Figure 13: QoE gain over BBA per source video (grouped by genre), averaged
// across traces. Paper: large variability across videos even within a genre.
void fig_13(Context& ctx) {
  const auto& videos = Experiments::videos();
  const std::vector<Gain> sensei = ctx.gains_over_bba("sensei-fugu");
  const std::vector<Gain> pensieve = ctx.gains_over_bba("pensieve");
  const std::vector<Gain> fugu = ctx.gains_over_bba("fugu");

  std::printf("%s", util::banner(
                        "Figure 13: QoE gain over BBA per source video (grouped by genre)")
                        .c_str());
  util::Table table({"video", "genre", "SENSEI %", "Pensieve %", "Fugu %"});
  std::vector<double> sensei_gains;
  for (size_t v = 0; v < videos.size(); ++v) {
    sensei_gains.push_back(mean_gain(sensei, &Gain::video, v));
    table.add_row({videos[v].source().name(),
                   media::to_string(videos[v].source().genre()),
                   util::Table::format_double(sensei_gains.back(), 1),
                   util::Table::format_double(mean_gain(pensieve, &Gain::video, v), 1),
                   util::Table::format_double(mean_gain(fugu, &Gain::video, v), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("per-video SENSEI gain spread: sd=%.1f%% (paper: gains vary strongly even "
              "within a genre)\n",
              util::stddev(sensei_gains));
}

// Figure 14: QoE gain over BBA per throughput trace (ordered by increasing
// average throughput), averaged across videos. Paper: SENSEI's advantage is
// largest when throughput is low.
void fig_14(Context& ctx) {
  const auto& traces = Experiments::traces();
  const std::vector<Gain> sensei = ctx.gains_over_bba("sensei-fugu");
  const std::vector<Gain> pensieve = ctx.gains_over_bba("pensieve");
  const std::vector<Gain> fugu = ctx.gains_over_bba("fugu");

  std::printf("%s", util::banner(
                        "Figure 14: QoE gain over BBA per trace (ordered by mean "
                        "throughput)")
                        .c_str());
  util::Table table({"trace", "mean Kbps", "SENSEI %", "Pensieve %", "Fugu %"});
  double low_half_gain = 0.0, high_half_gain = 0.0;
  for (size_t t = 0; t < traces.size(); ++t) {
    const double g_sensei = mean_gain(sensei, &Gain::trace, t);
    if (t < traces.size() / 2) {
      low_half_gain += g_sensei;
    } else {
      high_half_gain += g_sensei;
    }
    table.add_row({traces[t].name(),
                   util::Table::format_double(traces[t].mean_kbps(), 0),
                   util::Table::format_double(g_sensei, 1),
                   util::Table::format_double(mean_gain(pensieve, &Gain::trace, t), 1),
                   util::Table::format_double(mean_gain(fugu, &Gain::trace, t), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("SENSEI mean gain, low-throughput half: %+.1f%%; high half: %+.1f%% "
              "(paper: more improvement when throughput is lower)\n",
              low_half_gain / (traces.size() / 2.0),
              high_half_gain / (traces.size() / 2.0));
}

// Figure 15: QoE prediction accuracy (PLCC/SRCC + scatter summary) of
// SENSEI's QoE model vs KSQI, LSTM-QoE and P.1203 on randomized renderings.
// Paper: SENSEI PLCC 0.85 / SRCC 0.84; baselines at or below 0.76 / 0.73.
void fig_15(Context&) {
  const auto& videos = Experiments::videos();
  const auto& oracle = Experiments::oracle();
  const auto& weights = Experiments::weights();

  // §7.3 protocol: per rendering, random bitrate per chunk plus a random
  // startup stall; 640 renderings split 400 train / 240 test.
  util::Rng rng(1503);
  std::vector<sim::RenderedVideo> renderings;
  std::vector<double> mos;
  std::vector<size_t> video_of;
  crowd::RaterPool raters(crowd::RaterConfig(), 88);
  const size_t total = 640;
  for (size_t i = 0; i < total; ++i) {
    size_t v = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(videos.size()) - 1));
    const auto& video = videos[v];
    std::vector<sim::RenderedChunk> chunks;
    for (size_t c = 0; c < video.num_chunks(); ++c) {
      size_t level = static_cast<size_t>(rng.uniform_int(0, 4));
      const auto& rep = video.rep(c, level);
      double stall = rng.chance(0.06) ? rng.uniform(0.5, 3.0) : 0.0;
      chunks.push_back({level, rep.bitrate_kbps, rep.visual_quality, stall});
    }
    sim::RenderedVideo rendered("rand-" + std::to_string(i), video.chunk_duration_s(),
                                std::move(chunks), video.source().chunks(),
                                rng.uniform_int(0, 2));
    double truth = oracle.score(rendered);
    double stars = 0.0;
    for (int k = 0; k < 12; ++k) {
      auto rater = raters.recruit();
      stars += raters.rate(rater, truth).stars;
    }
    renderings.push_back(std::move(rendered));
    mos.push_back(crowd::RaterPool::stars_to_unit(stars / 12.0));
    video_of.push_back(v);
  }

  const size_t train_n = 400;
  std::vector<sim::RenderedVideo> train(renderings.begin(),
                                        renderings.begin() + train_n);
  std::vector<double> train_mos(mos.begin(), mos.begin() + train_n);

  qoe::SenseiQoeModel ksqi;  // no weights: KSQI
  qoe::P1203Model p1203;
  qoe::LstmQoeModel lstm(12, 30, 0.01, 27);
  ksqi.train(train, train_mos);
  p1203.train(train, train_mos);
  lstm.train(train, train_mos);

  std::vector<double> pred_sensei, pred_ksqi, pred_lstm, pred_p1203, truth;
  for (size_t i = train_n; i < total; ++i) {
    qoe::SenseiQoeModel sensei(weights[video_of[i]]);
    sensei.train(train, train_mos);
    pred_sensei.push_back(sensei.predict(renderings[i]));
    pred_ksqi.push_back(ksqi.predict(renderings[i]));
    pred_lstm.push_back(lstm.predict(renderings[i]));
    pred_p1203.push_back(p1203.predict(renderings[i]));
    truth.push_back(mos[i]);
  }

  std::printf("%s", util::banner(
                        "Figure 15: QoE prediction accuracy on 240 held-out renderings")
                        .c_str());
  util::Table table({"model", "PLCC", "SRCC", "RMSE"});
  auto add = [&](const char* name, const std::vector<double>& pred) {
    table.add_row({name, util::Table::format_double(util::pearson(pred, truth), 2),
                   util::Table::format_double(util::spearman(pred, truth), 2),
                   util::Table::format_double(util::rmse(pred, truth), 3)});
  };
  add("(a) SENSEI", pred_sensei);
  add("(b) KSQI", pred_ksqi);
  add("(c) LSTM-QoE", pred_lstm);
  add("(d) P.1203", pred_p1203);
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper: SENSEI 0.85/0.84; KSQI 0.76/0.73; LSTM-QoE 0.60/0.63; "
              "P.1203 0.62/0.67)\n");
}

struct SweepResult {
  double cost_usd = 0.0;
  double plcc = 0.0;
};

// Profiles the probe videos under `config`, then measures how well the
// resulting weighted model predicts held-out MOS of a mixed-incident series.
SweepResult evaluate(const crowd::SchedulerConfig& config, uint64_t seed) {
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  SweepResult out;
  std::vector<double> pred, truth;
  for (const char* name : {"Soccer1", "Tank", "Space"}) {
    auto source = media::Dataset::by_name(name);
    auto clip = encoder.encode(source.clip(0, 15, std::string(name) + "-probe"));
    crowd::Scheduler scheduler(oracle, config, seed++);
    auto profile = scheduler.profile(clip);
    out.cost_usd += profile.cost_usd;

    qoe::SenseiQoeModel model(profile.weights);
    auto holdout = sim::rebuffer_series(clip, 2.0);
    auto drops = sim::bitrate_drop_series(clip, 1, 2);
    holdout.insert(holdout.end(), drops.begin(), drops.end());
    for (const auto& v : holdout) {
      pred.push_back(model.predict(v));
      truth.push_back(oracle.score(v));
    }
  }
  out.plcc = util::pearson(pred, truth);
  return out;
}

// Figure 16: QoE-model accuracy (PLCC of inferred weights' model vs held-out
// MOS) as the scheduler's cost knobs are tightened: (a) bitrate levels B,
// (b) rebuffering levels F, (c) raters per video M, (d) filtering threshold
// alpha. Paper: each knob can be reduced to its "sweet spot" with <3%
// accuracy loss while cutting cost dramatically.
//
// The last line reproduces the §4.1 sanity check: MTurk-style MOS vs dense
// ("in-lab") rating agreement within a few percent.
void fig_16(Context&) {
  std::printf("%s", util::banner("Figure 16: QoE model accuracy vs crowdsourcing cost")
                        .c_str());

  util::Table a({"(a) bitrate levels B", "cost USD", "PLCC"});
  for (size_t b : {1, 2, 4}) {
    crowd::SchedulerConfig cfg;
    cfg.bitrate_levels = b;
    auto r = evaluate(cfg, 160 + b);
    a.add_row({std::to_string(b), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", a.to_string().c_str());

  util::Table f({"(b) rebuffering levels F", "cost USD", "PLCC"});
  for (size_t fl : {1, 2, 4}) {
    crowd::SchedulerConfig cfg;
    cfg.rebuffer_levels = fl;
    auto r = evaluate(cfg, 170 + fl);
    f.add_row({std::to_string(fl), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", f.to_string().c_str());

  util::Table m({"(c) raters per video M1+M2", "cost USD", "PLCC"});
  for (size_t raters : {5, 10, 20, 30}) {
    crowd::SchedulerConfig cfg;
    cfg.m1 = raters;
    cfg.m2 = raters / 2;
    auto r = evaluate(cfg, 180 + raters);
    m.add_row({std::to_string(raters), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", m.to_string().c_str());

  util::Table al({"(d) filtering threshold alpha", "cost USD", "PLCC"});
  for (double alpha : {0.0, 0.06, 0.15, 0.3}) {
    crowd::SchedulerConfig cfg;
    cfg.alpha = alpha;
    auto r = evaluate(cfg, 190 + static_cast<uint64_t>(alpha * 100));
    al.add_row({util::Table::format_double(alpha, 2),
                util::Table::format_double(r.cost_usd, 0),
                util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", al.to_string().c_str());

  // --- §4.1 sanity check: sparse crowdsourced MOS vs dense "in-lab" MOS. ---
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  auto clip = encoder.encode(media::Dataset::soccer1_clip());
  auto series = sim::rebuffer_series(clip, 1.0);
  auto mturk = crowdsourced_mos(oracle, clip, series, 30, 901);
  auto inlab = crowdsourced_mos(oracle, clip, series, 150, 902);
  double diff = 0.0;
  for (size_t i = 0; i < mturk.size(); ++i) {
    diff += std::abs(mturk[i] - inlab[i]) / std::max(0.05, inlab[i]);
  }
  std::printf("MTurk-style vs dense in-lab-style MOS: mean relative difference %.1f%% "
              "(paper: <3%%)\n",
              diff / mturk.size() * 100.0);
}

double mean_qoe(sim::AbrPolicy& policy, const net::ThroughputTrace& trace,
                bool use_weights) {
  const auto& videos = Experiments::videos();
  const auto& weights = Experiments::weights();
  const std::vector<double> none;
  util::MergeableAccumulator acc;
  for (size_t v = 0; v < videos.size(); ++v) {
    acc.add(Experiments::run(videos[v], trace, policy, use_weights ? weights[v] : none)
                .true_qoe);
  }
  return acc.mean();
}

// Figure 17: QoE under increasing throughput variance — Gaussian noise of
// growing standard deviation added to one trace. Paper: SENSEI's QoE
// degrades with variance but keeps a clear gain over its base ABR.
// An appendix sweep over the weight-horizon h backs §5.1's choice of h = 5.
void fig_17(Context&) {
  net::ThroughputTrace base = Experiments::traces()[5];  // ~2 Mbps cellular

  auto fugu = abr::make_policy("fugu");
  auto sensei_fugu = abr::make_policy("sensei-fugu");
  auto& pensieve = Experiments::pensieve();
  auto& sensei_pensieve = Experiments::sensei_pensieve();

  std::printf("%s", util::banner("Figure 17: QoE under increasing bandwidth variance")
                        .c_str());
  util::Table table({"added noise sd (Kbps)", "Sensei-Fugu", "Fugu", "Sensei-Pensieve",
                     "Pensieve"});
  for (double sigma : {0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0}) {
    auto trace = sigma > 0 ? base.with_noise(sigma, 1700 + static_cast<uint64_t>(sigma))
                           : base;
    table.add_row(std::vector<double>{sigma, mean_qoe(*sensei_fugu, trace, true),
                                      mean_qoe(*fugu, trace, false),
                                      mean_qoe(sensei_pensieve, trace, true),
                                      mean_qoe(pensieve, trace, false)},
                  3);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Appendix: weight-horizon sweep (paper: QoE gains flatten beyond h = 4).
  std::printf("%s", util::banner("Horizon ablation: QoE vs weight horizon h").c_str());
  util::Table horizon_table({"h", "Sensei-Fugu QoE"});
  for (size_t h : {1, 2, 3, 4, 5, 6}) {
    abr::FuguConfig cfg;
    cfg.use_weights = true;
    cfg.rebuffer_options = {0.0, 1.0, 2.0};
    cfg.horizon = h;
    abr::FuguAbr policy(cfg);
    const auto& videos = Experiments::videos();
    const auto& weights = Experiments::weights();
    sim::Player player;
    util::MergeableAccumulator acc;
    for (size_t v = 0; v < videos.size(); v += 2) {
      auto session = player.stream(videos[v], base, policy, weights[v]);
      acc.add(Experiments::oracle().score(session.to_rendered(videos[v])));
    }
    horizon_table.add_row(std::vector<double>{static_cast<double>(h), acc.mean()}, 3);
  }
  std::printf("%s", horizon_table.to_string().c_str());
  std::printf("\n(paper: gains flatten beyond a horizon of 4; h=5 is the default)\n");
}

// Figure 18: understanding SENSEI's improvements.
// (a) Impact of the base ABR logic: gains over BBA for Fugu and Pensieve,
//     vanilla vs SENSEI variants.
// (b) Breakdown of SENSEI's improvement: base ABR with KSQI objective ->
//     + sensitivity-weighted objective (bitrate adaptation only) ->
//     + new adaptation action (scheduled rebuffering) = full SENSEI.
// Medians, as in Figure 12a's distribution view: means are dominated by a
// few catastrophic low-bandwidth sessions of the RL policies.
void fig_18(Context& ctx) {
  auto median_gain = [&ctx](const char* name) {
    return util::Table::format_double(util::median(pcts(ctx.gains_over_bba(name))), 1);
  };

  std::printf("%s", util::banner("Figure 18a: impact of the base ABR logic").c_str());
  util::Table a({"base ABR", "base median gain over BBA %", "SENSEI median gain over BBA %"});
  a.add_row({"Fugu", median_gain("fugu"), median_gain("sensei-fugu")});
  a.add_row({"Pensieve", median_gain("pensieve"), median_gain("sensei-pensieve")});
  std::printf("%s\n", a.to_string().c_str());

  std::printf("%s", util::banner("Figure 18b: breakdown of SENSEI's improvement "
                                 "(Fugu base)")
                        .c_str());
  util::Table b({"configuration", "median gain over BBA %"});
  b.add_row({"base ABR w/ KSQI objective", median_gain("fugu")});
  b.add_row({"+ weighted objective (bitrate adaptation only)",
             median_gain("sensei-fugu-bitrate-only")});
  b.add_row({"full SENSEI (+ scheduled rebuffering)", median_gain("sensei-fugu")});
  std::printf("%s", b.to_string().c_str());
  std::printf("\n(paper: both steps help; the objective change contributes more than "
              "the new action)\n");
}

// Figure 20 / Appendix D: per-chunk quality sensitivity estimated by
// computer-vision importance models (AMVM, DSN, Video2GIF) vs the user
// study, on Lava, Tank, Animal and Soccer2. Paper: CV importance does not
// track true sensitivity.
void fig_20(Context&) {
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  uint64_t seed = 2000;

  std::printf("%s", util::banner(
                        "Figure 20: quality-sensitivity estimates — user study vs "
                        "CV models (first 5 chunks per video)")
                        .c_str());
  std::vector<double> cv_corrs, study_corrs;
  for (const char* name : {"Lava", "Tank", "Animal", "Soccer2"}) {
    auto source = media::Dataset::by_name(name);
    auto video = encoder.encode(source);

    // "User study": profiled weights from the crowdsourcing pipeline.
    crowd::Scheduler scheduler(oracle, crowd::SchedulerConfig(), seed++);
    auto profile = scheduler.profile(video);
    auto study = util::normalize01(profile.weights);

    auto cv_results = cv::run_all(source);
    util::Table table({"chunk", "user study", "AMVM", "DSN", "video2gif"});
    for (size_t c = 0; c < 5 && c < source.num_chunks(); ++c) {
      table.add_row(std::vector<double>{static_cast<double>(c + 1), study[c],
                                        cv_results[0].scores[c], cv_results[1].scores[c],
                                        cv_results[2].scores[c]},
                    2);
    }
    std::printf("(%s)\n%s", name, table.to_string().c_str());

    auto s_true = source.true_sensitivity();
    study_corrs.push_back(util::spearman(profile.weights, s_true));
    for (const auto& r : cv_results) {
      cv_corrs.push_back(util::spearman(r.scores, s_true));
    }
  }
  std::printf("\nSRCC vs hidden true sensitivity: user-study weights mean %.2f, "
              "CV models mean %.2f (paper: CV trends are not aligned)\n",
              util::mean(study_corrs), util::mean(cv_corrs));
}

// The cached Experiments fixtures a figure reads, each level including the
// ones before it. The driver builds them before the figure runs, so the
// timing line can tell fixture building from figure work.
enum class Fixtures { kNone, kWeights, kPensieve, kBothPensieves };

struct Figure {
  const char* name;
  Fixtures fixtures;
  void (*run)(Context&);
};

// Paper order.
constexpr Figure kFigures[] = {
    {"1", Fixtures::kNone, fig_1},
    {"2", Fixtures::kPensieve, fig_2},
    {"3", Fixtures::kNone, fig_3},
    {"4", Fixtures::kNone, fig_4},
    {"5", Fixtures::kNone, fig_5},
    {"6", Fixtures::kWeights, fig_6},
    {"table1", Fixtures::kNone, table_1},
    {"12a", Fixtures::kBothPensieves, fig_12a},
    {"12b", Fixtures::kPensieve, fig_12b},
    {"12c", Fixtures::kWeights, fig_12c},
    {"13", Fixtures::kPensieve, fig_13},
    {"14", Fixtures::kPensieve, fig_14},
    {"15", Fixtures::kWeights, fig_15},
    {"16", Fixtures::kNone, fig_16},
    {"17", Fixtures::kBothPensieves, fig_17},
    {"18", Fixtures::kBothPensieves, fig_18},
    {"20", Fixtures::kNone, fig_20},
};

constexpr const char* kUsage =
    "bench_figures --fig NAME [--threads N] [--planner dp|vi]\n"
    "NAME: 1 2 3 4 5 6 table1 12a 12b 12c 13 14 15 16 17 18 20 all";

// The value following `flag`, or nullptr when the flag is absent.
const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "error: %s\nusage: %s\n", what, kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"--fig", "--threads", "--planner"}, {}, kUsage);
  const char* fig = flag_value(argc, argv, "--fig");
  if (fig == nullptr) usage_error("--fig is required");
  const char* planner_text = flag_value(argc, argv, "--planner");
  abr::PlannerKind planner = abr::PlannerKind::kDp;
  if (planner_text != nullptr && std::strcmp(planner_text, "vi") == 0) {
    planner = abr::PlannerKind::kVi;
  } else if (planner_text != nullptr && std::strcmp(planner_text, "dp") != 0) {
    usage_error("--planner expects dp or vi");
  }

  std::vector<const Figure*> selected;
  for (const Figure& figure : kFigures) {
    if (std::strcmp(fig, "all") == 0 || std::strcmp(fig, figure.name) == 0) {
      selected.push_back(&figure);
    }
  }
  if (selected.empty()) usage_error((std::string("unknown figure '") + fig + "'").c_str());

  Context ctx(bench::threads_arg(argc, argv), planner);
  const double start = bench::now_s();
  double fixtures_s = 0.0;
  for (const Figure* figure : selected) {
    const double fixtures_start = bench::now_s();
    if (figure->fixtures >= Fixtures::kWeights) Experiments::weights();
    if (figure->fixtures >= Fixtures::kPensieve) Experiments::pensieve();
    if (figure->fixtures >= Fixtures::kBothPensieves) Experiments::sensei_pensieve();
    fixtures_s += bench::now_s() - fixtures_start;
    figure->run(ctx);
  }
  const double total_s = bench::now_s() - start;
  std::fprintf(stderr,
               "timing: %zu figure(s) in %.2fs: fixtures %.2fs, evaluation matrix %.2fs "
               "(%zu sessions), figure work %.2fs, on %zu thread(s)\n",
               selected.size(), total_s, fixtures_s, ctx.matrix_s, ctx.matrix_sessions,
               total_s - fixtures_s - ctx.matrix_s, ctx.runner().num_threads());
  return 0;
}
