// §7.4 systems overhead: SENSEI's runtime cost relative to a vanilla player.
// The paper reports <1% CPU/RAM overhead in DASH.js; here we measure the
// per-decision latency of each ABR, manifest parse time with and without the
// SenseiWeights extension, the weight-inference solver, and full-session
// simulation throughput.
#include <benchmark/benchmark.h>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/pensieve.h"
#include "crowd/ground_truth.h"
#include "crowd/weights.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/manifest.h"
#include "sim/player.h"

using namespace sensei;

namespace {

const media::EncodedVideo& bench_video() {
  static const media::EncodedVideo kVideo =
      media::Encoder().encode(media::Dataset::by_name("Soccer1"));
  return kVideo;
}

const net::ThroughputTrace& bench_trace() {
  static const net::ThroughputTrace kTrace =
      net::TraceGenerator::cellular("bench", 1500, 700.0, 9);
  return kTrace;
}

sim::AbrObservation mid_session_observation() {
  sim::AbrObservation obs;
  obs.video = &bench_video();
  obs.next_chunk = 20;
  obs.num_chunks = bench_video().num_chunks();
  obs.buffer_s = 12.0;
  obs.last_level = 2;
  obs.last_throughput_kbps = 1600.0;
  static const std::vector<double> kWeights = {1.2, 0.8, 1.5, 0.9, 1.0};
  obs.future_weights = {kWeights.data(), kWeights.size()};
  return obs;
}

void BM_DecisionBba(benchmark::State& state) {
  abr::BbaAbr policy;
  auto obs = mid_session_observation();
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(obs));
}
BENCHMARK(BM_DecisionBba);

void BM_DecisionFugu(benchmark::State& state) {
  abr::FuguAbr policy;
  auto obs = mid_session_observation();
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(obs));
}
BENCHMARK(BM_DecisionFugu);

void BM_DecisionSenseiFugu(benchmark::State& state) {
  abr::FuguConfig cfg;
  cfg.use_weights = true;
  cfg.rebuffer_options = {0.0, 1.0, 2.0};
  abr::FuguAbr policy(cfg);
  auto obs = mid_session_observation();
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(obs));
}
BENCHMARK(BM_DecisionSenseiFugu);

void BM_DecisionPensieve(benchmark::State& state) {
  abr::PensieveAbr policy{abr::PensieveConfig{}, 3};
  auto obs = mid_session_observation();
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(obs));
}
BENCHMARK(BM_DecisionPensieve);

void BM_DecisionSenseiPensieve(benchmark::State& state) {
  abr::PensieveConfig cfg;
  cfg.sensei_mode = true;
  abr::PensieveAbr policy{cfg, 3};
  auto obs = mid_session_observation();
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(obs));
}
BENCHMARK(BM_DecisionSenseiPensieve);

void BM_FullSessionSimulation(benchmark::State& state) {
  abr::FuguAbr policy;
  sim::Player player;
  for (auto _ : state) {
    benchmark::DoNotOptimize(player.stream(bench_video(), bench_trace(), policy));
  }
}
BENCHMARK(BM_FullSessionSimulation);

void BM_ManifestParsePlain(benchmark::State& state) {
  sim::Manifest m;
  m.video_name = "Soccer1";
  m.num_chunks = 50;
  m.bitrates_kbps = {300, 750, 1200, 1850, 2850};
  std::string xml = m.to_xml();
  for (auto _ : state) benchmark::DoNotOptimize(sim::Manifest::from_xml(xml));
}
BENCHMARK(BM_ManifestParsePlain);

void BM_ManifestParseWithWeights(benchmark::State& state) {
  sim::Manifest m;
  m.video_name = "Soccer1";
  m.num_chunks = 50;
  m.bitrates_kbps = {300, 750, 1200, 1850, 2850};
  m.weights.assign(50, 1.0);
  std::string xml = m.to_xml();
  for (auto _ : state) benchmark::DoNotOptimize(sim::Manifest::from_xml(xml));
}
BENCHMARK(BM_ManifestParseWithWeights);

void BM_WeightInference(benchmark::State& state) {
  crowd::GroundTruthQoE oracle;
  auto series = sim::rebuffer_series(bench_video(), 1.0);
  auto reference = sim::RenderedVideo::pristine(bench_video());
  std::vector<double> mos;
  for (const auto& v : series) mos.push_back(oracle.score(v));
  for (auto _ : state) {
    crowd::WeightSystem system(reference);
    for (size_t j = 0; j < series.size(); ++j) system.add(series[j], mos[j]);
    benchmark::DoNotOptimize(system.solve(0.9));
  }
}
BENCHMARK(BM_WeightInference);

void BM_OracleScore(benchmark::State& state) {
  crowd::GroundTruthQoE oracle;
  auto rendered = sim::RenderedVideo::pristine(bench_video());
  for (auto _ : state) benchmark::DoNotOptimize(oracle.score(rendered));
}
BENCHMARK(BM_OracleScore);

}  // namespace

BENCHMARK_MAIN();
