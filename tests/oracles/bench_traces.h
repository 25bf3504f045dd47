// The traces the benches integrate over, rebuilt for the integration gates
// (tests/test_trace_index.cpp, tests/test_segment_memo.cpp), so the indexed
// integrator is held to the walker reference on exactly those inputs:
//
//  - bench_figures --fig 6: evaluation trace 4 at its five bandwidth
//    scalings (the offline DP probes them at every node);
//  - bench_multisession: its three identity traces, the evaluation traces its
//    grid contends on, and the scale bottleneck at every population size
//    (SharedLink's next-completion integration runs on these).
//
// advance_sweep_traces() adds cellular-like traces with zero-run fades, 100
// to 100,000 intervals long, looping and finite: transfers on them cross
// thousands of intervals, the spans where the indexed search and the walker
// take the most different paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/trace.h"
#include "net/trace_gen.h"
#include "util/rng.h"

namespace sensei::oracles {

inline std::vector<net::ThroughputTrace> bench_trace_families() {
  const std::vector<net::ThroughputTrace> eval = net::TraceGenerator::test_set();
  std::vector<net::ThroughputTrace> traces;
  for (double scale : {0.2, 0.4, 0.6, 0.8, 1.0}) traces.push_back(eval[4].scaled(scale));
  traces.push_back(net::TraceGenerator::cellular("ms-id-cell", 900, 500.0, 41));
  traces.push_back(net::TraceGenerator::broadband("ms-id-bb", 2800, 500.0, 42));
  traces.push_back(
      net::ThroughputTrace("ms-id-cliff", std::vector<double>(40, 3200.0), 1.0).as_finite());
  for (size_t index : {1, 4, 7}) traces.push_back(eval[index]);
  const net::ThroughputTrace bottleneck =
      net::TraceGenerator::cellular("ms-bottleneck", 1700, 500.0, 77);
  for (size_t sessions : {40, 50, 100, 200, 400, 1000}) {
    traces.push_back(bottleneck.scaled(static_cast<double>(sessions),
                                       "ms-bottleneck-x" + std::to_string(sessions)));
  }
  return traces;
}

// Cellular-like looping trace with zero-run fades, `intervals` samples.
inline net::ThroughputTrace fade_trace(size_t intervals, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(intervals);
  while (samples.size() < intervals) {
    size_t run = static_cast<size_t>(rng.uniform_int(1, 30));
    bool fade = rng.chance(0.25);
    for (size_t i = 0; i < run && samples.size() < intervals; ++i) {
      samples.push_back(fade ? 0.0 : rng.uniform(100.0, 5000.0));
    }
  }
  return net::ThroughputTrace("fade-" + std::to_string(intervals), std::move(samples), 1.0);
}

// The fade sweep, each length looping and finite.
inline std::vector<net::ThroughputTrace> advance_sweep_traces() {
  constexpr uint64_t kSeed = 0x5e551011;
  std::vector<net::ThroughputTrace> traces;
  for (size_t len : {100, 1000, 10000, 100000}) {
    net::ThroughputTrace looping = fade_trace(len, kSeed ^ len);
    traces.push_back(looping.as_finite());
    traces.push_back(std::move(looping));
  }
  return traces;
}

}  // namespace sensei::oracles
