#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "util/stats.h"

namespace sensei::benchmark {

namespace clock_detail {
bool use_tsc = false;

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}
}  // namespace clock_detail

namespace {

double g_ns_per_tick = 1.0;

// True when /proc/cpuinfo lists constant_tsc (and nonstop_tsc is not
// required: the traced run is single-threaded and never sleeps).
bool cpu_has_constant_tsc() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string flag;
    while (words >> flag) {
      if (flag == "constant_tsc") return true;
    }
    return false;
  }
  return false;
}

}  // namespace

const char* layer_name(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "net.shared_link.next_completion",
      "net.shared_link.advance_to",
      "net.shared_link.drain",
      "sim.event_queue.update",
      "sim.session_engine.step.requesting",
      "sim.session_engine.step.rtt",
      "sim.session_engine.step.transferring",
      "sim.session_engine.step.arrived",
      "sim.session_engine.step.timed_out",
      "sim.session_engine.step.backoff",
      "sim.session_engine.step.retrying",
      "sim.session_engine.complete_transfer",
      "sim.session_engine.rehome",
      "sim.cell_setup",
      "sim.session_engine.admit",
      "sim.fleet_retire",
      "sim.workload.next",
      "qoe.oracle.score",
      "abr.decide.bba",
      "abr.decide.rate_based",
      "abr.decide.whittle",
      "abr.decide.fugu_vi",
      "abr.decide.fugu_dp",
      "abr.decide.sensei_fugu_dp",
      "sim.cell",
      "sim.session",
  };
  return kNames[layer];
}

void init_clock() {
#if defined(__x86_64__)
  clock_detail::use_tsc = cpu_has_constant_tsc();
#endif
  if (!clock_detail::use_tsc) {
    g_ns_per_tick = 1.0;
    return;
  }
  // Rate against steady_clock over a 50 ms busy wait.
  const uint64_t ns0 = clock_detail::steady_ns();
  const uint64_t t0 = ticks();
  uint64_t ns1 = ns0;
  while (ns1 - ns0 < 50'000'000) ns1 = clock_detail::steady_ns();
  const uint64_t t1 = ticks();
  g_ns_per_tick = static_cast<double>(ns1 - ns0) / static_cast<double>(t1 - t0);
}

const char* clock_name() { return clock_detail::use_tsc ? "tsc" : "steady_clock"; }

double ns_per_tick() { return g_ns_per_tick; }

namespace {

// A few dependent loads and multiplies: stand-in work the calibration
// spans wrap. Out of line so the compiler keeps it inside the spans.
__attribute__((noinline)) uint64_t calibration_work(const std::vector<uint64_t>& table,
                                                    uint64_t x) {
  for (int k = 0; k < 8; ++k) x = table[x & (table.size() - 1)] ^ (x * 0x9e3779b97f4a7c15ULL);
  return x;
}

}  // namespace

Ledger::Costs Ledger::calibrate() {
  constexpr int kIters = 100000;
  std::vector<uint64_t> table(4096);
  for (size_t i = 0; i < table.size(); ++i) table[i] = i * 0x2545f4914f6cdd1dULL;
  uint64_t x = 1;
  std::vector<double> inner, full;
  for (int rep = 0; rep < 9; ++rep) {
    // The same work three times per iteration, bare and then inside a
    // parent span with one nested child.
    const uint64_t t0 = ticks();
    for (int i = 0; i < kIters; ++i) {
      x = calibration_work(table, x);
      x = calibration_work(table, x);
      x = calibration_work(table, x);
    }
    const uint64_t t1 = ticks();
    Ledger probe;
    for (int i = 0; i < kIters; ++i) {
      Span parent(probe, kRootCell);
      x = calibration_work(table, x);
      {
        Span child(probe, kStepArrived);
        x = calibration_work(table, x);
      }
      x = calibration_work(table, x);
    }
    const uint64_t t2 = ticks();
    const double bare = static_cast<double>(t1 - t0);
    full.push_back((static_cast<double>(t2 - t1) - bare) / (2.0 * kIters));
    // A child's duration is one unit of work plus the timer's inside cost.
    inner.push_back(static_cast<double>(probe.entries_[kStepArrived].self_ticks) / kIters -
                    bare / (3.0 * kIters));
  }
  volatile uint64_t keep = x;
  (void)keep;
  return {std::max(0.0, util::percentile(inner, 50.0)),
          std::max(0.0, util::percentile(full, 50.0))};
}

}  // namespace sensei::benchmark
