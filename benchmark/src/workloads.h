// The benchmark's four workloads, each driven only through the library's
// public APIs. A workload builds its fixtures in setup() and then runs
// fixed subsets of its inputs: the warm-up subset (also the thread-
// invariance probe), the slices of the timed batch, and the traced subset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sensei::core {
class ExperimentRunner;
}

namespace sensei::benchmark {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The simulated outcome of one run of a subset, a slice or the whole timed
// batch. Every field is a pure function of (workload, seed, subset):
// identical on every repeat and at every thread count.
struct PassResult {
  size_t sessions = 0;
  double qoe_mean = 0.0;
  double qoe_p10 = 0.0;
  double rebuffer_ratio = 0.0;  // stall seconds / media seconds
  double served_rate = 1.0;     // sessions without an outage / sessions
  double recovery_rate = 1.0;   // recovered / disrupted; 1 when none was disrupted
  double sensei_qoe_ratio = 1.0;  // sensei-fugu QoE / fugu QoE; 1 without SENSEI sessions
  // Determinism row: every simulated statistic, floats in exact hex form.
  std::string row;
  // Conservation identities the outcome violates (empty when correct).
  std::vector<std::string> violations;
};

// What a traced run reports: the per-layer metrics, in BENCHMARK.json
// order, and any identity-gate mismatch between the traced replica and the
// library run on the same inputs.
struct TraceReport {
  size_t sessions = 0;
  std::string row;  // determinism row of the library's run of the traced subset
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // (Re)builds every fixture the subsets read and empties the batch.
  virtual void setup() = 0;
  // The warm-up subset, a prefix of slice 0.
  virtual PassResult warmup(const core::ExperimentRunner& runner) = 0;
  // The timed batch is num_slices() slices of similar size, each timed on
  // its own.
  virtual size_t num_slices() const = 0;
  // Runs slice k. The first run of slice k is folded into the batch, which
  // expects the slices' first runs in order 0, 1, 2, ...
  virtual PassResult run_slice(size_t k, const core::ExperimentRunner& runner) = 0;
  // The batch's outcome: every slice's first run, folded in slice order.
  virtual PassResult batch() = 0;
  // Runs the traced subset: the library on one thread (the attribution
  // baseline), the replica untraced and traced on one thread, and the
  // library at `runner`'s thread count as the identity reference.
  virtual TraceReport trace(const core::ExperimentRunner& runner) = 0;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown name. `smoke` shrinks every
// subset to about 1/50 of its size.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed, bool smoke);

// FNV-1a 64 of `text`, as 16 hex digits.
std::string fnv_hex(const std::string& text);

}  // namespace sensei::benchmark
