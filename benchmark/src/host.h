// The host block every result records: what produced the numbers. Two
// results are comparable only when their host blocks match in every field
// but git_sha (see run.py compare).
#pragma once

#include <cstddef>
#include <string>

namespace sensei::core {
class ExperimentRunner;
}

namespace sensei::benchmark {

struct HostInfo {
  size_t nproc = 0;        // CPUs in this process's affinity mask
  std::string affinity;    // that mask as a CPU list, e.g. "0-3"
  std::string cpu_model;   // /proc/cpuinfo "model name"
  std::string compiler;    // compiler and version
  std::string build_type;  // CMAKE_BUILD_TYPE of the benchmark build
  std::string backend;     // resolved util::kernels backend
  std::string git_sha;     // "unknown" outside a git checkout
  size_t threads = 0;      // ExperimentRunner threads of the timed pass
  std::string trace_clock; // span tick source
};

// CPUs in the affinity mask (at least 1).
size_t affinity_cpu_count();

HostInfo probe_host(size_t threads, const std::string& git_sha);

// JSON string literal of `s` (quotes, backslashes and control bytes escaped).
std::string json_string(const std::string& s);

// The host block as one JSON object on one line.
std::string host_json(const HostInfo& host);

// Peak resident set size (VmHWM) in MiB; 0 where /proc is unavailable.
double peak_rss_mib();

// Wall seconds of one round of the reference kernel on `runner`: 12 tasks
// per thread, each of which sorts 2^15 seeded doubles and folds them into a
// hash map, a fixed mix of branchy compares, allocation and scattered
// memory access. Only the benchmark's own code runs in it, so no change to
// the library moves it, while it slows and speeds up with the host as the
// simulator does. Throws if the tasks' checksums differ.
double reference_round_s(const core::ExperimentRunner& runner);

}  // namespace sensei::benchmark
