#include "host.h"

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runner.h"
#include "ledger.h"
#include "util/kernels.h"

namespace sensei::benchmark {

namespace {

std::string cpu_list(const cpu_set_t& set) {
  std::string out;
  int cpu = 0;
  while (cpu < CPU_SETSIZE) {
    if (!CPU_ISSET(cpu, &set)) {
      ++cpu;
      continue;
    }
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last + 1;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

uint64_t reference_kernel() {
  constexpr size_t kN = size_t{1} << 15;
  std::mt19937_64 rng(3);
  std::vector<double> values(kN);
  for (double& v : values) v = static_cast<double>(rng() % 1000000) * 1e-3;
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, double> sums;
  for (double v : values) sums[rng() % (kN / 2)] += v;
  uint64_t checksum = sums.size();
  for (const auto& [key, sum] : sums) checksum += key ^ static_cast<uint64_t>(sum);
  return checksum;
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

size_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

HostInfo probe_host(size_t threads, const std::string& git_sha) {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) host.affinity = cpu_list(set);
  host.nproc = affinity_cpu_count();
  host.cpu_model = cpu_model();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = SENSEI_BENCH_BUILD_TYPE;
  host.backend = util::kernel_backend_name();
  host.git_sha = git_sha.empty() ? "unknown" : git_sha;
  host.threads = threads;
  host.trace_clock = clock_name();
  return host;
}

std::string host_json(const HostInfo& h) {
  return "{\"nproc\": " + std::to_string(h.nproc) +
         ", \"affinity\": " + json_string(h.affinity) +
         ", \"cpu_model\": " + json_string(h.cpu_model) +
         ", \"compiler\": " + json_string(h.compiler) +
         ", \"build_type\": " + json_string(h.build_type) +
         ", \"backend\": " + json_string(h.backend) +
         ", \"git_sha\": " + json_string(h.git_sha) +
         ", \"threads\": " + std::to_string(h.threads) +
         ", \"trace_clock\": " + json_string(h.trace_clock) + "}";
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double reference_round_s(const core::ExperimentRunner& runner) {
  // Many small tasks, claimed dynamically as the simulator's cells are, so
  // that one thread's stall delays the round no more than it delays a slice.
  std::vector<uint64_t> checksums(12 * runner.num_threads());
  const double t0 = now_ns();
  runner.for_each(checksums.size(), [&](size_t i) { checksums[i] = reference_kernel(); });
  const double seconds = (now_ns() - t0) * 1e-9;
  for (uint64_t c : checksums) {
    if (c != checksums[0]) throw std::runtime_error("reference kernel checksums differ");
  }
  return seconds;
}

}  // namespace sensei::benchmark
