// sensei_bench: runs one workload of the one-machine benchmark in one
// process and prints its metrics (README.md has the workloads and metrics).
//
//   sensei_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out FILE] [--git-sha SHA]
//
// Phases: set-up (fixtures plus one warm-up run of a small subset, five
// times, median reported), the warm-up subset again on one thread (it must
// match bit for bit), then either the timed batch (--trace 0) or the traced
// run of the trace subset with its identity gate (--trace 1). The timed
// batch runs slice by slice, each slice timed on its own; after every slice
// has run once, slices repeat from the first until --seconds have elapsed.
// A reference round before and after every set-up run and every slice reads
// the host's current speed, and the reported times are scaled to the
// reference VM's speed. --smoke shrinks every subset about 50x and runs
// every slice once and the traced run.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
// Any failed check exits 1 after printing it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.h"
#include "host.h"
#include "ledger.h"
#include "util/stats.h"
#include "workloads.h"

using namespace sensei;
using namespace sensei::benchmark;

namespace {

constexpr int kSetupRuns = 5;
// A reference round's wall time on the reference VM (README.md). Set-up
// and slice times are scaled by it over the host's round time around them:
// what they would have taken on a host as fast as that VM.
constexpr double kReferenceRoundS = 0.078;

struct Options {
  std::string workload;
  uint64_t seed = 90210;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string git_sha;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: sensei_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out FILE] [--git-sha SHA]\nworkloads:",
               problem);
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("--seed needs a non-negative integer");
    } else if (flag == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        usage("--seconds needs a number in (0, 600]");
    } else if (flag == "--trace") {
      // Accepts the bare flag as well as an explicit 0 or 1.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = argv[++i][0] == '1';
      } else {
        opt.trace = true;
      }
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else if (flag == "--out") {
      opt.out = value();
    } else if (flag == "--git-sha") {
      opt.git_sha = value();
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (std::find(workload_names().begin(), workload_names().end(), opt.workload) ==
      workload_names().end()) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

double now_s() { return now_ns() * 1e-9; }

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i > 0 ? ", " : "") + number(values[i]);
  return out + "]";
}

std::string list_json(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i > 0 ? ", " : "") + json_string(values[i]);
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  init_clock();
  const size_t threads = std::min<size_t>(4, affinity_cpu_count());
  const core::ExperimentRunner runner(threads);
  const core::ExperimentRunner serial(1);
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed, opt.smoke);

  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  auto check = [&](const PassResult& r, const std::string& what) {
    for (const std::string& v : r.violations) failures.push_back(what + ": " + v);
  };

  try {
    std::vector<double> reference_s;
    auto reference_round = [&]() { reference_s.push_back(reference_round_s(runner)); };
    // Host seconds of an interval between the last two reference rounds,
    // scaled to the reference VM's speed by the mean of those rounds.
    auto at_reference_speed = [&](double seconds) {
      const size_t n = reference_s.size();
      return seconds * kReferenceRoundS / (0.5 * (reference_s[n - 2] + reference_s[n - 1]));
    };

    // Set-up: fixtures plus the warm-up run, several times.
    std::vector<double> setup_runs_s, setup_s;
    PassResult warm;
    reference_round();
    for (int run = 0; run < kSetupRuns; ++run) {
      const double t0 = now_s();
      workload->setup();
      PassResult r = workload->warmup(runner);
      setup_runs_s.push_back(now_s() - t0);
      reference_round();
      setup_s.push_back(at_reference_speed(setup_runs_s.back()));
      check(r, "warm-up");
      if (run == 0) {
        warm = std::move(r);
      } else {
        expect(r.row == warm.row, "a repeated warm-up run differs from the first");
      }
    }
    expect(workload->warmup(serial).row == warm.row,
           "the warm-up subset differs between 1 and " + std::to_string(threads) + " threads");

    std::vector<Metric> end_to_end;
    std::vector<double> pass_s, raw_rates, rates;
    PassResult timed;
    size_t attempted = 0;
    if (!opt.trace || opt.smoke) {
      // Every slice once, in order, then again from slice 0 until --seconds
      // have elapsed. A reference round follows every slice.
      const size_t slices = workload->num_slices();
      std::vector<std::string> rows(slices);
      reference_round();
      const double start = now_s();
      for (size_t pass = 0; pass < slices || (!opt.smoke && now_s() - start < opt.seconds);
           ++pass) {
        const size_t k = pass % slices;
        const double t0 = now_s();
        PassResult r = workload->run_slice(k, runner);
        pass_s.push_back(now_s() - t0);
        reference_round();
        check(r, "slice " + std::to_string(k));
        attempted += r.sessions;
        if (pass < slices) {
          rows[k] = std::move(r.row);
        } else {
          expect(r.row == rows[k], "a repeated run of slice " + std::to_string(k) +
                                       " differs from its first");
        }
        raw_rates.push_back(static_cast<double>(r.sessions) / pass_s.back());
        rates.push_back(static_cast<double>(r.sessions) / at_reference_speed(pass_s.back()));
      }
      timed = workload->batch();
      check(timed, "timed batch");
      end_to_end = {
          {"sessions_per_s", "1/s", util::percentile(rates, 50.0)},
          {"setup_s", "s", util::percentile(setup_s, 50.0)},
          {"peak_rss_mib", "MiB", peak_rss_mib()},
          {"qoe_mean", "qoe", timed.qoe_mean},
          {"qoe_p10", "qoe", timed.qoe_p10},
          {"rebuffer_ratio", "ratio", timed.rebuffer_ratio},
          {"served_rate", "ratio", timed.served_rate},
          {"recovery_rate", "ratio", timed.recovery_rate},
          {"sensei_qoe_ratio", "ratio", timed.sensei_qoe_ratio},
      };
    }

    TraceReport traced;
    if (opt.trace || opt.smoke) {
      traced = workload->trace(runner);
      for (const std::string& f : traced.failures) failures.push_back(f);
      if (!opt.smoke) attempted = traced.sessions;
    }

    const std::vector<Metric>& reported = opt.trace ? traced.metrics : end_to_end;
    for (const Metric& m : reported) expect(std::isfinite(m.value), m.name + " is not finite");
    const bool correct = failures.empty();
    const size_t failed = correct ? 0 : attempted;
    const std::string digest = fnv_hex(opt.trace ? traced.row : timed.row);
    const std::string host = host_json(probe_host(threads, opt.git_sha));

    if (!opt.out.empty()) {
      std::vector<Metric> all = end_to_end;
      all.insert(all.end(), traced.metrics.begin(), traced.metrics.end());
      std::FILE* f = std::fopen(opt.out.c_str(), "w");
      if (f == nullptr) throw std::runtime_error("cannot write " + opt.out);
      std::fprintf(f,
                   "{\"schema_version\": 2, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                   "\"trace\": %s, \"smoke\": %s,\n \"host\": %s,\n \"correct\": %s, "
                   "\"attempted\": %zu, \"failed\": %zu, \"failures\": %s,\n"
                   " \"output_digest\": %s, \"setup_runs_s\": %s, \"pass_s\": %s,\n"
                   " \"reference_s\": %s, \"raw_sessions_per_s\": %s,\n"
                   " \"metrics\": %s}\n",
                   json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
                   number(opt.seconds).c_str(), opt.trace ? "true" : "false",
                   opt.smoke ? "true" : "false", host.c_str(), correct ? "true" : "false",
                   attempted, failed, list_json(failures).c_str(), json_string(digest).c_str(),
                   list_json(setup_runs_s).c_str(), list_json(pass_s).c_str(),
                   list_json(reference_s).c_str(), list_json(raw_rates).c_str(),
                   metrics_json(all).c_str());
      if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + opt.out);
    }

    for (const std::string& f : failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
    std::printf(
        "sensei_bench workload=%s seed=%llu threads=%zu passes=%zu output_digest=%s "
        "raw_sessions_per_s=%.6g reference_round_s=%.6g\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), threads, pass_s.size(),
        digest.c_str(), raw_rates.empty() ? 0.0 : util::percentile(raw_rates, 50.0),
        reference_s.empty() ? 0.0 : util::percentile(reference_s, 50.0));
    std::printf("host %s\n", host.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed, metrics_json(reported).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
