// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Each binary prints the same rows/series the paper reports.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "abr/planner.h"
#include "crowd/campaign.h"
#include "crowd/ground_truth.h"
#include "media/encoder.h"
#include "sim/render.h"
#include "sim/session.h"
#include "sim/timeline.h"
#include "util/stats.h"
#include "util/table.h"

namespace sensei::bench {

// Parses `--planner dp|vi` for the Fugu-based grid benches. dp is exact
// (tests/test_oracle_grids.cpp holds it to the exhaustive reference on
// these grids). vi is the lossy discretized value iteration: output may
// legitimately shift within the accuracy bound pinned by
// tests/test_planner_accuracy.cpp, so CI treats dp-vs-vi diffs as
// informational, never as a determinism failure.
inline abr::PlannerKind planner_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--planner") == 0 && i + 1 < argc) {
      if (std::strcmp(argv[i + 1], "dp") == 0) return abr::PlannerKind::kDp;
      if (std::strcmp(argv[i + 1], "vi") == 0) return abr::PlannerKind::kVi;
      std::fprintf(stderr, "error: --planner expects dp or vi\n");
      std::exit(2);
    }
  }
  return abr::PlannerKind::kDp;
}

// The registry spelling of a planner kind ("fugu:planner=...").
inline const char* planner_text(abr::PlannerKind planner) {
  return planner == abr::PlannerKind::kVi ? "vi" : "dp";
}

// Parses `--baseline FILE`: a pinned bench JSON from an earlier run whose
// schema this binary validates via check_baseline_fields. Empty when absent.
inline std::string baseline_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --baseline requires a file path\n");
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return "";
}

// Guards the pinned-JSON comparisons against stale baselines: fails the
// process unless the JSON at `path` declares a schema_version of at least
// `min_schema_version` AND contains every string in `required_fields`. A
// baseline written before a schema gained a dimension (e.g. the planner
// mode) would otherwise let a diff "pass" against a file that never
// recorded the dimension under test.
inline void check_baseline_fields(const std::string& path, long min_schema_version,
                                  std::initializer_list<const char*> required_fields) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "error: cannot read baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);

  const char* key = "\"schema_version\":";
  size_t pos = text.find(key);
  long version =
      pos == std::string::npos ? 0 : std::strtol(text.c_str() + pos + std::strlen(key), nullptr, 10);
  if (version < min_schema_version) {
    std::fprintf(stderr,
                 "error: baseline %s has schema_version %ld, this binary requires >= %ld "
                 "(regenerate the pinned JSON)\n",
                 path.c_str(), version, min_schema_version);
    std::exit(1);
  }
  for (const char* field : required_fields) {
    if (text.find(field) == std::string::npos) {
      std::fprintf(stderr,
                   "error: baseline %s is missing required field %s "
                   "(regenerate the pinned JSON)\n",
                   path.c_str(), field);
      std::exit(1);
    }
  }
  std::printf("baseline %s: schema_version %ld ok, %zu required fields present\n",
              path.c_str(), version, required_fields.size());
}

// Parses `--threads N` for the grid benches. 0 (the default) lets
// core::ExperimentRunner pick std::thread::hardware_concurrency(). A value
// that is present but unparsable or non-positive aborts: falling back
// silently would run with a different thread count than the caller asked
// for, which defeats determinism comparisons keyed on `--threads`.
inline size_t threads_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      char* end = nullptr;
      long n = (i + 1 < argc) ? std::strtol(argv[i + 1], &end, 10) : 0;
      if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "error: --threads requires a positive integer\n");
        std::exit(2);
      }
      return static_cast<size_t>(n);
    }
  }
  return 0;
}

// Collects every `--policy SPEC` occurrence: abr::PolicyRegistry spec
// strings ("bba", "fugu:planner=vi", ... — grammar in abr/registry.h) the
// spec-driven benches append to or substitute for their default policy
// set. Syntax/vocabulary validation is the registry's job, so a bad spec
// fails with the registry's position-annotated error at construction.
inline std::vector<std::string> policy_specs_arg(int argc, char** argv) {
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) specs.push_back(argv[i + 1]);
  }
  return specs;
}

// Monotonic wall clock in seconds, for the timing loops of the perf benches.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses `--smoke`: the reduced sweep the CI perf jobs run per push.
inline bool smoke_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

// Parses `--out FILE` for the JSON-emitting benches; a present flag without
// a destination aborts rather than silently writing the default path.
inline std::string out_arg(int argc, char** argv, const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out requires a file path\n");
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return default_path;
}

// Rejects argv entries outside the accepted flag set, so a typo fails loudly
// instead of silently running the default sweep. `value_flags` consume the
// following argument; `bool_flags` stand alone.
inline void check_flags(int argc, char** argv, std::initializer_list<const char*> value_flags,
                        std::initializer_list<const char*> bool_flags,
                        const char* usage) {
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    for (const char* flag : value_flags) {
      if (std::strcmp(argv[i], flag) == 0) {
        // A value flag with a missing value — or another flag where its
        // value belongs — must fail loudly: silently running the default
        // would e.g. let a dropped `--threads 4` turn CI's thread-count
        // diff into 1-vs-1, and `--out --smoke` would be double-read as
        // both an output path and the smoke switch.
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          std::fprintf(stderr, "error: %s requires a value\nusage: %s\n", flag, usage);
          std::exit(2);
        }
        known = true;
        ++i;  // the flag's value
        break;
      }
    }
    if (!known) {
      for (const char* flag : bool_flags) {
        if (std::strcmp(argv[i], flag) == 0) {
          known = true;
          break;
        }
      }
    }
    if (!known) {
      std::fprintf(stderr, "usage: %s\n", usage);
      std::exit(2);
    }
  }
}

// True when two sessions differ in any identity-gated field: outcome,
// startup delay, chunk count, any per-chunk record field, or — when both
// sessions carry trajectories — any ChunkTrajectory field (stall placement
// is the project's premise, so the bench gates must see it too). This is
// the single comparator behind every bench-side bit-identity cross-check
// (Simulator-vs-Player in bench_multisession, the paper_sweep identity gate
// of the benchmark), so a new record/trajectory field only needs adding
// here.
inline bool sessions_differ(const sim::SessionResult& a, const sim::SessionResult& b) {
  if (a.chunks().size() != b.chunks().size() || a.outcome() != b.outcome() ||
      a.outcome_cause() != b.outcome_cause() || a.failed_chunk() != b.failed_chunk() ||
      a.startup_delay_s() != b.startup_delay_s()) {
    return true;
  }
  for (size_t i = 0; i < a.chunks().size(); ++i) {
    const sim::ChunkRecord& x = a.chunks()[i];
    const sim::ChunkRecord& y = b.chunks()[i];
    if (x.level != y.level || x.size_bytes != y.size_bytes ||
        x.bitrate_kbps != y.bitrate_kbps || x.visual_quality != y.visual_quality ||
        x.download_start_s != y.download_start_s ||
        x.download_time_s != y.download_time_s || x.rebuffer_s != y.rebuffer_s ||
        x.scheduled_rebuffer_s != y.scheduled_rebuffer_s ||
        x.buffer_after_s != y.buffer_after_s) {
      return true;
    }
  }
  if ((a.timeline() == nullptr) != (b.timeline() == nullptr)) return true;
  if (a.timeline() != nullptr) {
    const sim::SessionTimeline& ta = *a.timeline();
    const sim::SessionTimeline& tb = *b.timeline();
    if (ta.chunks().size() != tb.chunks().size() ||
        ta.startup_delay_s() != tb.startup_delay_s() || ta.outcome() != tb.outcome()) {
      return true;
    }
    if (ta.outcome() == sim::SessionOutcome::kOutage &&
        (ta.outage_chunk() != tb.outage_chunk() ||
         ta.outage_wall_s() != tb.outage_wall_s())) {
      return true;
    }
    for (size_t i = 0; i < ta.chunks().size(); ++i) {
      const sim::ChunkTrajectory& x = ta.chunks()[i];
      const sim::ChunkTrajectory& y = tb.chunks()[i];
      if (x.level != y.level || x.request_wall_s != y.request_wall_s ||
          x.rtt_s != y.rtt_s || x.transfer_s != y.transfer_s ||
          x.retry_wasted_s != y.retry_wasted_s || x.backoff_s != y.backoff_s ||
          x.retries != y.retries ||
          x.arrival_wall_s != y.arrival_wall_s || x.stall_s != y.stall_s ||
          x.stall_start_wall_s != y.stall_start_wall_s ||
          x.scheduled_pause_s != y.scheduled_pause_s || x.idle_s != y.idle_s ||
          x.buffer_before_s != y.buffer_before_s || x.buffer_after_s != y.buffer_after_s ||
          x.playhead_before_s != y.playhead_before_s ||
          x.playhead_after_s != y.playhead_after_s ||
          x.pause_debt_after_s != y.pause_debt_after_s ||
          x.goodput_kbps != y.goodput_kbps) {
        return true;
      }
    }
  }
  return false;
}

// Crowdsourced MOS for a set of renderings of one source video: runs a
// simulated MTurk campaign against the pristine reference, as §4.1 does.
inline std::vector<double> crowdsourced_mos(const crowd::GroundTruthQoE& oracle,
                                            const media::EncodedVideo& video,
                                            const std::vector<sim::RenderedVideo>& renderings,
                                            size_t ratings_per_video, uint64_t seed) {
  crowd::Campaign campaign(oracle, crowd::RaterConfig(), crowd::CampaignConfig(), seed);
  auto reference = sim::RenderedVideo::pristine(video);
  return campaign.run(renderings, reference, ratings_per_video).mos;
}

// Prints an empirical CDF as "value fraction" rows at the given quantiles.
inline void print_cdf(const std::string& title, const std::vector<double>& values) {
  std::printf("%s", util::banner(title).c_str());
  util::Table table({"percentile", "value"});
  for (double p : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0}) {
    table.add_row(std::vector<double>{p, util::percentile(values, p)}, 2);
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace sensei::bench
