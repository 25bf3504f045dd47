// Shared flag parsing, timing and session comparison for the bench binaries
// and the benchmark (benchmark/ includes this header for sessions_differ).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/session.h"
#include "sim/timeline.h"

namespace sensei::bench {

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

// Parses a non-negative count flag such as `--shards N`; `fallback` when
// absent. A present flag with a missing, unparsable or negative value aborts.
inline size_t count_arg(int argc, char** argv, const char* flag, size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      char* end = nullptr;
      long n = (i + 1 < argc) ? std::strtol(argv[i + 1], &end, 10) : -1;
      if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' || n < 0) {
        std::fprintf(stderr, "error: %s requires a non-negative integer\n", flag);
        std::exit(2);
      }
      return static_cast<size_t>(n);
    }
  }
  return fallback;
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

// Monotonic wall clock in seconds, for bench_figures' stderr timing line.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses `--smoke`: the reduced sweep CI runs per push.
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
      std::fprintf(stderr, "error: unknown flag '%s'\nusage: %s\n", argv[i], usage);
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

}  // namespace sensei::bench
