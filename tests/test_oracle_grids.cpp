// The paper's two Fugu sweeps, checked end to end against the reference
// oracles (tests/oracles/):
//
//  - fig14: Experiments::videos() x Experiments::traces();
//  - fig12b: the same videos x the six bandwidth scalings of trace 6.
//
// On each grid, fugu and sensei-fugu are built from the registry exactly as
// bench_figures builds them for Figs. 14 and 12b (exact DP planner), then
// run again with the exhaustive reference planner in place
// of the DP, on the DP policy's own config. Every ChunkRecord field and the
// oracle QoE must match bit for bit.
//
// Every transfer of those grids (and of BBA's on fig14) is also replayed on
// the walker reference integration: the grids start every session at 0 and
// inject no faults, so each chunk's download time is exactly rtt plus one
// integration from its download start plus rtt. If every integration on a
// run's path matches, a walker run of the grid is identical. No single
// chunk of these grids outlasts the integrator's 64-interval linear scan,
// so the replay also integrates, from each chunk's transfer start, the rest
// of the session's bytes in one transfer: session-scale spans that take the
// binary-search path, warm-started the way a session's cursor is.
//
// Those policies come from Experiments::policy_factory, so the Fugu-family
// configs it builds are also checked field by field against hand-built ones.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abr/fugu.h"
#include "abr/registry.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "oracles/exhaustive_planner.h"
#include "oracles/walker.h"
#include "sim/player.h"

namespace sensei {
namespace {

using core::Experiments;

// The bench's Fugu variants: registry spec and whether it streams with the
// profiled sensitivity weights.
struct FuguVariant {
  const char* spec;
  bool use_weights;
};
constexpr FuguVariant kVariants[] = {{"fugu:planner=dp", false},
                                     {"sensei-fugu:planner=dp", true}};

std::vector<net::ThroughputTrace> fig12b_traces() {
  const net::ThroughputTrace base = Experiments::traces()[6];
  std::vector<net::ThroughputTrace> scaled;
  for (double scale : {0.2, 0.35, 0.5, 0.65, 0.8, 1.0}) scaled.push_back(base.scaled(scale));
  return scaled;
}

std::vector<Experiments::RunResult> run_grid(const std::vector<net::ThroughputTrace>& traces,
                                             const Experiments::PolicyFactory& make_policy,
                                             bool use_weights) {
  core::ExperimentRunner runner(4);
  return Experiments::run_grid(
      Experiments::videos(), traces, make_policy,
      use_weights ? Experiments::weights() : std::vector<std::vector<double>>{}, runner);
}

// The DP policy `spec` names, rebuilt on the exhaustive reference planner.
Experiments::PolicyFactory exhaustive_twin(const std::string& spec) {
  return [spec]() -> std::unique_ptr<sim::AbrPolicy> {
    std::unique_ptr<sim::AbrPolicy> dp = abr::make_policy(spec);
    const auto& fugu = dynamic_cast<const abr::FuguAbr&>(*dp);
    return std::make_unique<abr::FuguAbr>(fugu.config(),
                                          std::make_unique<oracles::ExhaustivePlanner>());
  };
}

void expect_cells_identical(const std::vector<Experiments::RunResult>& dp,
                            const std::vector<Experiments::RunResult>& exhaustive) {
  ASSERT_EQ(dp.size(), exhaustive.size());
  size_t chunks = 0;
  for (size_t cell = 0; cell < dp.size(); ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    EXPECT_EQ(dp[cell].true_qoe, exhaustive[cell].true_qoe);
    const sim::SessionResult& a = dp[cell].session;
    const sim::SessionResult& b = exhaustive[cell].session;
    EXPECT_EQ(a.startup_delay_s(), b.startup_delay_s());
    ASSERT_EQ(a.chunks().size(), b.chunks().size());
    for (size_t i = 0; i < a.chunks().size(); ++i) {
      const sim::ChunkRecord& x = a.chunks()[i];
      const sim::ChunkRecord& y = b.chunks()[i];
      SCOPED_TRACE("chunk " + std::to_string(i));
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.level, y.level);
      EXPECT_EQ(x.bitrate_kbps, y.bitrate_kbps);
      EXPECT_EQ(x.size_bytes, y.size_bytes);
      EXPECT_EQ(x.download_start_s, y.download_start_s);
      EXPECT_EQ(x.download_time_s, y.download_time_s);
      EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
      EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
      EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
      EXPECT_EQ(x.visual_quality, y.visual_quality);
      ++chunks;
    }
  }
  EXPECT_GT(chunks, 0u);
}

void expect_dp_matches_exhaustive(const std::vector<net::ThroughputTrace>& traces) {
  for (const FuguVariant& variant : kVariants) {
    SCOPED_TRACE(variant.spec);
    expect_cells_identical(
        run_grid(traces, Experiments::policy_factory(variant.spec), variant.use_weights),
        run_grid(traces, exhaustive_twin(variant.spec), variant.use_weights));
  }
}

// The first chunk i whose rest-of-session transfer (the bytes of chunks
// i..end, from chunk i's transfer start) integrates differently on a
// session-style cursor than on the walker; chunks().size() when none does.
size_t first_suffix_mismatch(const sim::SessionResult& session,
                             const net::ThroughputTrace& trace, double rtt_s) {
  const std::vector<sim::ChunkRecord>& chunks = session.chunks();
  double bytes = 0.0;
  for (const sim::ChunkRecord& c : chunks) bytes += c.size_bytes;
  net::TraceCursor cursor(trace);
  for (size_t i = 0; i < chunks.size(); ++i) {
    const double start_s = chunks[i].download_start_s + rtt_s;
    const net::TransferResult got = cursor.advance(bytes, start_s);
    const net::TransferResult want = oracles::reference_integrate(trace, bytes, start_s);
    if (got.completed != want.completed || got.elapsed_s != want.elapsed_s) return i;
    bytes -= chunks[i].size_bytes;
  }
  return chunks.size();
}

void expect_transfers_replay_on_walker(const std::vector<net::ThroughputTrace>& traces,
                                       const Experiments::PolicyFactory& make_policy,
                                       bool use_weights) {
  const double rtt_s = sim::PlayerConfig().rtt_s;
  const std::vector<Experiments::RunResult> cells = run_grid(traces, make_policy, use_weights);
  size_t transfers = 0;
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    const sim::SessionResult& session = cells[cell].session;
    const net::ThroughputTrace& trace = traces[cell % traces.size()];
    const size_t mismatch = oracles::first_transfer_mismatch(session, trace, rtt_s);
    EXPECT_EQ(mismatch, session.chunks().size())
        << "cell " << cell << " (" << trace.name() << ") chunk " << mismatch;
    const size_t suffix = first_suffix_mismatch(session, trace, rtt_s);
    EXPECT_EQ(suffix, session.chunks().size())
        << "cell " << cell << " (" << trace.name() << ") rest of session from chunk " << suffix;
    transfers += session.chunks().size();
  }
  EXPECT_GT(transfers, 0u);
}

// Every FuguConfig field of fugu, sensei-fugu and sensei-fugu-bitrate-only,
// as policy_factory builds them for the paper grids at either planner,
// equals the FuguConfig a caller would write by hand.
TEST(OracleGrids, PolicyFactoryBuildsHandBuiltFuguConfigs) {
  for (abr::PlannerKind planner : {abr::PlannerKind::kDp, abr::PlannerKind::kVi}) {
    abr::FuguConfig fugu;
    fugu.planner = planner;
    abr::FuguConfig sensei_fugu = fugu;
    sensei_fugu.use_weights = true;
    sensei_fugu.rebuffer_options = {0.0, 1.0, 2.0};
    abr::FuguConfig bitrate_only = fugu;
    bitrate_only.use_weights = true;
    const std::pair<std::string, abr::FuguConfig> cases[] = {
        {"fugu", fugu}, {"sensei-fugu", sensei_fugu}, {"sensei-fugu-bitrate-only", bitrate_only}};
    for (const auto& [name, want] : cases) {
      const std::string spec =
          name + (planner == abr::PlannerKind::kVi ? ":planner=vi" : ":planner=dp");
      SCOPED_TRACE(spec);
      const std::unique_ptr<sim::AbrPolicy> policy = Experiments::policy_factory(spec)();
      const abr::FuguConfig& got = dynamic_cast<const abr::FuguAbr&>(*policy).config();
      EXPECT_EQ(got.horizon, want.horizon);
      EXPECT_EQ(got.predictor_window, want.predictor_window);
      EXPECT_EQ(got.chunk.beta_rebuf, want.chunk.beta_rebuf);
      EXPECT_EQ(got.chunk.rebuf_saturation, want.chunk.rebuf_saturation);
      EXPECT_EQ(got.chunk.beta_switch, want.chunk.beta_switch);
      EXPECT_EQ(got.chunk.floor, want.chunk.floor);
      EXPECT_EQ(got.use_weights, want.use_weights);
      EXPECT_EQ(got.weight_shrinkage, want.weight_shrinkage);
      EXPECT_EQ(got.rebuffer_options, want.rebuffer_options);
      EXPECT_EQ(got.rebuffer_margin, want.rebuffer_margin);
      EXPECT_EQ(got.planner, want.planner);
    }
  }
}

TEST(OracleGrids, Fig14DpMatchesExhaustivePlanner) {
  expect_dp_matches_exhaustive(Experiments::traces());
}

TEST(OracleGrids, Fig12bDpMatchesExhaustivePlanner) {
  expect_dp_matches_exhaustive(fig12b_traces());
}

TEST(OracleGrids, Fig14TransfersReplayOnWalker) {
  for (const FuguVariant& variant : kVariants) {
    SCOPED_TRACE(variant.spec);
    expect_transfers_replay_on_walker(Experiments::traces(),
                                      Experiments::policy_factory(variant.spec),
                                      variant.use_weights);
  }
  SCOPED_TRACE("bba");
  expect_transfers_replay_on_walker(Experiments::traces(), Experiments::policy_factory("bba"),
                                    false);
}

TEST(OracleGrids, Fig12bTransfersReplayOnWalker) {
  const std::vector<net::ThroughputTrace> traces = fig12b_traces();
  for (const FuguVariant& variant : kVariants) {
    SCOPED_TRACE(variant.spec);
    expect_transfers_replay_on_walker(traces, Experiments::policy_factory(variant.spec),
                                      variant.use_weights);
  }
}

}  // namespace
}  // namespace sensei
