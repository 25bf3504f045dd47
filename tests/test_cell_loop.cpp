// Ordering gates for sim::run_cell_loop, driven directly on hand-built
// SharedLinks: what happens when two kinds of event land at one instant.
//  (a) A failover at a completion instant: the completing chunk resolves on
//      the primary link as a normal arrival (no retry waste), and only the
//      sessions still live afterwards re-home to the fallback.
//  (b) An arrival at a completion instant: the leaver is delivered (and
//      retired) before the newcomer is admitted and joins the link.
// Each instant is taken from a dry run of the same sessions, so the
// colliding events share one bit-exact time.
#include "sim/cell_loop.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "media/dataset.h"
#include "media/encoder.h"
#include "net/shared_link.h"
#include "net/trace.h"
#include "sim/player.h"
#include "sim/session_engine.h"

namespace sensei::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class FixedLevelPolicy : public AbrPolicy {
 public:
  explicit FixedLevelPolicy(size_t level) : level_(level) {}
  const char* name() const override { return "fixed"; }
  AbrDecision decide(const AbrObservation&) override { return {level_, 0.0}; }

 private:
  size_t level_;
};

using Engines = std::vector<std::unique_ptr<SessionEngine>>;

// No arrivals beyond `engines`, nothing to do on retirement.
void run_closed(Engines& engines, net::SharedLink& link, CellFailover failover = {}) {
  run_cell_loop(
      engines, &link, failover, "test", [] { return kInf; },
      [](net::SharedLink&) -> size_t { return 0; }, [](size_t) {});
}

void expect_records_identical(const ChunkRecord& x, const ChunkRecord& y) {
  EXPECT_EQ(x.level, y.level);
  EXPECT_EQ(x.size_bytes, y.size_bytes);
  EXPECT_EQ(x.download_start_s, y.download_start_s);
  EXPECT_EQ(x.download_time_s, y.download_time_s);
  EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
  EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
}

class CellLoop : public ::testing::Test {
 protected:
  CellLoop()
      : video_(media::Encoder().encode(
            media::SourceVideo::generate("CellLoop", media::Genre::kSports, 40))),
        trace_("flat", std::vector<double>(600, 3000.0), 1.0),
        fallback_trace_("flat-fallback", std::vector<double>(600, 1500.0), 1.0) {}

  std::unique_ptr<SessionEngine> engine(net::SharedLink& link, FixedLevelPolicy& policy,
                                        double start_s, size_t chunk_limit) {
    auto e = std::make_unique<SessionEngine>(config_, video_, link, policy, no_weights_,
                                             start_s);
    e->set_chunk_limit(chunk_limit);
    return e;
  }

  PlayerConfig config_;
  media::EncodedVideo video_;
  net::ThroughputTrace trace_;
  net::ThroughputTrace fallback_trace_;
  const std::vector<double> no_weights_;
};

TEST_F(CellLoop, FailoverAtACompletionInstantResolvesThatChunkOnThePrimary) {
  // A (slot 0) fetches one small chunk, B (slot 1) a full video of large
  // ones; both join at the first RTT expiry, so A's transfer is id 0 and
  // finishes first, with B still on the wire.
  const size_t top = video_.ladder().level_count() - 1;
  auto make = [&](net::SharedLink& link, FixedLevelPolicy& pa, FixedLevelPolicy& pb) {
    Engines engines;
    engines.push_back(engine(link, pa, 0.0, 1));
    engines.push_back(engine(link, pb, 0.0, static_cast<size_t>(-1)));
    return engines;
  };

  FixedLevelPolicy dry_a(0), dry_b(top);
  net::SharedLink dry_link(trace_);
  Engines dry = make(dry_link, dry_a, dry_b);
  run_closed(dry, dry_link);
  ASSERT_TRUE(dry_link.view(0).finished);
  const double t_c = dry_link.view(0).finish_s;
  ASSERT_LT(t_c, dry_link.view(1).finish_s);  // B is mid-transfer at t_c
  const SessionResult dry_a_result = dry[0]->take_result();

  FixedLevelPolicy pa(0), pb(top);
  net::SharedLink primary(trace_);
  net::SharedLink fallback(fallback_trace_);
  Engines engines = make(primary, pa, pb);
  const double reconnect_s = 2.0;
  run_closed(engines, primary, CellFailover{t_c, &fallback, reconnect_s});

  // A's chunk completed on the primary, exactly as without the failover,
  // and A (done at t_c) was not re-homed.
  EXPECT_TRUE(primary.view(0).finished);
  EXPECT_FALSE(primary.view(0).aborted);
  EXPECT_EQ(engines[0]->failovers(), 0u);
  const SessionResult a = engines[0]->take_result();
  ASSERT_EQ(a.chunks().size(), 1u);
  expect_records_identical(a.chunks()[0], dry_a_result.chunks()[0]);
  ASSERT_NE(a.timeline(), nullptr);
  EXPECT_EQ(a.timeline()->chunks()[0].retry_wasted_s, 0.0);
  EXPECT_EQ(a.timeline()->chunks()[0].backoff_s, 0.0);

  // B was live: its in-flight attempt died with the primary at t_c and was
  // charged as retry waste plus the reconnect as backoff.
  EXPECT_TRUE(primary.view(1).aborted);
  EXPECT_EQ(engines[1]->failovers(), 1u);
  const SessionResult b = engines[1]->take_result();
  EXPECT_EQ(b.outcome(), SessionOutcome::kCompleted);
  EXPECT_EQ(b.chunks().size(), video_.num_chunks());
  ASSERT_NE(b.timeline(), nullptr);
  EXPECT_EQ(b.timeline()->chunks()[0].retry_wasted_s, t_c);
  EXPECT_EQ(b.timeline()->chunks()[0].backoff_s, reconnect_s);
}

TEST_F(CellLoop, ArrivalAtACompletionInstantJoinsAfterTheLeaverFreedItsShare) {
  config_.rtt_s = 0.0;  // the newcomer joins the link at its arrival instant

  FixedLevelPolicy dry_a(2);
  net::SharedLink dry_link(trace_);
  Engines dry;
  dry.push_back(engine(dry_link, dry_a, 0.0, 1));
  run_closed(dry, dry_link);
  ASSERT_TRUE(dry_link.view(0).finished);
  const double t_c = dry_link.view(0).finish_s;
  const SessionResult dry_a_result = dry[0]->take_result();

  FixedLevelPolicy pa(2), pb(2);
  net::SharedLink link(trace_);
  Engines engines;
  engines.push_back(engine(link, pa, 0.0, 1));
  bool arrived = false;
  std::vector<std::string> log;
  run_cell_loop(
      engines, &link, CellFailover{}, "test", [&] { return arrived ? kInf : t_c; },
      [&](net::SharedLink& live) -> size_t {
        arrived = true;
        log.push_back("admit at " + std::to_string(live.now_s() == t_c) + " active " +
                      std::to_string(live.active_count()));
        engines.push_back(engine(live, pb, t_c, 1));
        return engines.size() - 1;
      },
      [&](size_t slot) { log.push_back("retire " + std::to_string(slot)); });

  // The leaver is retired before the newcomer is admitted, and the newcomer
  // finds the link empty at t_c.
  const std::vector<std::string> expected = {"retire 0", "admit at 1 active 0", "retire 1"};
  EXPECT_EQ(log, expected);
  // The newcomer's transfer (id 1) joined after the leaver's finished.
  EXPECT_TRUE(link.view(1).finished);
  const SessionResult a = engines[0]->take_result();
  ASSERT_EQ(a.chunks().size(), 1u);
  expect_records_identical(a.chunks()[0], dry_a_result.chunks()[0]);
  const SessionResult b = engines[1]->take_result();
  ASSERT_EQ(b.chunks().size(), 1u);
  EXPECT_EQ(b.chunks()[0].download_start_s, 0.0);  // requested on arrival
}

}  // namespace
}  // namespace sensei::sim
