// Steady-state allocation gate for the session hot path: once the first
// chunk has been decided, streaming a video must not touch the heap — the
// trace cursor reads the prebuilt index, the observation/history/trajectory
// buffers are at their high-water capacity, the predictors run on fixed
// rings, and the MPC planner reuses its grow-only arena.
//
// Measured with a counting global operator new (this test binary only):
// a wrapper policy snapshots the allocation counter at its second decision
// (chunk 1 — per-session setup and first-chunk growth are allowed) and the
// test asserts the counter never moved by the last decision.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/rate_based.h"
#include "abr/whittle.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensei::sim {
namespace {

// Forwards to the wrapped policy while recording the global allocation
// counter at chunk 1 (steady state begins) and at every later decision.
class AllocationProbePolicy : public AbrPolicy {
 public:
  explicit AllocationProbePolicy(AbrPolicy& inner) : inner_(&inner) {}

  const char* name() const override { return inner_->name(); }

  void begin_session(const media::EncodedVideo& video) override {
    inner_->begin_session(video);
    steady_start_ = 0;
    steady_end_ = 0;
    decisions_ = 0;
  }

  AbrDecision decide(const AbrObservation& obs) override {
    AbrDecision d = inner_->decide(obs);
    // Snapshot *after* the inner decision so chunk 1's own decide cost is
    // included in the window.
    std::uint64_t count = g_allocations.load(std::memory_order_relaxed);
    if (obs.next_chunk == 1) steady_start_ = count;
    if (obs.next_chunk >= 1) steady_end_ = count;
    ++decisions_;
    return d;
  }

  // Allocations between the chunk-1 decision and the last decision.
  std::uint64_t steady_state_allocations() const { return steady_end_ - steady_start_; }
  size_t decisions() const { return decisions_; }

 private:
  AbrPolicy* inner_;
  std::uint64_t steady_start_ = 0;
  std::uint64_t steady_end_ = 0;
  size_t decisions_ = 0;
};

class SessionAllocation : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("AllocGate", media::Genre::kSports, 240));
  net::ThroughputTrace trace_ = net::TraceGenerator::cellular("alloc-cell", 1100, 600.0, 31);
};

// "OnBothEngines" in these names dates from when the legacy loop was a
// second production engine; the timeline engine is now the only one.
TEST_F(SessionAllocation, BbaStreamsWithoutAllocatingOnBothEngines) {
  abr::BbaAbr bba;
  AllocationProbePolicy probe(bba);
  SessionResult s = Player().stream(video_, trace_, probe);
  ASSERT_EQ(s.chunks().size(), video_.num_chunks());
  ASSERT_GT(probe.decisions(), 10u);
  EXPECT_EQ(probe.steady_state_allocations(), 0u);
}

TEST_F(SessionAllocation, RateBasedStreamsWithoutAllocatingOnBothEngines) {
  abr::RateBasedAbr rate;
  AllocationProbePolicy probe(rate);
  SessionResult s = Player().stream(video_, trace_, probe);
  ASSERT_EQ(s.chunks().size(), video_.num_chunks());
  EXPECT_EQ(probe.steady_state_allocations(), 0u);
}

TEST_F(SessionAllocation, WhittleStreamsWithoutAllocatingOnBothEngines) {
  // The Whittle index is O(levels) arithmetic per decide over a fixed-ring
  // predictor: allocation-free from the first decision on.
  abr::WhittleIndexAbr whittle;
  AllocationProbePolicy probe(whittle);
  SessionResult s = Player().stream(video_, trace_, probe);
  ASSERT_EQ(s.chunks().size(), video_.num_chunks());
  EXPECT_EQ(probe.steady_state_allocations(), 0u);
}

TEST_F(SessionAllocation, FuguSteadyStateStopsAllocatingOnceArenaIsWarm) {
  // The DP planner's arena is grow-only: the first identical session
  // reaches its high-water mark, so a repeat session must stream without a
  // single allocation after chunk 1.
  abr::FuguConfig cfg;
  cfg.use_weights = true;
  cfg.rebuffer_options = {0.0, 1.0, 2.0};
  abr::FuguAbr fugu(cfg);
  AllocationProbePolicy probe(fugu);
  std::vector<double> weights(video_.num_chunks(), 1.0);
  for (size_t i = 4; i < weights.size(); i += 9) weights[i] = 2.3;

  Player player;
  player.stream(video_, trace_, probe, weights);  // warm the arena
  SessionResult s = player.stream(video_, trace_, probe, weights);
  ASSERT_EQ(s.chunks().size(), video_.num_chunks());
  EXPECT_EQ(probe.steady_state_allocations(), 0u);
}

}  // namespace
}  // namespace sensei::sim
