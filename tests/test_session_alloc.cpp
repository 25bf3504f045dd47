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
//
// The same counter holds the sharing contract of the session inputs
// (SharedTrace, SharedVideo): a trace and an encoded video are handles over
// one immutable payload, so copying one allocates at most a trace's name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/rate_based.h"
#include "abr/whittle.h"
#include "media/dataset.h"
#include "media/encoder.h"
#include "net/trace.h"
#include "net/trace_gen.h"
#include "sim/player.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Heap allocations made while `f` runs.
template <typename F>
std::uint64_t allocations_in(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Never inlined: a test body with delete's free() inlined next to a call to
// operator new reads to GCC as memory from new released by free(), and
// -Wmismatched-new-delete fires, although this operator new is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

// What copying `trace`'s name alone allocates: nothing for a name short
// enough for the small-string buffer, one block otherwise.
std::uint64_t name_allocations(const net::ThroughputTrace& trace) {
  std::vector<std::string> names;
  names.reserve(1);
  return allocations_in([&] { names.push_back(trace.name()); });
}

void expect_same_payload(const net::ThroughputTrace& a, const net::ThroughputTrace& b) {
  EXPECT_EQ(&a.samples_kbps(), &b.samples_kbps());
  EXPECT_EQ(&a.index(), &b.index());
  ASSERT_EQ(a.sample_count(), b.sample_count());
  EXPECT_EQ(std::memcmp(a.samples_kbps().data(), b.samples_kbps().data(),
                        a.sample_count() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(a.index().prefix_bits.data(), b.index().prefix_bits.data(),
                        (a.sample_count() + 1) * sizeof(double)),
            0);
}

TEST(SharedTrace, CopyAllocatesAtMostItsName) {
  for (const char* name : {"cell", "a-trace-name-too-long-for-the-small-string-buffer"}) {
    const net::ThroughputTrace trace = net::TraceGenerator::cellular(name, 1100, 600.0, 31);
    std::vector<net::ThroughputTrace> copies;
    copies.reserve(1);
    EXPECT_LE(allocations_in([&] { copies.push_back(trace); }), name_allocations(trace)) << name;
    expect_same_payload(copies[0], trace);
    EXPECT_EQ(copies[0].name(), trace.name());
    EXPECT_EQ(copies[0].finite(), trace.finite());
  }
}

TEST(SharedTrace, AsFiniteSharesThePayloadAndEndsInADeadLink) {
  const net::ThroughputTrace trace("steps", {1000.0, 2000.0, 3000.0}, 1.0);
  std::vector<net::ThroughputTrace> finite;
  finite.reserve(1);
  EXPECT_LE(allocations_in([&] { finite.push_back(trace.as_finite()); }),
            name_allocations(trace));
  expect_same_payload(finite[0], trace);
  EXPECT_TRUE(finite[0].finite());
  EXPECT_FALSE(trace.finite());

  // Past duration_s() the finite copy is a dead link; the original loops.
  const double past_end = trace.duration_s() + 0.5;
  EXPECT_DOUBLE_EQ(finite[0].throughput_at(past_end), 0.0);
  EXPECT_DOUBLE_EQ(trace.throughput_at(past_end), 1000.0);
  EXPECT_FALSE(finite[0].advance(100.0, past_end).completed);
  EXPECT_TRUE(trace.advance(100.0, past_end).completed);
  // Inside the trace both read the same step function.
  EXPECT_EQ(finite[0].advance(500.0, 0.25).elapsed_s, trace.advance(500.0, 0.25).elapsed_s);
}

TEST(SharedVideo, CopyAllocatesNothing) {
  const media::EncodedVideo video = media::Encoder().encode(
      media::SourceVideo::generate("ShareGate", media::Genre::kGaming, 120));
  std::vector<media::EncodedVideo> copies;
  copies.reserve(1);
  EXPECT_EQ(allocations_in([&] { copies.push_back(video); }), 0u);
  const media::EncodedVideo& copy = copies[0];

  EXPECT_EQ(&copy.source(), &video.source());
  EXPECT_EQ(&copy.ladder(), &video.ladder());
  ASSERT_EQ(copy.num_chunks(), video.num_chunks());
  const size_t levels = video.ladder().level_count();
  for (size_t c = 0; c < video.num_chunks(); ++c) {
    for (size_t l = 0; l < levels; ++l) {
      EXPECT_EQ(&copy.rep(c, l), &video.rep(c, l));
      EXPECT_EQ(std::memcmp(&copy.rep(c, l), &video.rep(c, l), sizeof(media::EncodedChunk)), 0);
    }
  }
}

TEST(SharedVideo, RepChecksBothIndices) {
  const media::EncodedVideo video = media::Encoder().encode(
      media::SourceVideo::generate("RepGate", media::Genre::kSports, 40));
  const size_t chunks = video.num_chunks();
  const size_t levels = video.ladder().level_count();
  ASSERT_GT(chunks, 0u);
  EXPECT_NO_THROW(video.rep(chunks - 1, levels - 1));
  EXPECT_THROW(video.rep(chunks, 0), std::out_of_range);
  // A level past the end must not alias the next chunk's reps.
  EXPECT_THROW(video.rep(0, levels), std::out_of_range);
  EXPECT_THROW(video.rep(0, levels + 1), std::out_of_range);
  EXPECT_THROW(video.size_bytes(chunks + 7, 0), std::out_of_range);
  // Levels are laid out per chunk: rep(c, l) is chunk c's l-th rung.
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t l = 0; l < levels; ++l) {
      EXPECT_EQ(video.rep(c, l).bitrate_kbps, video.ladder().kbps(l));
    }
  }
}

TEST(SharedVideo, DefaultConstructedVideoHasNoChunks) {
  const media::EncodedVideo none;
  EXPECT_EQ(none.num_chunks(), 0u);
  EXPECT_THROW(none.rep(0, 0), std::out_of_range);
  EXPECT_EQ(none.source().num_chunks(), 0u);
  EXPECT_TRUE(none.source().name().empty());
  EXPECT_EQ(none.ladder().levels_kbps(), media::BitrateLadder().levels_kbps());
  const media::EncodedVideo copy = none;
  EXPECT_EQ(copy.num_chunks(), 0u);
}

}  // namespace
}  // namespace sensei::sim
