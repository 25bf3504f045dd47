// net::FaultPlan gates (net/fault.h):
//  - scripted-event validation;
//  - seeded-random realizations: deterministic in the seed, sorted, shaped
//    by the spec, scaled by the intensity knob;
//  - point queries (capacity_factor_at, rtt_extra_s) with overlap semantics
//    (min factor / max extra — faults don't stack); rtt_extra_s's
//    start-sorted early-exit scan equals a scan over every event at and
//    one ulp around each spike edge;
//  - apply_to_trace materialization: interval scaling snaps outward to the
//    sample grid, looping traces unroll whole periods, finite traces stay
//    finite, names and intervals survive.
#include "net/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/trace.h"
#include "util/rng.h"

namespace sensei::net {
namespace {

FaultEvent make_event(FaultKind kind, double start, double duration, double magnitude) {
  FaultEvent e;
  e.kind = kind;
  e.start_s = start;
  e.duration_s = duration;
  e.magnitude = magnitude;
  return e;
}

TEST(FaultPlan, RejectsMalformedEvents) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(make_event(FaultKind::kOutage, -1.0, 2.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(make_event(FaultKind::kOutage, 1.0, 0.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(make_event(FaultKind::kOutage, 1.0, -2.0, 0.0)),
               std::invalid_argument);
  // Collapse factor must be inside (0, 1): 0 is an outage, 1 is a no-op.
  EXPECT_THROW(plan.add(make_event(FaultKind::kCapacityCollapse, 1.0, 2.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(make_event(FaultKind::kCapacityCollapse, 1.0, 2.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(make_event(FaultKind::kRttSpike, 1.0, 2.0, -0.5)),
               std::invalid_argument);
  EXPECT_TRUE(plan.empty());
  plan.add(make_event(FaultKind::kCapacityCollapse, 1.0, 2.0, 0.5));
  EXPECT_EQ(plan.events().size(), 1u);
}

TEST(FaultPlan, RandomRealizationIsSeededSortedAndSpecShaped) {
  RandomFaultSpec spec;
  spec.horizon_s = 300.0;
  spec.mean_outages = 4.0;
  spec.mean_collapses = 3.0;
  spec.collapse_factor = 0.2;
  spec.mean_rtt_spikes = 5.0;
  spec.rtt_spike_extra_s = 0.7;

  FaultPlan a = FaultPlan::random(spec, 99);
  FaultPlan b = FaultPlan::random(spec, 99);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start_s, b.events()[i].start_s);
    EXPECT_EQ(a.events()[i].duration_s, b.events()[i].duration_s);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  ASSERT_GT(a.events().size(), 3u);  // ~12 expected events
  double prev = 0.0;
  for (const FaultEvent& e : a.events()) {
    EXPECT_GE(e.start_s, prev);
    EXPECT_LT(e.start_s, spec.horizon_s);
    EXPECT_GT(e.duration_s, 0.0);
    if (e.kind == FaultKind::kCapacityCollapse) {
      EXPECT_EQ(e.magnitude, 0.2);
    }
    if (e.kind == FaultKind::kRttSpike) {
      EXPECT_EQ(e.magnitude, 0.7);
    }
    prev = e.start_s;
  }
  // A different seed draws a different realization.
  FaultPlan c = FaultPlan::random(spec, 100);
  bool differs = c.events().size() != a.events().size();
  for (size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].start_s != c.events()[i].start_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, IntensityScalesCountsAndZeroDisables) {
  RandomFaultSpec spec;
  spec.mean_outages = 2.0;
  spec.mean_collapses = 1.0;
  spec.mean_rtt_spikes = 2.0;

  EXPECT_TRUE(spec.scaled(0.0).empty());
  EXPECT_TRUE(FaultPlan::random(spec.scaled(0.0), 7).empty());
  EXPECT_TRUE(RandomFaultSpec().empty());
  EXPECT_TRUE(FaultPlan::random(RandomFaultSpec(), 7).empty());

  // Mean realized counts scale with the knob (shapes untouched): average
  // over seeds to beat Poisson noise.
  size_t at_1 = 0, at_4 = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    at_1 += FaultPlan::random(spec, seed).events().size();
    at_4 += FaultPlan::random(spec.scaled(4.0), seed).events().size();
  }
  double ratio = static_cast<double>(at_4) / static_cast<double>(at_1);
  EXPECT_NEAR(ratio, 4.0, 1.0);
}

TEST(FaultPlan, PointQueriesUseMinFactorAndMaxExtra) {
  FaultPlan plan;
  plan.add(make_event(FaultKind::kCapacityCollapse, 1.0, 4.0, 0.4));
  plan.add(make_event(FaultKind::kOutage, 2.0, 1.0, 0.0));
  plan.add(make_event(FaultKind::kRttSpike, 1.0, 2.0, 0.5));
  plan.add(make_event(FaultKind::kRttSpike, 2.0, 2.0, 0.9));

  EXPECT_EQ(plan.capacity_factor_at(0.5), 1.0);   // before everything
  EXPECT_EQ(plan.capacity_factor_at(1.5), 0.4);   // collapse only
  EXPECT_EQ(plan.capacity_factor_at(2.5), 0.0);   // outage wins inside overlap
  EXPECT_EQ(plan.capacity_factor_at(3.5), 0.4);   // outage over, collapse active
  EXPECT_EQ(plan.capacity_factor_at(5.0), 1.0);   // end is exclusive

  EXPECT_EQ(plan.rtt_extra_s(0.5), 0.0);
  EXPECT_EQ(plan.rtt_extra_s(1.5), 0.5);
  EXPECT_EQ(plan.rtt_extra_s(2.5), 0.9);  // max over overlapping spikes, not sum
  EXPECT_EQ(plan.rtt_extra_s(3.5), 0.9);
  EXPECT_EQ(plan.rtt_extra_s(4.0), 0.0);

  // RTT spikes never affect capacity; capacity faults never affect RTT.
  EXPECT_EQ(plan.capacity_horizon_s(), 5.0);
}

// rtt_extra_s as the plan defines it: the max over every RTT spike whose
// [start, end) window holds t, in event order.
double brute_force_rtt_extra(const FaultPlan& plan, double t) {
  double extra = 0.0;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind != FaultKind::kRttSpike) continue;
    if (t >= e.start_s && t < e.end_s()) extra = std::max(extra, e.magnitude);
  }
  return extra;
}

// Seeded plans of both origins: random() realizations (sorted, one spike
// magnitude) and scripted add() sequences in arbitrary start order, with
// overlapping spikes of varied magnitude, shared starts and capacity events
// mixed in. Every spike edge is probed exactly and one ulp either side.
TEST(FaultPlan, RttExtraMatchesBruteForceScanAroundEverySpikeEdge) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<FaultPlan> plans;
  RandomFaultSpec spec;
  spec.horizon_s = 300.0;
  spec.mean_outages = 3.0;
  spec.mean_collapses = 3.0;
  spec.mean_rtt_spikes = 25.0;
  for (uint64_t seed = 0; seed < 8; ++seed) plans.push_back(FaultPlan::random(spec, seed));
  for (uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(0x5b1ce + seed);
    FaultPlan plan;
    double last_start = 0.0;
    for (int i = 0; i < 40; ++i) {
      const bool shared_start = i > 0 && rng.chance(0.2);
      const double start = shared_start ? last_start : rng.uniform(0.0, 120.0);
      last_start = start;
      const double duration = rng.exponential(8.0) + 1e-3;
      const double pick = rng.uniform();
      if (pick < 0.15) {
        plan.add(make_event(FaultKind::kOutage, start, duration, 0.0));
      } else if (pick < 0.3) {
        plan.add(make_event(FaultKind::kCapacityCollapse, start, duration, 0.3));
      } else {
        plan.add(make_event(FaultKind::kRttSpike, start, duration, rng.uniform(0.0, 2.0)));
      }
    }
    plans.push_back(plan);
  }

  size_t probes = 0, nonzero = 0;
  for (size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE("plan " + std::to_string(p));
    std::vector<double> instants = {0.0, -1.0, 1e9, kInf};
    for (const FaultEvent& e : plans[p].events()) {
      for (double edge : {e.start_s, e.end_s()}) {
        instants.push_back(edge);
        instants.push_back(std::nextafter(edge, -kInf));
        instants.push_back(std::nextafter(edge, kInf));
      }
    }
    for (double t : instants) {
      const double want = brute_force_rtt_extra(plans[p], t);
      ASSERT_EQ(plans[p].rtt_extra_s(t), want) << "t = " << t;
      ++probes;
      nonzero += want > 0.0;
    }
  }
  EXPECT_GT(probes, 3000u);
  EXPECT_GT(nonzero, 1000u);
}

TEST(FaultPlan, ApplyToTraceScalesOverlappedIntervals) {
  ThroughputTrace base("cellA", {1000.0, 2000.0, 3000.0, 4000.0}, 1.0);
  FaultPlan plan;
  plan.add(make_event(FaultKind::kOutage, 1.5, 1.0, 0.0));        // [1.5, 2.5)
  plan.add(make_event(FaultKind::kCapacityCollapse, 0.5, 3.0, 0.25));  // [0.5, 3.5)

  ThroughputTrace faulted = plan.apply_to_trace(base);
  EXPECT_EQ(faulted.name(), "cellA");
  EXPECT_EQ(faulted.interval_s(), 1.0);
  EXPECT_FALSE(faulted.finite());
  ASSERT_EQ(faulted.sample_count(), 4u);
  // Windows snap outward to the 1 s grid; min factor wins in the overlap.
  EXPECT_EQ(faulted.samples_kbps()[0], 250.0);   // collapse only
  EXPECT_EQ(faulted.samples_kbps()[1], 0.0);     // outage ∩ collapse -> outage
  EXPECT_EQ(faulted.samples_kbps()[2], 0.0);
  EXPECT_EQ(faulted.samples_kbps()[3], 1000.0);  // collapse tail [3, 3.5)
}

TEST(FaultPlan, ApplyToTraceUnrollsLoopingTraces) {
  ThroughputTrace base("loop", {1000.0, 2000.0, 3000.0, 4000.0}, 1.0);
  FaultPlan plan;
  plan.add(make_event(FaultKind::kOutage, 5.0, 1.0, 0.0));  // second period

  ThroughputTrace faulted = plan.apply_to_trace(base);
  EXPECT_FALSE(faulted.finite());
  ASSERT_EQ(faulted.sample_count(), 8u);  // ceil(6 / 4) = 2 whole periods
  for (size_t i = 0; i < 8; ++i) {
    double expected = i == 5 ? 0.0 : base.samples_kbps()[i % 4];
    EXPECT_EQ(faulted.samples_kbps()[i], expected) << "sample " << i;
  }
}

TEST(FaultPlan, ApplyToTraceKeepsFiniteTracesFinite) {
  ThroughputTrace base("fin", {1000.0, 2000.0, 3000.0, 4000.0}, 1.0, /*finite=*/true);
  FaultPlan plan;
  plan.add(make_event(FaultKind::kOutage, 5.0, 1.0, 0.0));  // beyond the end

  // A finite trace never unrolls (it has no second period to fault) and a
  // window past its end touches nothing.
  ThroughputTrace faulted = plan.apply_to_trace(base);
  EXPECT_TRUE(faulted.finite());
  ASSERT_EQ(faulted.sample_count(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(faulted.samples_kbps()[i], base.samples_kbps()[i]);
  }

  FaultPlan inside;
  inside.add(make_event(FaultKind::kOutage, 1.0, 1.0, 0.0));
  ThroughputTrace hit = inside.apply_to_trace(base);
  EXPECT_TRUE(hit.finite());
  EXPECT_EQ(hit.samples_kbps()[1], 0.0);
  EXPECT_EQ(hit.samples_kbps()[2], 3000.0);
}

TEST(FaultPlan, ApplyToTraceWithoutCapacityFaultsIsIdentity) {
  ThroughputTrace base("rtt-only", {1500.0, 2500.0}, 1.0);
  FaultPlan plan;
  plan.add(make_event(FaultKind::kRttSpike, 0.0, 10.0, 0.5));
  EXPECT_EQ(plan.capacity_horizon_s(), 0.0);
  ThroughputTrace same = plan.apply_to_trace(base);
  ASSERT_EQ(same.sample_count(), base.sample_count());
  for (size_t i = 0; i < base.sample_count(); ++i) {
    EXPECT_EQ(same.samples_kbps()[i], base.samples_kbps()[i]);
  }

  FaultPlan capacity;
  capacity.add(make_event(FaultKind::kOutage, 0.0, 1.0, 0.0));
  // An empty (default-constructed) trace has nothing to fault; the non-empty
  // constructor rejects empties itself, so the plan's own guard is what a
  // default-constructed trace reaches.
  EXPECT_THROW(capacity.apply_to_trace(ThroughputTrace()), std::invalid_argument);
}

}  // namespace
}  // namespace sensei::net
