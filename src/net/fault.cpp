#include "net/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace sensei::net {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kCapacityCollapse:
      return "capacity_collapse";
    case FaultKind::kRttSpike:
      return "rtt_spike";
  }
  return "unknown";
}

RandomFaultSpec RandomFaultSpec::scaled(double intensity) const {
  if (!(intensity >= 0.0) || !std::isfinite(intensity)) {
    throw std::invalid_argument("fault spec: intensity must be finite and non-negative");
  }
  RandomFaultSpec out = *this;
  out.mean_outages *= intensity;
  out.mean_collapses *= intensity;
  out.mean_rtt_spikes *= intensity;
  return out;
}

void FaultPlan::add(const FaultEvent& event) {
  if (!std::isfinite(event.start_s) || event.start_s < 0.0) {
    throw std::invalid_argument("fault plan: event start must be finite and non-negative");
  }
  if (!std::isfinite(event.duration_s) || event.duration_s <= 0.0) {
    throw std::invalid_argument("fault plan: event duration must be finite and positive");
  }
  switch (event.kind) {
    case FaultKind::kOutage:
      break;
    case FaultKind::kCapacityCollapse:
      if (!(event.magnitude > 0.0) || !(event.magnitude < 1.0)) {
        throw std::invalid_argument("fault plan: collapse factor must be in (0, 1)");
      }
      break;
    case FaultKind::kRttSpike:
      if (!std::isfinite(event.magnitude) || event.magnitude < 0.0) {
        throw std::invalid_argument("fault plan: rtt spike extra must be finite and non-negative");
      }
      break;
  }
  events_.push_back(event);
  if (event.kind == FaultKind::kRttSpike) {
    const RttSpike spike{event.start_s, event.end_s(), event.magnitude};
    const auto by_start = [](const RttSpike& a, const RttSpike& b) {
      return a.start_s < b.start_s;
    };
    spikes_.insert(std::upper_bound(spikes_.begin(), spikes_.end(), spike, by_start), spike);
  }
}

FaultPlan FaultPlan::random(const RandomFaultSpec& spec, uint64_t seed) {
  if (!(spec.horizon_s > 0.0) || !std::isfinite(spec.horizon_s)) {
    throw std::invalid_argument("fault spec: horizon must be finite and positive");
  }
  FaultPlan plan;
  util::Rng rng(seed);
  // Fixed draw order: counts per kind first, then (start, duration) pairs
  // per event — adding a kind to the spec never perturbs earlier draws.
  const size_t n_outages = rng.poisson(spec.mean_outages);
  const size_t n_collapses = rng.poisson(spec.mean_collapses);
  const size_t n_spikes = rng.poisson(spec.mean_rtt_spikes);
  for (size_t i = 0; i < n_outages; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kOutage;
    e.start_s = rng.uniform(0.0, spec.horizon_s);
    e.duration_s = rng.exponential(spec.outage_mean_duration_s);
    plan.add(e);
  }
  for (size_t i = 0; i < n_collapses; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kCapacityCollapse;
    e.start_s = rng.uniform(0.0, spec.horizon_s);
    e.duration_s = rng.exponential(spec.collapse_mean_duration_s);
    e.magnitude = spec.collapse_factor;
    plan.add(e);
  }
  for (size_t i = 0; i < n_spikes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kRttSpike;
    e.start_s = rng.uniform(0.0, spec.horizon_s);
    e.duration_s = rng.exponential(spec.rtt_spike_mean_duration_s);
    e.magnitude = spec.rtt_spike_extra_s;
    plan.add(e);
  }
  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              if (a.duration_s != b.duration_s) return a.duration_s < b.duration_s;
              return a.magnitude < b.magnitude;
            });
  return plan;
}

double FaultPlan::capacity_horizon_s() const {
  double horizon = 0.0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kRttSpike) continue;
    horizon = std::max(horizon, e.end_s());
  }
  return horizon;
}

double FaultPlan::rtt_extra_s(double t_s) const {
  // Every spike past the first that starts after t starts after t too; the
  // max over the active ones does not depend on the order they are met in.
  double extra = 0.0;
  for (const RttSpike& spike : spikes_) {
    if (spike.start_s > t_s) break;
    if (t_s < spike.end_s) extra = std::max(extra, spike.extra_s);
  }
  return extra;
}

double FaultPlan::capacity_factor_at(double t_s) const {
  double factor = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kRttSpike) continue;
    if (t_s >= e.start_s && t_s < e.end_s()) {
      factor = std::min(factor, e.kind == FaultKind::kOutage ? 0.0 : e.magnitude);
    }
  }
  return factor;
}

ThroughputTrace FaultPlan::apply_to_trace(const ThroughputTrace& base) const {
  const double horizon = capacity_horizon_s();
  if (horizon <= 0.0) return base;
  if (base.sample_count() == 0) {
    throw std::invalid_argument("fault plan: cannot apply to an empty trace");
  }
  const double dt = base.interval_s();
  const double period_s = base.duration_s();
  // Unroll whole periods so the faulted trace keeps looping seamlessly past
  // the horizon (a finite trace is never extended — faults beyond its end
  // change nothing, the link is already dead there).
  size_t periods = static_cast<size_t>(std::ceil(horizon / period_s));
  if (periods < 1) periods = 1;
  if (base.finite()) periods = 1;
  const std::vector<double>& base_samples = base.samples_kbps();
  std::vector<double> samples;
  samples.reserve(base_samples.size() * periods);
  for (size_t p = 0; p < periods; ++p) {
    samples.insert(samples.end(), base_samples.begin(), base_samples.end());
  }
  // Scale every interval overlapping a fault window; min factor wins where
  // windows overlap (applying factors multiplicatively would double-count a
  // window scripted twice).
  std::vector<double> factor(samples.size(), 1.0);
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kRttSpike) continue;
    const double f = e.kind == FaultKind::kOutage ? 0.0 : e.magnitude;
    size_t first = static_cast<size_t>(std::floor(e.start_s / dt));
    size_t last = static_cast<size_t>(std::ceil(e.end_s() / dt));
    last = std::min(last, samples.size());
    for (size_t i = first; i < last; ++i) factor[i] = std::min(factor[i], f);
  }
  for (size_t i = 0; i < samples.size(); ++i) samples[i] *= factor[i];
  return ThroughputTrace(base.name(), std::move(samples), dt, base.finite());
}

}  // namespace sensei::net
