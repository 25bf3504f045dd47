// Per-layer time ledger for the traced run.
//
// Spans are opened by the benchmark's own code around each call into a
// library layer (nothing inside src/ is instrumented). A span's self time
// is its duration minus the timer's cost inside it minus the full cost of
// the spans nested in it, so self times add up to the host time of the
// traced work rather than to the traced run's inflated wall time. Ticks
// come from the TSC where the CPU advertises constant_tsc, else from
// std::chrono::steady_clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sensei::benchmark {

// The layers a traced run attributes host time to. The root spans (a fleet
// cell, a paper session) own the loop glue no other span covers.
enum Layer : size_t {
  kLinkNextCompletion,
  kLinkAdvanceTo,
  kLinkDrain,
  kEventQueueUpdate,
  kStepRequesting,
  kStepRtt,
  kStepTransferring,
  kStepArrived,
  kStepTimedOut,
  kStepBackoff,
  kStepRetrying,
  kCompleteTransfer,
  kRehome,
  kCellSetup,
  kAdmit,
  kRetire,
  kWorkloadNext,
  kOracleScore,
  kDecideBba,
  kDecideRateBased,
  kDecideWhittle,
  kDecideFuguVi,
  kDecideFuguDp,
  kDecideSenseiFuguDp,
  kRootCell,
  kRootSession,
  kLayerCount,
};

// Reported name ("net.shared_link.advance_to", "abr.decide.whittle", ...).
const char* layer_name(Layer layer);
inline bool is_decide(Layer layer) { return layer >= kDecideBba && layer <= kDecideSenseiFuguDp; }

namespace clock_detail {
extern bool use_tsc;
uint64_t steady_ns();
}  // namespace clock_detail

inline uint64_t ticks() {
#if defined(__x86_64__)
  if (clock_detail::use_tsc) return __rdtsc();
#endif
  return clock_detail::steady_ns();
}

// Wall time in ns on steady_clock, for the untraced timings.
inline double now_ns() { return static_cast<double>(clock_detail::steady_ns()); }

// Picks the tick source and measures its rate against steady_clock. Call
// once, before any Ledger is calibrated.
void init_clock();
const char* clock_name();
double ns_per_tick();

class Ledger {
 public:
  // What one span costs: `inner` ticks fall inside its own interval, and
  // `full` ticks is everything it adds to the interval enclosing it.
  struct Costs {
    double inner = 0.0;
    double full = 0.0;
  };

  // Span costs on a loop of nested spans wrapped around a little work.
  static Costs calibrate();

  // A disabled ledger opens no spans: the traced code runs untraced.
  explicit Ledger(bool enabled = true) : enabled_(enabled) {}

  // Costs are applied when results are read, so they may be set after the
  // run that recorded the spans.
  void set_costs(Costs costs) { costs_ = costs; }
  const Costs& costs() const { return costs_; }

  class Span {
   public:
    Span(Ledger& ledger, Layer layer) : ledger_(ledger), layer_(layer), parent_(ledger.open_) {
      if (!ledger.enabled_) return;
      ledger.open_ = this;
      start_ = ticks();
    }
    ~Span() {
      if (ledger_.enabled_) ledger_.close(*this, ticks());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Ledger;
    Ledger& ledger_;
    Layer layer_;
    Span* parent_;
    uint64_t child_ticks_ = 0;
    uint64_t children_ = 0;
    uint64_t start_ = 0;
  };

  uint64_t calls(Layer layer) const { return entries_[layer].calls; }
  double self_ticks(Layer layer) const {
    const Entry& e = entries_[layer];
    return static_cast<double>(e.self_ticks) - static_cast<double>(e.calls) * costs_.inner -
           static_cast<double>(e.child_spans) * (costs_.full - costs_.inner);
  }
  // Raw ticks of every closed decide span of `layer` (decide spans have no
  // children: less costs().inner, a sample is its self time).
  const std::vector<uint64_t>& samples(Layer layer) const { return samples_[layer]; }
  uint64_t spans_closed() const { return spans_closed_; }

 private:
  struct Entry {
    uint64_t calls = 0;
    uint64_t child_spans = 0;
    int64_t self_ticks = 0;  // duration less children's durations, costs not yet applied
  };

  void close(Span& span, uint64_t end) {
    const uint64_t raw = end - span.start_;
    Entry& e = entries_[span.layer_];
    ++e.calls;
    e.child_spans += span.children_;
    e.self_ticks += static_cast<int64_t>(raw - span.child_ticks_);
    if (is_decide(span.layer_)) samples_[span.layer_].push_back(raw);
    if (span.parent_ != nullptr) {
      span.parent_->child_ticks_ += raw;
      ++span.parent_->children_;
    }
    open_ = span.parent_;
    ++spans_closed_;
  }

  bool enabled_;
  Entry entries_[kLayerCount];
  std::vector<uint64_t> samples_[kLayerCount];
  Span* open_ = nullptr;
  uint64_t spans_closed_ = 0;
  Costs costs_;
};

}  // namespace sensei::benchmark
