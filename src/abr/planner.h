// MPC lookahead planners behind Fugu/SENSEI-Fugu (paper Eq. 3 / Eq. 4).
//
// Both planners maximize the same objective: the expected sum, over a
// discrete throughput-scenario distribution, of per-chunk qualities across
// the next `horizon` chunks, optionally weighted by per-chunk sensitivity
// and extended with a scheduled-rebuffering action for the first chunk.
// The reference realization of that objective — a depth-first walk of the
// full (levels x rebuffer_options)^horizon decision tree, exponential in the
// horizon — lives in the test-only oracle library
// (tests/oracles/exhaustive_planner.h).
//
//  - DpPlanner is the exact planner: a depth-first branch and bound over
//    the same tree. Per-(depth, level) download-time and quality
//    tables are precomputed once per decision instead of at every node, and
//    every buffer it searches with lives in arenas reused across decide()
//    calls (zero steady-state heap allocation). A search node is one
//    decision prefix with its per-scenario buffers. A node's children are
//    stepped through the true per-scenario dynamics, then visited in
//    descending order of value + H (ties by ascending rank), so the first
//    descent is a greedy dive that seeds the incumbents. The bound H is
//    admissible and stall-aware: once per decision, a per-scenario upper
//    bound on every reachable buffer is propagated down the horizon (the
//    cheapest level, the largest scheduled stall, the buffer cap). One more
//    step of the same recursion through the previous level p instead of the
//    cheapest one bounds every buffer a plan can hold after choosing p, so
//    each (depth, level, previous level, scenario) has a stall no plan
//    avoids. Its penalty caps the step's expected quality, giving a per-
//    (depth, level, previous level) step bound; a tiny L x horizon value
//    iteration over those yields H(d, level), which upper-bounds any
//    continuation. On the stall-heavy links of the paper's bandwidth sweep
//    this is much tighter than assuming no scenario ever stalls, and
//    conditioning on p is tighter again: a high-bitrate previous chunk
//    cannot have kept the cheapest path's buffer. A child is dropped, before
//    and after its dynamics, when value + H cannot *strictly* beat the
//    incumbents (ties are kept). A warm start folds one real leaf first:
//    the previous decision's best path shifted by one chunk, with a greedy
//    step for the new last depth, when the query is for the same video one
//    chunk later.
//    Without merging, prefixes that reach one state (typically buffers
//    pinned at the floor or the cap) would each be searched again. A fixed
//    direct-mapped transposition cache of 256 slots (round-stamped per
//    decision, keyed by depth, last level and the buffers' bits, probed with
//    one multiply-xor per buffer word and a bitwise compare) skips a
//    node when its slot holds an already expanded node with the identical
//    key that dominates it: the two values are separable (equal, or apart
//    by more than the bound slack, so no rounding of the shared
//    continuation can reorder them), the stored value is greater or equal
//    with a lower rank, and the stored prefix schedules no stall whenever
//    the candidate does not. Every write overwrites: a lost entry costs
//    work, never correctness.
//    Every leaf carries its rank (its visit order in the exhaustive walk)
//    and leaves fold by (value desc, rank asc), every arithmetic expression
//    mirrors the exhaustive recursion operation-for-operation, and neither
//    pruning nor the cache can drop the leaf the reference picks, so the DP
//    returns *bit-identical* values and decisions whatever the visiting
//    order, the incumbents or the planner's history —
//    tests/test_planner_equivalence.cpp asserts exactly that per decision,
//    tests/test_oracle_grids.cpp over the paper's grids. The search is
//    exact and still exponential in the worst case; long horizons belong to
//    ViPlanner.
//
//  - ViPlanner is the throughput planner: Puffer's discretized value
//    iteration (Yan et al., NSDI'20), taken further on three axes.
//    (1) The buffer axis is bucketed into `buffer_quantum_s` bins at the
//    first lookahead step and the bin width doubles with each deeper step
//    (multi-resolution: the forecast is most uncertain exactly where the
//    grid is coarsest), so the [depth][dis_buf][level] value table holds a
//    few hundred cells instead of thousands. (2) The throughput scenarios
//    themselves are discretized into relative (log-spaced) bins, so nearby
//    forecasts plan on identical inputs — but only for the lookahead tail:
//    the root step is always evaluated on the exact forecasts, so the
//    immediate stall/no-stall tradeoff is never misjudged by a bin that
//    rounded the throughput up. (3) Values are memoized lazily
//    from the root — no hashing, zero steady-state allocation — and, when
//    a PlanBatch is attached, the whole value table is shared across
//    sessions (and threads) keyed by a context (video, lookahead depth,
//    discretized scenarios, weights) and a chunk: viewers with similar
//    forecasts at the same chunk reuse each other's lookahead instead of
//    re-iterating it, and a session whose context holds from one chunk to
//    the next finds its next table without a lock or a hash.
//    The relaxation is closed-loop: deeper decisions may adapt to the
//    throughput scenario realized so far (the exact planners commit to one
//    open-loop level sequence shared by every scenario), so its values and
//    occasionally its decisions differ from the exact DP; the accuracy
//    harness (tests/test_planner_accuracy.cpp) pins the end-to-end QoE
//    delta at the default quantum. Decide cost is bounded by the (shared)
//    table size instead of the reachable joint-state fan-out, which is what
//    makes Fugu viable at fleet scale (see bench_multisession).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "net/predictor.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"

namespace sensei::abr {

enum class PlannerKind {
  kDp,  // exact depth-first branch and bound (default)
  kVi,  // discretized value iteration (Puffer-style, lossy)
};

// Default buffer bucket width for ViPlanner (Puffer's UNIT_BUF_LENGTH) at
// the first lookahead step; the width doubles with each deeper step.
inline constexpr double kDefaultViBufferQuantumS = 2.0;

// Relative (log2-spaced) throughput discretization for ViPlanner's lookahead
// tail: scenario kbps snaps to 2^(k / kViKbpsBinsPerOctave) bins (at 0.5
// bins per octave each bin spans a 4x range), so nearby forecasts plan on
// identical inputs. The bins are deliberately coarse — tolerable because the
// root step plans on the *exact* kbps, so discretization error only biases
// which trajectory the tail prefers, never whether the immediate chunk
// stalls. This is part of the vi discretization semantics — applied whether
// or not a PlanBatch is attached, which is what keeps batched and
// per-session decide() bit-identical — and it is the hook that lets a
// PlanBatch share whole value tables across sessions whose predictors land
// in the same bins.
inline constexpr double kViKbpsBinsPerOctave = 0.5;
static_assert(kViKbpsBinsPerOctave == 0.5,
              "quantize_kbps reads the half-octave bin off the exponent bits");
// The bin is exp2(2 * llround(log2(k) / 2)) for k = max(1, kbps), computed
// from k's exponent instead of three libm calls. For k = m * 2^e (m in
// [1, 2), e >= 0), log2(k) / 2 lies in [e/2, (e+1)/2), which rounds half
// away from zero to n = ceil(e/2), and the bin is 2^(2n), built directly as
// the double's exponent field (2^1024 is +inf, as exp2 gives). The one band
// where that differs from the libm expression is an even e with m so close
// to 2 that log2 rounds up to the odd power e + 1: there, and for a
// non-finite k, the expression itself answers.
inline double quantize_kbps(double kbps) {
  const double k = std::max(1.0, kbps);
  uint64_t u;
  std::memcpy(&u, &k, sizeof(u));
  const uint64_t e = (u >> 52) - 1023;  // k >= 1: sign clear, exponent >= 0
  const uint64_t frac = u & ((uint64_t{1} << 52) - 1);
  constexpr uint64_t kNearTwo = (uint64_t{1} << 52) - (uint64_t{1} << 12);  // m >= 2 - 2^-40
  if (e == 1024 || ((e & 1) == 0 && frac >= kNearTwo)) {
    return std::exp2(
        static_cast<double>(std::llround(std::log2(k) * kViKbpsBinsPerOctave)) /
        kViKbpsBinsPerOctave);
  }
  const uint64_t bin = (((e + 1) / 2) * 2 + 1023) << 52;
  double out;
  std::memcpy(&out, &bin, sizeof(out));
  return out;
}

// ViPlanner's buffer-discretization rule (the exact planners have none):
// round to the nearest `quantum_s` bucket with std::llround (round-half-
// away-from-zero — never floor or a float->int truncation, which disagree
// around bucket edges and on negative inputs and would split states across
// platforms).
// Everything at or below zero — including -0.0, which must not land in a
// different bucket than +0.0 — maps to bucket 0, matching the dynamics'
// buffer floor. The caller guarantees quantum_s > 0.
inline uint64_t buffer_bucket(double buffer_s, double quantum_s) {
  if (!(buffer_s > 0.0)) return 0;  // negatives, -0.0, NaN -> the floor bucket
  return static_cast<uint64_t>(std::llround(buffer_s / quantum_s));
}

// One lookahead request. Pointers reference caller-owned storage and must
// stay valid for the duration of plan().
struct PlanQuery {
  const sim::AbrObservation* obs = nullptr;
  const net::ThroughputScenario* scenarios = nullptr;
  size_t num_scenarios = 0;
  size_t horizon = 0;
  // Scheduled-rebuffer choices for the *first* step (deeper steps always
  // use 0, as in the paper's SENSEI-Fugu).
  const double* rebuffer_options = nullptr;
  size_t num_rebuffer_options = 0;
  bool use_weights = false;
  double weight_shrinkage = 0.0;
  qoe::ChunkQualityParams chunk;
  // Visual quality of the previously played chunk (seeds the smoothness
  // penalty of the first lookahead step).
  double prev_visual_quality = 0.0;
};

struct PlanResult {
  size_t best_level = 0;
  double best_rebuffer_s = 0.0;
  double best_value = -1e18;
  // Best plan whose first action schedules no rebuffering, tracked
  // separately so the caller can apply its rebuffer margin.
  size_t nostall_level = 0;
  double nostall_value = -1e18;
};

// Degenerate queries — an effective horizon of zero (horizon == 0 or no
// chunks remain), an empty scenario set, or an empty rebuffer_options list —
// have no decision tree to search, and every planner answers them with the
// same defined no-op plan instead of leaking the -1e18 sentinel to callers:
// stay at the observation's current level (clamped into the ladder), sched-
// ule no rebuffering, value 0 for both the best and the no-stall plan.
// Returns true (with *out filled) when `query` is degenerate.
bool degenerate_plan(const PlanQuery& query, PlanResult* out);

// Splits a step's expected quality into its stall-free part (weighted by w)
// and the stall penalty part (weighted by max(w, 1)): a low sensitivity
// weight discounts the *quality* of a chunk, never the pain of stalling.
inline double weighted_step_quality(double w, double expected_q, double expected_q_nostall) {
  double stall_part = expected_q - expected_q_nostall;  // <= 0
  return w * expected_q_nostall + std::max(w, 1.0) * stall_part;
}

// Cross-session pool of the per-video planning tables that do not depend on
// a session's predictor state: chunk sizes pre-scaled to the download-time
// units the planners use, visual qualities, and the no-stall chunk quality
// for every (chunk, level, previous level) triple, plus ViPlanner's shared
// value tables. A sim::Simulator run owns one PlanBatch; a
// sim::FleetSimulator run owns one for all of its cells and worker threads,
// and a core::Experiments::run_grid call one for all of its grid cells.
// Each attaches it to every session's policy (AbrPolicy::
// attach_plan_batch), so sessions streaming the same ladder build these
// tables once instead of once per session and decision. Tables are built
// lazily per (video, chunk-quality params) pair by the same row builder an
// unbatched planner runs over its lookahead window (PlanRows), so batched
// and per-session decide() are bit-identical
// (tests/test_planner_accuracy.cpp pins this).
//
// Thread safety. Planners on different threads may share one batch:
//  - mu_ serializes every insert: a VideoTables, a vi context, a chunk
//    table, a grown context index or chunk directory. tables() also looks
//    up under it (planners memoize its answer).
//  - vi lookups take no lock. Every vi object is fully built before it is
//    published with a release store (a context into an index slot, a grown
//    index into vi_index_, a chunk table into a directory slot, a grown
//    directory into its context), and readers load those pointers with
//    acquire. Nothing published ever moves, changes identity or is freed
//    before the batch: a grown index or directory keeps the old one alive
//    for readers still probing it. A reader that finds nothing in an old
//    copy falls through to the locked path, which re-probes the current one.
//  - Value cells are atomics read and written with relaxed order (plain
//    moves on x86-64). A cell is a pure function of its table's identity,
//    so two threads that race to fill one cell store identical bits; a
//    reader sees either kUnfilled (and computes the cell itself) or the
//    final value, never a torn or different one.
class PlanBatch {
 public:
  // Bit pattern of an unfilled value cell: a signalling NaN. Floating-point
  // arithmetic only ever produces quiet NaNs, so no value a planner
  // computes can carry this pattern.
  static constexpr uint64_t kUnfilled = 0x7FF0'0000'0000'0001ull;

  struct VideoTables {
    const media::EncodedVideo* video = nullptr;
    qoe::ChunkQualityParams params;
    size_t levels = 0;
    // Flat [chunk * levels + level] rows over the whole video.
    std::vector<double> bits_kb;  // size_bytes * 8 / 1000 (download time = bits_kb / kbps)
    std::vector<double> vq;       // visual quality
    // No-stall chunk quality per previous level, [(chunk * L + level) * L + prev];
    // rows for chunk 0 are unused (the root step uses the observed prev quality).
    std::vector<double> qn;
  };

  // Returns (building on first use) the tables for `video` under `params`.
  // The reference stays valid, and the tables immutable, for the batch's
  // lifetime.
  const VideoTables& tables(const media::EncodedVideo& video,
                            const qoe::ChunkQualityParams& params);

  // ViPlanner's shared value tables. Every cell of a vi table is root-
  // independent — it depends only on the discretized decision context
  // (video window, lookahead depth, quantized scenarios, weights, params),
  // never on the querying session's observed buffer — so once filled a
  // cell never changes and any session planning the same context reuses
  // it. A table's identity splits into a ViContext and a chunk: the context
  // holds everything but the chunk, and its directory maps chunks to
  // tables. A steady session keeps its context from chunk to chunk, so
  // finding its next table is a key compare and a directory load.
  //
  // A table is ViCell[cell_count] in ViPlanner's multi-resolution
  // [depth][bucket][level] layout, each cell a double's bit pattern or
  // kUnfilled. Relaxed loads and stores only (see the class comment).
  using ViCell = std::atomic<uint64_t>;

  // Tables of one context for chunks [first, first + count): slot[c - first]
  // is chunk c's table, or null before its first use. Sized lazily: a
  // weighted context's key holds a per-depth weight window that shifts
  // every chunk, so most contexts only ever serve one chunk.
  struct ViChunkDir {
    size_t first = 0;
    size_t count = 0;
    std::unique_ptr<std::atomic<ViCell*>[]> slot;
  };

  struct ViContext {
    // Identity, verified field-for-field on lookup (the hash only routes).
    // Immutable once published.
    const media::EncodedVideo* video = nullptr;
    qoe::ChunkQualityParams params;
    size_t depth_count = 0;
    size_t levels = 0;
    double quantum = 0.0;
    // Quantized kbps + probability per scenario, then effective per-depth
    // weights when the query uses them.
    std::vector<double> key;
    uint64_t hash = 0;
    // Null until the context's first table.
    std::atomic<const ViChunkDir*> dir{nullptr};
  };

  // Returns the context with this identity, creating it on first use. The
  // reference stays valid for the batch's lifetime.
  ViContext& vi_context(const media::EncodedVideo& video, const qoe::ChunkQualityParams& params,
                        size_t depth_count, size_t levels, double quantum, const double* key,
                        size_t key_len);

  // Returns `ctx`'s table for `chunk`, creating it on first use with
  // `cell_count` cells, all kUnfilled. Valid for the batch's lifetime.
  ViCell* vi_table(ViContext& ctx, size_t chunk, size_t cell_count) {
    const ViChunkDir* dir = ctx.dir.load(std::memory_order_acquire);
    if (dir != nullptr && chunk - dir->first < dir->count) {
      ViCell* cells = dir->slot[chunk - dir->first].load(std::memory_order_acquire);
      if (cells != nullptr) return cells;
    }
    return create_vi_table(ctx, chunk, cell_count);
  }

  size_t num_videos() const;
  size_t num_vi_tables() const;
  size_t table_bytes() const;

 private:
  // Open-addressed (linear-probe, power-of-2) context index. A slot holds a
  // context or null; contexts are never removed, so a null ends a probe.
  struct ViIndex {
    size_t mask = 0;
    std::unique_ptr<std::atomic<ViContext*>[]> slot;
  };

  ViCell* create_vi_table(ViContext& ctx, size_t chunk, size_t cell_count);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<VideoTables>> tables_;
  // Owners of every vi object ever published, current and outgrown alike
  // (see the class comment). Appended under mu_.
  std::vector<std::unique_ptr<ViContext>> vi_contexts_;
  std::vector<std::unique_ptr<ViIndex>> vi_indexes_;
  std::vector<std::unique_ptr<ViChunkDir>> vi_dirs_;
  std::vector<std::unique_ptr<ViCell[]>> vi_tables_;
  size_t vi_cell_count_ = 0;
  std::atomic<const ViIndex*> vi_index_{nullptr};
};

// A planner's rows for one lookahead window, chunks [base, base +
// depth_count): bits_kb and vq at [d * L + l], the no-stall chunk quality
// after level p of the previous chunk at [(d * L + l) * L + p] for d >= 1,
// the root step's no-stall quality after the observed previous chunk, and
// each depth's objective weight. With a PlanBatch the static rows point into
// its whole-video tables; without one, into local arenas that the batch's
// own builder fills for the window alone, so both sources hold the same
// bits and the planners read them one way.
class PlanRows {
 public:
  void bind(PlanBatch* batch, const PlanQuery& q, size_t depth_count);
  // Drops the memo of the batch's tables; call on every batch change.
  void forget_batch() { memo_ = nullptr; }
  size_t arena_bytes() const;

  const double* bits_kb = nullptr;
  const double* vq = nullptr;
  const double* qn = nullptr;
  std::vector<double> root_qn;  // [l]
  // [d]: the shrunk sensitivity weight 1 + shrinkage * (w - 1) of a query
  // that uses weights (Eq. 4), else 1.
  std::vector<double> w;

 private:
  // The batch's tables for the video/params of the previous bind(), so a
  // decide() for the same video takes no lock.
  const PlanBatch::VideoTables* memo_ = nullptr;
  std::vector<double> local_bits_;
  std::vector<double> local_vq_;
  std::vector<double> local_qn_;
};

class Planner {
 public:
  virtual ~Planner() = default;
  virtual const char* name() const = 0;
  virtual PlanResult plan(const PlanQuery& query) = 0;
  // Attaches (nullptr detaches) a shared table pool; planners that can read
  // their static per-video tables from it do, others ignore it. Attaching
  // never changes any planner's output, only where the tables live.
  virtual void set_batch(PlanBatch* batch) { (void)batch; }
};

class DpPlanner : public Planner {
 public:
  const char* name() const override { return "dp"; }
  PlanResult plan(const PlanQuery& query) override;
  void set_batch(PlanBatch* batch) override {
    batch_ = batch;
    rows_.forget_batch();
  }

  // Bytes currently owned by the arenas/tables — exposed so tests and
  // benches can assert the steady-state hot path stops allocating.
  size_t arena_bytes() const;

  // Scenario rows stepped through the dynamics since construction: one per
  // (node, child action), warm start included. The search's work measure.
  uint64_t search_steps() const { return search_steps_; }

 private:
  // One search node: a decision prefix. Its per-scenario buffers live in row
  // `row` of its depth's slab. Ranks encode the depth-first visit order of
  // the exhaustive walk (mixed radix: the root digit is level *
  // num_rebuffer_options + option, then one base-L digit per deeper depth),
  // so ties resolve identically.
  struct Node {
    double value = 0.0;
    double bound = 0.0;  // value + continuation bound + slack
    uint64_t rank = 0;
    uint32_t level = 0;  // last level
    uint32_t root = 0;   // root digit of the rank
    uint32_t row = 0;
    bool nostall = false;  // the root action schedules no stall
  };
  // A transposition-cache slot: an expanded node's key, value and rank.
  struct CacheEntry {
    uint64_t stamp = 0;  // live iff == round_
    double value = 0.0;
    uint64_t rank = 0;
    uint32_t depth = 0;
    uint32_t level = 0;
    bool nostall = false;
  };
  static constexpr unsigned kCacheBits = 8;
  static constexpr size_t kCacheSlots = size_t{1} << kCacheBits;
  static constexpr uint64_t kNoRank = ~0ull;

  void precompute(const PlanQuery& q, size_t depth_count);
  void precompute_bound(const PlanQuery& q, size_t depth_count);
  double step(size_t d, size_t level, double prev_vq, double qn, double sched,
              const double* in, double* out);
  void fold(const Node& leaf);
  bool useful(double bound, bool nostall) const;
  void fold_warm_start(size_t fixed);
  void expand(size_t d, const Node& node, const double* buf);
  bool dominated(size_t d, const Node& node, const double* buf);

  PlanBatch* batch_ = nullptr;
  PlanRows rows_;  // static rows of the decision's window

  // Precomputed per-decision tables (indexed [depth][level][...]).
  std::vector<double> dl_;   // expected download time per scenario
  std::vector<double> eqn_;  // probability-folded no-stall quality
  std::vector<double> root_eqn_;
  // Stall-aware step bound. bmax_[d * S + s] upper-bounds every buffer
  // reachable at depth d in scenario s; bp_[s] is the scratch row of the
  // tighter bound after a given previous level. cub_[(d * L + l) * L + p]
  // (root_cub_[l] at depth 0) bounds the weighted contribution of level l
  // after previous level p.
  std::vector<double> bmax_;
  std::vector<double> bp_;
  std::vector<double> cub_;
  std::vector<double> root_cub_;
  // Admissible continuation bound: h_[d * L + p] is the best possible
  // contribution of depths [d, D) given the previous level is p, summing
  // cub_ along the best level path.
  std::vector<double> h_;

  // Per-plan() search context.
  const PlanQuery* q_ = nullptr;
  size_t D_ = 0, L_ = 0, S_ = 0, R_ = 0;
  size_t width_ = 0;  // children per node at most: L * num_rebuffer_options
  double tau_ = 0.0;
  bool prune_ok_ = false;
  PlanResult result_;
  uint64_t best_rank_ = kNoRank;
  uint64_t nostall_rank_ = kNoRank;
  uint64_t search_steps_ = 0;

  // Search arenas. The children of the node expanded at depth d are
  // kids_[d * width_ + i], their buffers kid_buf_[(d * width_ + row) * S].
  std::vector<double> root_buf_;
  std::vector<Node> kids_;
  std::vector<double> kid_buf_;

  // Transposition cache: kCacheSlots entries, buffers at [slot * S].
  std::vector<CacheEntry> cache_;
  std::vector<double> cache_buf_;
  uint64_t round_ = 0;

  // Warm start: the levels of the previous plan's best path and the
  // (video, next_chunk) it was planned for. A query for the same video one
  // chunk later evaluates this path shifted by one chunk as an incumbent.
  const media::EncodedVideo* warm_video_ = nullptr;
  size_t warm_chunk_ = 0;
  std::vector<uint32_t> warm_path_;
};

// Puffer-style discretized value iteration (see the file header). The
// lookahead value of (depth, discretized buffer, previous level) is memoized
// in a flat multi-resolution table — the bucket width starts at quantum_s
// and doubles with each deeper step. Values are computed lazily from the
// root, so only buckets actually reachable from the observed buffer are
// evaluated. Unbatched, the table lives in a local arena reset to
// PlanBatch::kUnfilled at every decide() (zero steady-state allocation).
// With a PlanBatch attached, the table is the shared (context, chunk) table
// and survives across sessions, decisions and threads: a cache hit reduces
// decide() to the root evaluation. Both modes read and fill
// cells through one code path.
class ViPlanner : public Planner {
 public:
  // quantum_s <= 0 selects the default bucket width.
  explicit ViPlanner(double buffer_quantum_s = kDefaultViBufferQuantumS);

  const char* name() const override { return "vi"; }
  PlanResult plan(const PlanQuery& query) override;
  void set_batch(PlanBatch* batch) override {
    batch_ = batch;
    // Table pointers are only valid within one batch.
    rows_.forget_batch();
    ctx_ = nullptr;
  }

  double quantum_s() const { return quantum_; }
  size_t arena_bytes() const;

 private:
  void precompute(const PlanQuery& q, size_t depth_count);
  void fill_dl();
  double value_of(size_t depth, double buffer_s, size_t prev_level);

  double quantum_;
  PlanBatch* batch_ = nullptr;
  PlanRows rows_;  // static rows of the decision's window
  // The vi context of the previous plan(), so a decide() for the same video
  // under an unchanged discretized key hashes nothing. Cleared on every
  // batch change.
  PlanBatch::ViContext* ctx_ = nullptr;

  // Per-decide context (set by plan(), read by value_of).
  const PlanQuery* q_ = nullptr;
  size_t D_ = 0, L_ = 0, S_ = 0;
  double tau_ = 0.0;

  // Multi-resolution grid geometry for depths [1, D): bucket width per
  // depth, bucket count per depth, and the cell offset of each depth's
  // [bucket][level] slab in the value table. A function of (D, L) alone,
  // rebuilt only when either changes (at a video's tail, or a new ladder).
  std::vector<double> width_;
  std::vector<size_t> bcount_;
  std::vector<size_t> off_;
  size_t cells_ = 0;
  size_t grid_D_ = 0, grid_L_ = 0;

  // The quantized forecast kbps (quantize_kbps bins) the lookahead tail
  // plans on, batched or not, and the cache key it induces.
  std::vector<double> qkbps_;
  std::vector<double> key_;

  // Per-decide scenario state: expected download times per (depth, level)
  // on the quantized scenarios — filled at most once per decide(), and only
  // when a cell miss needs them, so a decide that hits every cell skips
  // them — and probabilities.
  std::vector<double> local_dl_;  // [(d * L + l) * S + s]
  bool dl_ready_ = false;
  std::vector<double> prob_;     // [s]
  std::vector<double> root_dl_;  // depth-0 download times on *exact* kbps

  // Value cells for this decide(): the shared batch table's, or the local
  // arena's. Either way a cell holds a double's bits or kUnfilled.
  std::atomic<uint64_t>* v_cells_ = nullptr;
  std::unique_ptr<std::atomic<uint64_t>[]> local_v_;
  size_t local_v_cap_ = 0;
};

// The planner `kind` names, ViPlanner at its default bucket width.
std::unique_ptr<Planner> make_planner(PlannerKind kind);

}  // namespace sensei::abr
