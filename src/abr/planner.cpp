#include "abr/planner.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace sensei::abr {

namespace {

// 30 s buffer cap shared by the planners and the player simulator.
constexpr double kMaxBufferS = 30.0;

// Slack added to the admissible bound before pruning: absorbs rounding
// differences between the bound's fold order and the true evaluation, so a
// subtree that could still *tie* the incumbent is never dropped and the
// reference tie-break is preserved.
constexpr double kBoundSlack = 1e-9;

inline uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Whether the larger of two prefix values reaching one state wins for every
// shared continuation: they are exactly equal (the rank decides), or they
// differ by more than any rounding of the continuation sum can close.
inline bool separable(double a, double b) {
  return a == b || std::abs(a - b) > kBoundSlack;
}

inline uint64_t bits_of(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

inline double double_of(uint64_t u) {
  double v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

inline bool same_params(const qoe::ChunkQualityParams& a, const qoe::ChunkQualityParams& b) {
  return a.beta_rebuf == b.beta_rebuf && a.rebuf_saturation == b.rebuf_saturation &&
         a.beta_switch == b.beta_switch && a.floor == b.floor;
}

// Whether `ctx` is exactly this discretized context.
inline bool same_vi_context(const PlanBatch::ViContext& ctx, const media::EncodedVideo& video,
                            const qoe::ChunkQualityParams& params, size_t depth_count,
                            size_t levels, double quantum, const double* key, size_t key_len) {
  return ctx.video == &video && ctx.depth_count == depth_count && ctx.levels == levels &&
         ctx.quantum == quantum && same_params(ctx.params, params) &&
         ctx.key.size() == key_len && std::equal(ctx.key.begin(), ctx.key.end(), key);
}

// The static planning rows of chunks [first, first + count), in the layout
// PlanBatch::VideoTables and PlanRows share: bits_kb and vq at
// [(c - first) * L + l], the no-stall chunk quality after level p of the
// previous chunk at [((c - first) * L + l) * L + p]. The qn rows of chunk
// `first` are left as they are: its previous chunk lies outside the range,
// and the planners' root step uses the observed previous quality instead.
void fill_static_rows(const media::EncodedVideo& video, const qoe::ChunkQualityParams& params,
                      size_t first, size_t count, double* bits_kb, double* vq, double* qn) {
  const size_t L = video.ladder().level_count();
  for (size_t c = 0; c < count; ++c) {
    for (size_t l = 0; l < L; ++l) {
      const auto& rep = video.rep(first + c, l);
      // Pre-scaled so a planner's download time is bits_kb / kbps + rtt.
      bits_kb[c * L + l] = rep.size_bytes * 8.0 / 1000.0;
      vq[c * L + l] = rep.visual_quality;
    }
  }
  for (size_t c = 1; c < count; ++c) {
    for (size_t l = 0; l < L; ++l) {
      for (size_t p = 0; p < L; ++p) {
        qn[(c * L + l) * L + p] =
            qoe::chunk_quality(vq[c * L + l], 0.0, vq[(c - 1) * L + p], params);
      }
    }
  }
}

// Expected download time of a chunk of `bits_kb` at `kbps`, RTT included.
inline double download_s(double bits_kb, double kbps) {
  return bits_kb / std::max(1.0, kbps) + 0.08;
}

// One scenario's step through the buffer dynamics, statement for statement
// the exhaustive walk's: the download drains `b` or stalls for the rest, a
// scheduled rebuffer adds to both, then the chunk lands under the cap.
// Returns the stall; `b` becomes the post-step buffer.
inline double step_buffer(double& b, double dl, double sched, double tau) {
  double stall = 0.0;
  if (dl > b) {
    stall = dl - b;
    b = 0.0;
  } else {
    b -= dl;
  }
  if (sched > 0.0) {
    b += sched;
    stall += sched;
  }
  b = std::min(b + tau, kMaxBufferS);
  return stall;
}

}  // namespace

bool degenerate_plan(const PlanQuery& q, PlanResult* out) {
  const size_t remaining =
      q.obs->next_chunk < q.obs->num_chunks ? q.obs->num_chunks - q.obs->next_chunk : 0;
  const size_t depth = std::min(q.horizon, remaining);
  if (depth > 0 && q.num_scenarios > 0 && q.num_rebuffer_options > 0) return false;
  const size_t levels = q.obs->video->ladder().level_count();
  size_t level = q.obs->last_level;
  if (levels > 0 && level >= levels) level = levels - 1;
  out->best_level = level;
  out->nostall_level = level;
  out->best_rebuffer_s = 0.0;
  out->best_value = 0.0;
  out->nostall_value = 0.0;
  return true;
}

// ---------------------------------------------------------------------------
// PlanBatch
// ---------------------------------------------------------------------------

const PlanBatch::VideoTables& PlanBatch::tables(const media::EncodedVideo& video,
                                                const qoe::ChunkQualityParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tables_) {
    if (t->video == &video && same_params(t->params, params)) return *t;
  }
  auto t = std::make_unique<VideoTables>();
  t->video = &video;
  t->params = params;
  const size_t L = video.ladder().level_count();
  const size_t n = video.num_chunks();
  t->levels = L;
  t->bits_kb.resize(n * L);
  t->vq.resize(n * L);
  t->qn.resize(n * L * L);
  fill_static_rows(video, params, 0, n, t->bits_kb.data(), t->vq.data(), t->qn.data());
  tables_.push_back(std::move(t));
  return *tables_.back();
}

PlanBatch::ViContext& PlanBatch::vi_context(const media::EncodedVideo& video,
                                             const qoe::ChunkQualityParams& params,
                                             size_t depth_count, size_t levels, double quantum,
                                             const double* key, size_t key_len) {
  // FNV-1a folded a machine word at a time: every keyed field is naturally
  // 8 bytes (pointers, counts, double bit patterns), and the hash only
  // steers the probe — the full compare decides identity.
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix_u64 = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_f64 = [&mix_u64](double d) { mix_u64(bits_of(d)); };
  mix_u64(reinterpret_cast<uintptr_t>(&video));
  mix_u64(depth_count);
  mix_u64(levels);
  mix_f64(quantum);
  mix_f64(params.beta_rebuf);
  mix_f64(params.rebuf_saturation);
  mix_f64(params.beta_switch);
  mix_f64(params.floor);
  for (size_t k = 0; k < key_len; ++k) mix_f64(key[k]);

  // Returns the context's slot in `index`, or the empty slot ending its probe.
  const auto probe = [&](const ViIndex& index) {
    size_t i = splitmix(h) & index.mask;
    for (;; i = (i + 1) & index.mask) {
      const ViContext* c = index.slot[i].load(std::memory_order_acquire);
      if (c == nullptr || (c->hash == h && same_vi_context(*c, video, params, depth_count,
                                                           levels, quantum, key, key_len))) {
        return &index.slot[i];
      }
    }
  };
  const ViIndex* index = vi_index_.load(std::memory_order_acquire);
  if (index != nullptr) {
    if (ViContext* c = probe(*index)->load(std::memory_order_acquire)) return *c;
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Re-probe the current index: another thread may have inserted the
  // context, or grown the index, since the lock-free probe.
  index = vi_index_.load(std::memory_order_relaxed);
  if (index != nullptr) {
    if (ViContext* c = probe(*index)->load(std::memory_order_relaxed)) return *c;
  }
  // Grow before inserting so the load factor stays under ~0.7 and every
  // probe ends at an empty slot. The new index is filled, then published;
  // the old one stays alive for readers still probing it.
  const size_t cap = index == nullptr ? 0 : index->mask + 1;
  if ((vi_contexts_.size() + 1) * 10 >= cap * 7) {
    auto grown = std::make_unique<ViIndex>();
    const size_t new_cap = cap == 0 ? 64 : cap * 2;
    grown->mask = new_cap - 1;
    grown->slot.reset(new std::atomic<ViContext*>[new_cap]);
    for (size_t i = 0; i < new_cap; ++i) grown->slot[i].store(nullptr, std::memory_order_relaxed);
    for (const auto& c : vi_contexts_) {
      size_t i = splitmix(c->hash) & grown->mask;
      while (grown->slot[i].load(std::memory_order_relaxed) != nullptr) i = (i + 1) & grown->mask;
      grown->slot[i].store(c.get(), std::memory_order_relaxed);
    }
    index = grown.get();
    vi_indexes_.push_back(std::move(grown));
    vi_index_.store(index, std::memory_order_release);
  }
  auto ctx = std::make_unique<ViContext>();
  ctx->video = &video;
  ctx->params = params;
  ctx->depth_count = depth_count;
  ctx->levels = levels;
  ctx->quantum = quantum;
  ctx->key.assign(key, key + key_len);
  ctx->hash = h;
  ViContext* c = ctx.get();
  vi_contexts_.push_back(std::move(ctx));
  probe(*index)->store(c, std::memory_order_release);
  return *c;
}

PlanBatch::ViCell* PlanBatch::create_vi_table(ViContext& ctx, size_t chunk,
                                              size_t cell_count) {
  std::lock_guard<std::mutex> lock(mu_);
  const ViChunkDir* dir = ctx.dir.load(std::memory_order_relaxed);
  if (dir != nullptr && chunk - dir->first < dir->count) {
    // Another thread may have created the table since the lock-free load.
    if (ViCell* cells = dir->slot[chunk - dir->first].load(std::memory_order_relaxed)) {
      return cells;
    }
  } else {
    // Grow the directory to cover `chunk`, at least doubling it so a
    // context that walks a video grows O(log chunks) times. The copy is
    // filled, then published; the old directory stays alive for readers
    // still holding it.
    size_t first = chunk;
    size_t end = chunk + 1;
    if (dir != nullptr) {
      first = std::min(first, dir->first);
      end = std::max(std::max(end, dir->first + dir->count), first + 2 * dir->count);
    }
    // A context of depth D serves chunks up to num_chunks - D only.
    const size_t n = ctx.video->num_chunks();
    end = std::min(end, std::max(chunk + 1, n > ctx.depth_count ? n - ctx.depth_count + 1 : 1));
    auto grown = std::make_unique<ViChunkDir>();
    grown->first = first;
    grown->count = end - first;
    grown->slot.reset(new std::atomic<ViCell*>[grown->count]);
    for (size_t i = 0; i < grown->count; ++i) {
      grown->slot[i].store(nullptr, std::memory_order_relaxed);
    }
    if (dir != nullptr) {
      for (size_t i = 0; i < dir->count; ++i) {
        grown->slot[dir->first + i - first].store(
            dir->slot[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
      }
    }
    dir = grown.get();
    vi_dirs_.push_back(std::move(grown));
    ctx.dir.store(dir, std::memory_order_release);
  }
  std::unique_ptr<ViCell[]> cells(new ViCell[cell_count]);
  for (size_t c = 0; c < cell_count; ++c) cells[c].store(kUnfilled, std::memory_order_relaxed);
  ViCell* t = cells.get();
  vi_tables_.push_back(std::move(cells));
  vi_cell_count_ += cell_count;
  dir->slot[chunk - dir->first].store(t, std::memory_order_release);
  return t;
}

size_t PlanBatch::num_videos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

size_t PlanBatch::num_vi_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return vi_tables_.size();
}

size_t PlanBatch::table_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t b = 0;
  for (const auto& t : tables_) {
    b += (t->bits_kb.capacity() + t->vq.capacity() + t->qn.capacity()) * sizeof(double);
  }
  for (const auto& c : vi_contexts_) b += c->key.capacity() * sizeof(double);
  for (const auto& i : vi_indexes_) b += (i->mask + 1) * sizeof(ViContext*);
  for (const auto& d : vi_dirs_) b += d->count * sizeof(ViCell*);
  return b + vi_cell_count_ * sizeof(uint64_t);
}

// ---------------------------------------------------------------------------
// PlanRows
// ---------------------------------------------------------------------------

void PlanRows::bind(PlanBatch* batch, const PlanQuery& q, size_t depth_count) {
  const media::EncodedVideo& video = *q.obs->video;
  const size_t L = video.ladder().level_count();
  const size_t base = q.obs->next_chunk;
  if (batch != nullptr) {
    if (memo_ == nullptr || memo_->video != &video || !same_params(memo_->params, q.chunk)) {
      memo_ = &batch->tables(video, q.chunk);
    }
    bits_kb = &memo_->bits_kb[base * L];
    vq = &memo_->vq[base * L];
    qn = &memo_->qn[base * L * L];
  } else {
    local_bits_.resize(depth_count * L);
    local_vq_.resize(depth_count * L);
    local_qn_.resize(depth_count * L * L);
    fill_static_rows(video, q.chunk, base, depth_count, local_bits_.data(), local_vq_.data(),
                     local_qn_.data());
    bits_kb = local_bits_.data();
    vq = local_vq_.data();
    qn = local_qn_.data();
  }
  root_qn.resize(L);
  for (size_t l = 0; l < L; ++l) {
    root_qn[l] = qoe::chunk_quality(vq[l], 0.0, q.prev_visual_quality, q.chunk);
  }
}

size_t PlanRows::arena_bytes() const {
  return (root_qn.capacity() + local_bits_.capacity() + local_vq_.capacity() +
          local_qn_.capacity()) *
         sizeof(double);
}

// ---------------------------------------------------------------------------
// DpPlanner
// ---------------------------------------------------------------------------

size_t DpPlanner::arena_bytes() const {
  return rows_.arena_bytes() +
         (dl_.capacity() + eqn_.capacity() + w_.capacity() + root_eqn_.capacity() +
          bmax_.capacity() + bp_.capacity() + cub_.capacity() + root_cub_.capacity() +
          h_.capacity() + root_buf_.capacity() + kid_buf_.capacity() + cache_buf_.capacity()) *
             sizeof(double) +
         kids_.capacity() * sizeof(Node) + cache_.capacity() * sizeof(CacheEntry) +
         warm_path_.capacity() * sizeof(uint32_t);
}

// Fills the per-decision tables. Every expression mirrors the exhaustive
// walk (tests/oracles/exhaustive_planner.cpp) operation-for-operation so
// the folded results are bit-identical; the difference is that they are
// evaluated once per (depth, level[, prev]) instead of at every tree node.
void DpPlanner::precompute(const PlanQuery& q, size_t depth_count) {
  const size_t L = q.obs->video->ladder().level_count();
  const size_t S = q.num_scenarios;
  rows_.bind(batch_, q, depth_count);

  dl_.resize(depth_count * L * S);
  eqn_.resize(depth_count * L * L);
  w_.resize(depth_count);
  root_eqn_.resize(L);

  for (size_t d = 0; d < depth_count; ++d) {
    double w = 1.0;
    if (q.use_weights && d < q.obs->future_weights.size()) {
      w = 1.0 + q.weight_shrinkage * (q.obs->future_weights[d] - 1.0);
    }
    w_[d] = w;
    for (size_t l = 0; l < L; ++l) {
      for (size_t s = 0; s < S; ++s) {
        dl_[(d * L + l) * S + s] = download_s(rows_.bits_kb[d * L + l], q.scenarios[s].kbps);
      }
    }
  }

  for (size_t l = 0; l < L; ++l) {
    const double qn = rows_.root_qn[l];
    double eqn = 0.0;
    for (size_t s = 0; s < S; ++s) eqn += q.scenarios[s].probability * qn;
    root_eqn_[l] = eqn;
  }
  for (size_t d = 1; d < depth_count; ++d) {
    for (size_t t = d * L * L; t < (d + 1) * L * L; ++t) {
      const double qn = rows_.qn[t];
      double eqn = 0.0;
      for (size_t s = 0; s < S; ++s) eqn += q.scenarios[s].probability * qn;
      eqn_[t] = eqn;
    }
  }

  precompute_bound(q, depth_count);
}

// Fills the stall-aware bound tables. The step is monotone in the entering
// buffer, the download time and the scheduled stall, so bmax, which follows
// the cheapest level, the largest scheduled stall at the root, and the
// buffer floor and cap, bounds every buffer reachable at its depth. One more
// step of that recursion through level p's download time instead of the
// cheapest one (the largest scheduled stall again when p is the root
// action) bounds every buffer after choosing p: b_p. Every level l after p
// therefore stalls at least dl - b_p in its scenario, and since the stall
// penalty is nondecreasing, E[q] at those forced stalls (capped by the
// no-stall E[q]) bounds the true E[q]. At the root the entering buffer is
// the observed one, so the forced stall is the exact one. Where no scenario
// is forced to stall the bound is w * eqn, the stall-free bound. The bound
// is evaluated in another order than the search's sums; kBoundSlack covers
// that rounding.
void DpPlanner::precompute_bound(const PlanQuery& q, size_t depth_count) {
  const size_t L = q.obs->video->ladder().level_count();
  const size_t S = q.num_scenarios;
  const double tau = q.obs->video->chunk_duration_s();
  const qoe::ChunkQualityParams& cp = q.chunk;

  double max_sched = 0.0;
  for (size_t i = 0; i < q.num_rebuffer_options; ++i) {
    max_sched = std::max(max_sched, q.rebuffer_options[i]);
  }
  // One step of the bound recursion: a buffer of at most b entering depth d
  // is at most this after a download of dl.
  const auto after = [&](size_t d, double b, double dl) {
    double next = dl > b ? 0.0 : b - dl;
    if (d == 0) next += max_sched;
    return std::min(next + tau, kMaxBufferS);
  };
  // b_p reads bmax at depths [0, depth_count - 1) only.
  bmax_.resize(depth_count * S);
  std::fill_n(bmax_.begin(), S, q.obs->buffer_s);
  for (size_t d = 0; d + 2 < depth_count; ++d) {
    for (size_t s = 0; s < S; ++s) {
      double dl_min = dl_[(d * L) * S + s];
      for (size_t l = 1; l < L; ++l) dl_min = std::min(dl_min, dl_[(d * L + l) * S + s]);
      bmax_[(d + 1) * S + s] = after(d, bmax_[d * S + s], dl_min);
    }
  }

  // Contribution bound of level l at depth d after a level of quality
  // prev_vq, every entering buffer at most b[s]: vq - beta_rebuf *
  // pen(forced stall) is the first subtraction of chunk_quality, so q at the
  // forced stall is max(floor, that - switch term).
  const auto bound = [&](size_t d, size_t l, double prev_vq, double eqn, const double* b) {
    const double* dl = &dl_[(d * L + l) * S];
    const double vq = rows_.vq[d * L + l];
    const double sw = cp.beta_switch * std::abs(vq - prev_vq);
    double e = 0.0;
    for (size_t s = 0; s < S; ++s) {
      const double rq =
          dl[s] > b[s] ? vq - cp.beta_rebuf * qoe::stall_penalty(dl[s] - b[s], cp) : vq;
      e += q.scenarios[s].probability * std::max(cp.floor, rq - sw);
    }
    return weighted_step_quality(w_[d], std::min(e, eqn), eqn);
  };
  root_cub_.resize(L);
  for (size_t l = 0; l < L; ++l) {
    root_cub_[l] = bound(0, l, q.prev_visual_quality, root_eqn_[l], bmax_.data());
  }
  bp_.resize(S);
  cub_.resize(depth_count * L * L);
  for (size_t d = 1; d < depth_count; ++d) {
    for (size_t p = 0; p < L; ++p) {
      const double* dl = &dl_[((d - 1) * L + p) * S];
      for (size_t s = 0; s < S; ++s) bp_[s] = after(d - 1, bmax_[(d - 1) * S + s], dl[s]);
      const double prev_vq = rows_.vq[(d - 1) * L + p];
      for (size_t l = 0; l < L; ++l) {
        const size_t t = (d * L + l) * L + p;
        cub_[t] = bound(d, l, prev_vq, eqn_[t], bp_.data());
      }
    }
  }

  // Continuation bound, computed backwards: maximizing cub over levels
  // bounds any continuation from (depth, prev level).
  h_.resize((depth_count + 1) * L);
  for (size_t p = 0; p < L; ++p) h_[depth_count * L + p] = 0.0;
  for (size_t d = depth_count; d-- > 1;) {
    for (size_t p = 0; p < L; ++p) {
      double best = -1e18;
      for (size_t l = 0; l < L; ++l) {
        double v = cub_[(d * L + l) * L + p] + h_[(d + 1) * L + l];
        if (v > best) best = v;
      }
      h_[d * L + p] = best;
    }
  }
}

// Advances every scenario one step (same dynamics and fold order as the
// exhaustive walk; no-stall quality served from the tables) and returns the
// expected quality. Writes the post-step buffers to `out`.
double DpPlanner::step(size_t d, size_t level, double prev_vq, double qn, double sched,
                       const double* in, double* out) {
  ++search_steps_;
  const double* dl_row = &dl_[(d * L_ + level) * S_];
  const double vq = rows_.vq[d * L_ + level];
  double expected_q = 0.0;
  for (size_t s = 0; s < S_; ++s) {
    double b = in[s];
    const double stall = step_buffer(b, dl_row[s], sched, tau_);
    out[s] = b;
    double qv = stall > 0.0 ? qoe::chunk_quality(vq, stall, prev_vq, q_->chunk) : qn;
    expected_q += q_->scenarios[s].probability * qv;
  }
  return expected_q;
}

// (max value, min rank) fold reproduces "first strictly-better leaf wins"
// of the depth-first reference, whatever order the leaves arrive in.
void DpPlanner::fold(const Node& leaf) {
  if (leaf.value > result_.best_value ||
      (leaf.value == result_.best_value && leaf.rank < best_rank_)) {
    result_.best_value = leaf.value;
    result_.best_level = leaf.root / R_;
    result_.best_rebuffer_s = q_->rebuffer_options[leaf.root % R_];
    best_rank_ = leaf.rank;
  }
  if (leaf.nostall && (leaf.value > result_.nostall_value ||
                       (leaf.value == result_.nostall_value && leaf.rank < nostall_rank_))) {
    result_.nostall_value = leaf.value;
    result_.nostall_level = leaf.root / R_;
    nostall_rank_ = leaf.rank;
  }
}

// Whether a subtree whose leaves are all at most `bound` may still win or
// tie the best plan, or the best stall-free plan when its root action
// schedules no stall. Pruning with the stall-aware bound is only sound when
// the stall penalty actually penalizes (the default and every sane
// configuration).
bool DpPlanner::useful(double bound, bool nostall) const {
  return !prune_ok_ || bound >= result_.best_value ||
         (nostall && bound >= result_.nostall_value);
}

// Folds the warm-start leaf: the previous best path shifted by one chunk for
// depths [0, fixed) (rebuffer option 0 at the root), then at each deeper
// depth the argmax of the step's contribution plus the bound of the rest. It
// is a real leaf with its true rank, so it only tightens the incumbents.
void DpPlanner::fold_warm_start(size_t fixed) {
  const size_t L = L_;
  const double* in = root_buf_.data();
  Node leaf;
  size_t prev = 0;
  for (size_t d = 0; d < D_; ++d) {
    double* rows = &kid_buf_[d * width_ * S_];
    const double prev_vq = d == 0 ? q_->prev_visual_quality : rows_.vq[(d - 1) * L + prev];
    const auto contribution = [&](size_t l) {
      double* out = &rows[l * S_];
      if (d == 0) {
        return weighted_step_quality(
            w_[0], step(0, l, prev_vq, rows_.root_qn[l], q_->rebuffer_options[0], in, out),
            root_eqn_[l]);
      }
      const size_t t = (d * L + l) * L + prev;
      return weighted_step_quality(w_[d], step(d, l, prev_vq, rows_.qn[t], 0.0, in, out), eqn_[t]);
    };
    size_t arg = 0;
    double c = 0.0;
    if (d < fixed) {
      arg = warm_path_[d + 1];
      c = contribution(arg);
    } else {
      double best = -1e18;
      for (size_t l = 0; l < L; ++l) {
        const double cl = contribution(l);
        const double score = cl + h_[(d + 1) * L + l];
        if (score > best) {
          best = score;
          c = cl;
          arg = l;
        }
      }
    }
    if (d == 0) {
      leaf.value = c;
      leaf.rank = arg * R_;
      leaf.root = static_cast<uint32_t>(leaf.rank);
    } else {
      leaf.value = leaf.value + c;
      leaf.rank = leaf.rank * L + arg;
    }
    in = &rows[arg * S_];
    prev = arg;
  }
  leaf.nostall = q_->rebuffer_options[0] == 0.0;
  fold(leaf);
}

// Steps every child of `node` (at depth d, buffers `buf`) that survives the
// pre-dynamics prune. At the leaf depth the children fold as leaves;
// otherwise the survivors of the post-dynamics prune are visited best bound
// first, ties by rank, so the first descent is the greedy dive. A visited
// child is not re-checked against incumbents its elder siblings raised: its
// own children's pre-dynamics prune drops them before any dynamics run.
void DpPlanner::expand(size_t d, const Node& node, const double* buf) {
  const size_t L = L_;
  const bool leaf_depth = d + 1 == D_;
  const size_t options = d == 0 ? R_ : 1;
  const double prev_vq = d == 0 ? q_->prev_visual_quality : rows_.vq[(d - 1) * L + node.level];
  Node* kids = &kids_[d * width_];
  double* rows = &kid_buf_[d * width_ * S_];
  size_t count = 0;
  for (size_t level = 0; level < L; ++level) {
    const size_t t = (d * L + level) * L + node.level;
    const double qn = d == 0 ? rows_.root_qn[level] : rows_.qn[t];
    const double eqn = d == 0 ? root_eqn_[level] : eqn_[t];
    const double cub = d == 0 ? root_cub_[level] : cub_[t];
    const double hb = (leaf_depth ? 0.0 : h_[(d + 1) * L + level]) + kBoundSlack;
    // Pre-dynamics prune: cub upper-bounds the step contribution, so a
    // hopeless action is rejected before its scenario loop runs.
    const double ub = node.value + cub + hb;
    for (size_t si = 0; si < options; ++si) {
      const double sched = d == 0 ? q_->rebuffer_options[si] : 0.0;
      Node& kid = kids[count];
      kid.nostall = d == 0 ? sched == 0.0 : node.nostall;
      if (!useful(ub, kid.nostall)) continue;
      const double contribution = weighted_step_quality(
          w_[d], step(d, level, prev_vq, qn, sched, buf, &rows[count * S_]), eqn);
      kid.level = static_cast<uint32_t>(level);
      kid.row = static_cast<uint32_t>(count);
      if (d == 0) {
        kid.value = contribution;  // the root's value is 0
        kid.rank = level * options + si;
        kid.root = static_cast<uint32_t>(kid.rank);
      } else {
        kid.value = node.value + contribution;
        kid.rank = node.rank * L + level;
        kid.root = node.root;
      }
      if (leaf_depth) {
        fold(kid);
        continue;
      }
      // Post-dynamics prune, tighter than the pre-check: the child's actual
      // value plus the bound of the rest must still reach an incumbent.
      kid.bound = kid.value + hb;
      if (useful(kid.bound, kid.nostall)) ++count;
    }
  }

  for (size_t i = 1; i < count; ++i) {
    const Node kid = kids[i];
    size_t j = i;
    for (; j > 0 && (kids[j - 1].bound < kid.bound ||
                     (kids[j - 1].bound == kid.bound && kids[j - 1].rank > kid.rank));
         --j) {
      kids[j] = kids[j - 1];
    }
    kids[j] = kid;
  }
  for (size_t i = 0; i < count; ++i) {
    const Node& kid = kids[i];
    const double* kid_buf = &rows[kid.row * S_];
    if (dominated(d + 1, kid, kid_buf)) continue;
    expand(d + 1, kid, kid_buf);
  }
}

// The transposition cache. Returns true when the slot for (depth, last
// level, buffers) holds an already expanded node with the identical key that
// dominates `node`; otherwise records `node` there and returns false. Same
// key, same continuations: every leaf below `node` has a twin below the
// stored node that adds the same contributions to the stored value.
// Domination needs all three of:
//  - separable values, so no rounding of a shared continuation can turn the
//    stored twin's lead into a tie the rank would decide the other way;
//  - a greater stored value, or an equal one with a lower rank (every twin
//    then wins the (value desc, rank asc) fold);
//  - a stored prefix that schedules no stall whenever `node`'s does not, so
//    the twins also cover the best stall-free plan.
// Nodes are recorded when they are expanded, and a node's subtree is done
// before any later node of its depth is visited.
bool DpPlanner::dominated(size_t d, const Node& node, const double* buf) {
  // Multiply-xor per word; the product's top bits mix every input bit.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t h = (d * L_ + node.level + 1) * kMul;
  for (size_t s = 0; s < S_; ++s) h = (h ^ bits_of(buf[s])) * kMul;
  const size_t slot = static_cast<size_t>(h >> (64 - kCacheBits));
  CacheEntry& e = cache_[slot];
  double* key = &cache_buf_[slot * S_];
  if (e.stamp == round_ && e.depth == d && e.level == node.level &&
      separable(e.value, node.value) &&
      (e.value > node.value || (e.value == node.value && e.rank < node.rank)) &&
      (e.nostall || !node.nostall)) {
    bool same = true;
    for (size_t s = 0; s < S_ && same; ++s) same = bits_of(key[s]) == bits_of(buf[s]);
    if (same) return true;
  }
  e.stamp = round_;
  e.value = node.value;
  e.rank = node.rank;
  e.depth = static_cast<uint32_t>(d);
  e.level = node.level;
  e.nostall = node.nostall;
  std::copy_n(buf, S_, key);
  return false;
}

PlanResult DpPlanner::plan(const PlanQuery& q) {
  const auto& video = *q.obs->video;
  const size_t remaining =
      q.obs->next_chunk < q.obs->num_chunks ? q.obs->num_chunks - q.obs->next_chunk : 0;
  const size_t D = std::min(q.horizon, remaining);

  PlanResult result;
  if (degenerate_plan(q, &result)) return result;
  precompute(q, D);

  q_ = &q;
  D_ = D;
  L_ = video.ladder().level_count();
  S_ = q.num_scenarios;
  R_ = q.num_rebuffer_options;
  width_ = L_ * R_;
  tau_ = video.chunk_duration_s();
  prune_ok_ = q.chunk.beta_rebuf >= 0.0 && q.chunk.rebuf_saturation >= 0.0;
  result_ = PlanResult{};
  best_rank_ = kNoRank;
  nostall_rank_ = kNoRank;
  root_buf_.assign(S_, q.obs->buffer_s);
  kids_.resize(D * width_);
  kid_buf_.resize(D * width_ * S_);
  cache_.resize(kCacheSlots);
  cache_buf_.resize(kCacheSlots * S_);
  ++round_;

  // Warm start: consecutive decisions of one session overlap in all but one
  // lookahead chunk, so the previous best path, shifted by one chunk, is
  // usually close to the new optimum.
  if (warm_video_ == &video && warm_chunk_ + 1 == q.obs->next_chunk &&
      warm_path_.size() >= 2) {
    const size_t fixed = std::min(D, warm_path_.size() - 1);
    bool valid = true;
    for (size_t d = 0; d < fixed; ++d) valid = valid && warm_path_[d + 1] < L_;
    if (valid) fold_warm_start(fixed);
  }
  expand(0, Node{}, root_buf_.data());

  // Remember the best path for the next decision's warm start.
  warm_video_ = &video;
  warm_chunk_ = q.obs->next_chunk;
  warm_path_.resize(D);
  uint64_t rank = best_rank_;
  for (size_t d = D; d-- > 1;) {
    warm_path_[d] = static_cast<uint32_t>(rank % L_);
    rank /= L_;
  }
  warm_path_[0] = static_cast<uint32_t>(rank / R_);
  return result_;
}

// ---------------------------------------------------------------------------
// ViPlanner
// ---------------------------------------------------------------------------

ViPlanner::ViPlanner(double buffer_quantum_s)
    : quantum_(buffer_quantum_s > 0.0 ? buffer_quantum_s : kDefaultViBufferQuantumS) {}

size_t ViPlanner::arena_bytes() const {
  return rows_.arena_bytes() +
         (local_dl_.capacity() + prob_.capacity() + w_.capacity() + root_dl_.capacity() +
          qkbps_.capacity() + key_.capacity() + width_.capacity()) *
             sizeof(double) +
         (local_v_cap_ + bcount_.capacity() + off_.capacity()) * sizeof(uint64_t);
}

void ViPlanner::precompute(const PlanQuery& q, size_t depth_count) {
  const size_t L = q.obs->video->ladder().level_count();
  const size_t S = q.num_scenarios;
  rows_.bind(batch_, q, depth_count);

  // The planner's actual throughput inputs are the quantized scenarios: the
  // same discretization whether or not a batch is attached, so attaching
  // can only move where tables live, never what they hold.
  qkbps_.resize(S);
  prob_.resize(S);
  for (size_t s = 0; s < S; ++s) {
    qkbps_[s] = quantize_kbps(q.scenarios[s].kbps);
    prob_[s] = q.scenarios[s].probability;
  }

  w_.resize(depth_count);
  for (size_t d = 0; d < depth_count; ++d) {
    double w = 1.0;
    if (q.use_weights && d < q.obs->future_weights.size()) {
      w = 1.0 + q.weight_shrinkage * (q.obs->future_weights[d] - 1.0);
    }
    w_[d] = w;
  }

  // The root step is evaluated with the *exact* forecasts: the immediate
  // stall/no-stall tradeoff is the decision's dominant term, and judging it
  // on kbps rounded up a bin would schedule real stalls. Only the value
  // table (depths >= 1) lives on the quantized scenarios, mirroring the
  // buffer axis where depth 0 is continuous and resolution coarsens with
  // depth. Recomputed per decision, so it costs L x S divisions — part of
  // the irreducible root work, never the shared table.
  root_dl_.resize(L * S);
  for (size_t l = 0; l < L; ++l) {
    for (size_t s = 0; s < S; ++s) {
      root_dl_[l * S + s] = download_s(rows_.bits_kb[l], q.scenarios[s].kbps);
    }
  }
}

void ViPlanner::fill_dl() {
  for (size_t d = 0; d < D_; ++d) {
    for (size_t l = 0; l < L_; ++l) {
      for (size_t s = 0; s < S_; ++s) {
        local_dl_[(d * L_ + l) * S_ + s] = download_s(rows_.bits_kb[d * L_ + l], qkbps_[s]);
      }
    }
  }
  dl_ready_ = true;
}

// Continuation value of depths [depth, D) when the buffer sits at
// `buffer_s` (bucketed here, at depth's own resolution) and the previous
// chunk played at `prev_level`. Closed-loop: each scenario contributes the
// value of its *own* post-step buffer, so deeper choices adapt to the
// realized throughput (the source of the pinned delta vs the open-loop
// exact planners). A step's contribution uses the same quality/stall
// decomposition as weighted_step_quality, folded per scenario:
// w * qn + max(w, 1) * (qv - qn).
double ViPlanner::value_of(size_t depth, double buffer_s, size_t prev_level) {
  if (depth >= D_) return 0.0;
  const double width = width_[depth];
  const size_t bucket = static_cast<size_t>(buffer_bucket(buffer_s, width));
  const size_t idx = off_[depth] + bucket * L_ + prev_level;
  const uint64_t cell = v_cells_[idx].load(std::memory_order_relaxed);
  if (cell != PlanBatch::kUnfilled) return double_of(cell);
  if (!dl_ready_) fill_dl();

  const double b0 = static_cast<double>(bucket) * width;
  const double prev_vq = rows_.vq[(depth - 1) * L_ + prev_level];
  const double w = w_[depth];
  const double wstall = std::max(w, 1.0);
  double best = -1e18;
  for (size_t l = 0; l < L_; ++l) {
    const double vq = rows_.vq[depth * L_ + l];
    const double qn = rows_.qn[(depth * L_ + l) * L_ + prev_level];
    const double* dl_row = &local_dl_[(depth * L_ + l) * S_];
    double acc = 0.0;
    for (size_t s = 0; s < S_; ++s) {
      double b = b0;
      const double stall = step_buffer(b, dl_row[s], 0.0, tau_);
      const double qv = stall > 0.0 ? qoe::chunk_quality(vq, stall, prev_vq, q_->chunk) : qn;
      acc += prob_[s] * (w * qn + wstall * (qv - qn) + value_of(depth + 1, b, l));
    }
    if (acc > best) best = acc;
  }
  // A racing thread may have stored the same cell meanwhile: same key, same
  // bits, so overwriting it is harmless.
  v_cells_[idx].store(bits_of(best), std::memory_order_relaxed);
  return best;
}

PlanResult ViPlanner::plan(const PlanQuery& q) {
  PlanResult result;
  if (degenerate_plan(q, &result)) return result;

  const auto& video = *q.obs->video;
  const size_t remaining = q.obs->num_chunks - q.obs->next_chunk;  // > 0 here
  q_ = &q;
  D_ = std::min(q.horizon, remaining);
  L_ = video.ladder().level_count();
  S_ = q.num_scenarios;
  tau_ = video.chunk_duration_s();

  // Multi-resolution grid: the root is evaluated at the continuous observed
  // buffer; depth d >= 1 lives on buckets of width quantum * 2^(d-1). The
  // dynamics cap the buffer at kMaxBufferS, so its bucket bounds each axis.
  if (D_ != grid_D_ || L_ != grid_L_) {
    grid_D_ = D_;
    grid_L_ = L_;
    width_.assign(D_, 0.0);
    bcount_.assign(D_, 0);
    off_.assign(D_, 0);
    cells_ = 0;
    double wd = quantum_;
    for (size_t d = 1; d < D_; ++d) {
      width_[d] = wd;
      bcount_[d] = static_cast<size_t>(buffer_bucket(kMaxBufferS, wd)) + 1;
      off_[d] = cells_;
      cells_ += bcount_[d] * L_;
      wd *= 2.0;
    }
  }

  precompute(q, D_);

  local_dl_.resize(D_ * L_ * S_);
  dl_ready_ = false;
  if (batch_ != nullptr) {
    // Shared mode: the whole value table lives in the batch, keyed by the
    // discretized decision context. Any session that lands on the same key
    // reuses every filled cell.
    key_.clear();
    for (size_t s = 0; s < S_; ++s) {
      key_.push_back(qkbps_[s]);
      key_.push_back(prob_[s]);
    }
    if (q.use_weights) key_.insert(key_.end(), w_.begin(), w_.end());
    // A steady session decides chunk n then n + 1 under an unchanged
    // context, so the context of the previous plan is compared first: a
    // match skips the hash and the index probe, and leaves the table one
    // directory load away.
    if (ctx_ == nullptr || !same_vi_context(*ctx_, video, q.chunk, D_, L_, quantum_,
                                            key_.data(), key_.size())) {
      ctx_ = &batch_->vi_context(video, q.chunk, D_, L_, quantum_, key_.data(), key_.size());
    }
    v_cells_ = batch_->vi_table(*ctx_, q.obs->next_chunk, cells_);
  } else {
    if (local_v_cap_ < cells_) {
      local_v_.reset(new std::atomic<uint64_t>[cells_]);
      local_v_cap_ = cells_;
    }
    for (size_t c = 0; c < cells_; ++c) {
      local_v_[c].store(PlanBatch::kUnfilled, std::memory_order_relaxed);
    }
    v_cells_ = local_v_.get();
  }

  const double w0 = w_[0];
  const double wstall0 = std::max(w0, 1.0);
  // Depth-1 memo read with the hit path inlined: the root fold makes L*S of
  // these, and funneling every one through the recursive value_of call kept
  // the loads serialized behind call/return; inline, the out-of-order core
  // overlaps the (usually cold) cell fetches across iterations. The bucket
  // expression is value_of's own, so hit or miss, the bits are the same.
  const double width1 = D_ > 1 ? width_[1] : 1.0;
  const size_t base1 = D_ > 1 ? off_[1] : 0;
  const auto depth1_value = [&](double b, size_t level) -> double {
    if (D_ <= 1) return 0.0;
    const size_t idx =
        base1 + static_cast<size_t>(buffer_bucket(b, width1)) * L_ + level;
    const uint64_t cell = v_cells_[idx].load(std::memory_order_relaxed);
    if (cell != PlanBatch::kUnfilled) return double_of(cell);
    return value_of(1, b, level);
  };
  for (size_t level = 0; level < L_; ++level) {
    const double qn = rows_.root_qn[level];
    const double vq = rows_.vq[level];
    const double* dl_row = &root_dl_[level * S_];
    for (size_t si = 0; si < q.num_rebuffer_options; ++si) {
      const double scheduled = q.rebuffer_options[si];
      double acc = 0.0;
      for (size_t s = 0; s < S_; ++s) {
        double b = q.obs->buffer_s;
        const double stall = step_buffer(b, dl_row[s], scheduled, tau_);
        const double qv =
            stall > 0.0 ? qoe::chunk_quality(vq, stall, q.prev_visual_quality, q.chunk) : qn;
        acc += prob_[s] * (w0 * qn + wstall0 * (qv - qn) + depth1_value(b, level));
      }
      // Strict improvement only: level-major, stall-option-minor iteration
      // reproduces the exact planners' first-strictly-better tie-break.
      if (acc > result.best_value) {
        result.best_value = acc;
        result.best_level = level;
        result.best_rebuffer_s = scheduled;
      }
      if (scheduled == 0.0 && acc > result.nostall_value) {
        result.nostall_value = acc;
        result.nostall_level = level;
      }
    }
  }
  // Drop the borrowed pointers: a detached batch must not leave the planner
  // dangling into freed tables at the next (unbatched) decide().
  q_ = nullptr;
  v_cells_ = nullptr;
  return result;
}

std::unique_ptr<Planner> make_planner(PlannerKind kind, double dp_buffer_quantum_s) {
  switch (kind) {
    case PlannerKind::kVi:
      return std::make_unique<ViPlanner>(dp_buffer_quantum_s);
    case PlannerKind::kDp:
    default:
      if (dp_buffer_quantum_s != 0.0) {
        throw std::invalid_argument(
            "dp_buffer_quantum_s must be 0 for planner=dp, which is exact; a non-zero "
            "bucket width needs planner=vi");
      }
      return std::make_unique<DpPlanner>();
  }
}

}  // namespace sensei::abr
