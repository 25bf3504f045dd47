#include "abr/pensieve.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "abr/bba.h"
#include "util/stats.h"

namespace sensei::abr {

namespace {
constexpr size_t kLadderLevels = 5;  // feature layout assumes the paper's ladder
}

PensieveAbr::PensieveAbr(PensieveConfig config, uint64_t seed)
    : config_(config), rng_(seed), taps_(config.throughput_taps) {
  size_t input = feature_count();
  actor_ = ml::Mlp(input,
                   {{config_.hidden_units, ml::Activation::kReLU},
                    {action_count(), ml::Activation::kSoftmax}},
                   rng_);
  critic_ = ml::Mlp(input,
                    {{config_.hidden_units, ml::Activation::kReLU},
                     {1, ml::Activation::kLinear}},
                    rng_);
}

size_t PensieveAbr::action_count() const {
  return kLadderLevels + (config_.sensei_mode ? config_.rebuffer_actions.size() : 0);
}

size_t PensieveAbr::feature_count() const {
  // last level (1) + buffer (1) + throughput taps + last download time (1)
  // + next chunk sizes (5) + remaining fraction (1) [+ future weights].
  return 1 + 1 + config_.throughput_taps + 1 + kLadderLevels + 1 +
         (config_.sensei_mode ? config_.weight_horizon : 0);
}

std::vector<double> PensieveAbr::featurize(const sim::AbrObservation& obs) {
  // One tap per decision after the first: the goodput of the chunk just
  // downloaded, zeros included.
  if (obs.next_chunk == 0) {
    taps_.clear();
  } else {
    taps_.push(obs.last_throughput_kbps);
  }

  const auto& video = *obs.video;
  const size_t levels = video.ladder().level_count();
  std::vector<double> f;
  f.reserve(feature_count());

  // A one-rung ladder has no level to normalize by.
  f.push_back(levels > 1 ? static_cast<double>(obs.last_level) / static_cast<double>(levels - 1)
                         : 0.0);
  f.push_back(obs.buffer_s / 20.0);

  // The taps, oldest first, zero-padded in front.
  const size_t pad = config_.throughput_taps - taps_.size();
  for (size_t k = 0; k < config_.throughput_taps; ++k) {
    f.push_back(k < pad ? 0.0 : taps_[k - pad] / 5000.0);
  }
  f.push_back(obs.last_download_time_s / 10.0);

  for (size_t l = 0; l < kLadderLevels; ++l) {
    if (obs.next_chunk < video.num_chunks() && l < levels) {
      f.push_back(video.size_bytes(obs.next_chunk, l) / 4.0e6);
    } else {
      f.push_back(0.0);
    }
  }
  f.push_back(obs.num_chunks > 0
                  ? static_cast<double>(obs.num_chunks - obs.next_chunk) /
                        static_cast<double>(obs.num_chunks)
                  : 0.0);

  if (config_.sensei_mode) {
    for (size_t k = 0; k < config_.weight_horizon; ++k) {
      f.push_back(k < obs.future_weights.size() ? obs.future_weights[k] : 1.0);
    }
  }
  if (f.size() != feature_count()) throw std::runtime_error("pensieve: feature layout bug");
  return f;
}

void PensieveAbr::begin_session(const media::EncodedVideo& video) {
  // The action head and the size features have one slot per rung: a longer
  // ladder's upper rungs could never be chosen.
  const size_t rungs = video.ladder().level_count();
  if (rungs > kLadderLevels) {
    throw std::invalid_argument("pensieve: a " + std::to_string(rungs) +
                                "-rung ladder is not supported; at most " +
                                std::to_string(kLadderLevels) + " rungs");
  }
  episode_.clear();
}

sim::AbrDecision PensieveAbr::decide(const sim::AbrObservation& obs) {
  std::vector<double> features = featurize(obs);
  std::vector<double> probs = actor_.forward(features);

  size_t action;
  if (training_) {
    // Exploration floor: mix the sampling distribution with uniform so high
    // bitrates keep getting sampled even after the policy sharpens.
    std::vector<double> sampling = probs;
    double mix = config_.explore_mix * entropy_scale_;
    for (double& p : sampling) {
      p = (1.0 - mix) * p + mix / static_cast<double>(sampling.size());
    }
    action = rng_.weighted_index(sampling);
  } else {
    action = static_cast<size_t>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
  }
  // A scheduled stall on the very first chunk only delays startup; mask it.
  if (obs.next_chunk == 0 && action >= kLadderLevels) action = kLadderLevels - 1;

  if (training_) episode_.push_back({features, action});

  sim::AbrDecision d;
  if (action < kLadderLevels) {
    d.level = std::min(action, obs.video->ladder().level_count() - 1);
  } else {
    // Rebuffer action: keep the previous level, pause playback.
    d.level = obs.last_level;
    d.scheduled_rebuffer_s = config_.rebuffer_actions[action - kLadderLevels];
  }
  return d;
}

void PensieveAbr::update_from_episode(const std::vector<double>& rewards) {
  if (episode_.empty() || rewards.size() != episode_.size()) return;

  // Discounted returns.
  std::vector<double> returns(rewards.size());
  double g = 0.0;
  for (size_t t = rewards.size(); t-- > 0;) {
    g = rewards[t] + config_.gamma * g;
    returns[t] = g;
  }

  // Per-episode advantage normalization keeps gradient scale independent of
  // the (large, video-length-dependent) return magnitudes.
  std::vector<double> advantages(returns.size());
  for (size_t t = 0; t < episode_.size(); ++t) {
    advantages[t] = returns[t] - critic_.forward(episode_[t].features)[0];
  }
  double adv_mean = util::mean(advantages);
  double adv_sd = util::stddev(advantages);
  if (adv_sd < 1e-6) adv_sd = 1.0;

  const size_t actions = action_count();
  for (size_t t = 0; t < episode_.size(); ++t) {
    const auto& step = episode_[t];
    double value = critic_.forward(step.features)[0];
    double advantage = (advantages[t] - adv_mean) / adv_sd;

    // Actor: policy gradient with entropy regularization. For a softmax head
    // the gradient w.r.t. logits of -log pi(a) * A is (p - onehot_a) * A;
    // entropy bonus adds beta * (p .* (log p + H)).
    std::vector<double> probs = actor_.forward(step.features);
    double entropy = 0.0;
    for (double p : probs) {
      if (p > 1e-12) entropy -= p * std::log(p);
    }
    std::vector<double> dlogits(actions, 0.0);
    for (size_t a = 0; a < actions; ++a) {
      double grad_pg = (probs[a] - (a == step.action ? 1.0 : 0.0)) * advantage;
      double grad_entropy = 0.0;
      if (probs[a] > 1e-12) {
        grad_entropy = config_.entropy_beta * entropy_scale_ * probs[a] *
                       (std::log(probs[a]) + entropy);
      }
      dlogits[a] = grad_pg + grad_entropy;
    }
    actor_.accumulate_gradient(step.features, dlogits);

    // Critic: squared error toward the return (clipped so one catastrophic
    // episode cannot destabilize the value net).
    double verr = util::clamp(value - returns[t], -10.0, 10.0);
    critic_.accumulate_gradient(step.features, {verr});
  }
  actor_.apply_adam(config_.actor_lr, episode_.size());
  critic_.apply_adam(config_.critic_lr, episode_.size());
  episode_.clear();
}

void PensieveAbr::clone_update(const std::vector<size_t>& teacher_actions, double lr) {
  if (episode_.empty() || teacher_actions.size() != episode_.size()) {
    episode_.clear();
    return;
  }
  const size_t actions = action_count();
  for (size_t t = 0; t < episode_.size(); ++t) {
    std::vector<double> probs = actor_.forward(episode_[t].features);
    std::vector<double> dlogits(actions, 0.0);
    for (size_t a = 0; a < actions; ++a) {
      dlogits[a] = probs[a] - (a == teacher_actions[t] ? 1.0 : 0.0);
    }
    actor_.accumulate_gradient(episode_[t].features, dlogits);
  }
  actor_.apply_adam(lr, episode_.size());
  episode_.clear();
}

std::vector<double> PensieveTrainer::rewards_from_session(
    const sim::SessionResult& session, const std::vector<double>& weights,
    const qoe::ChunkQualityParams& params) {
  const auto& chunks = session.chunks();
  std::vector<double> rewards;
  rewards.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    double prev_vq = i > 0 ? chunks[i - 1].visual_quality : chunks[i].visual_quality;
    double q = qoe::chunk_quality(chunks[i].visual_quality, chunks[i].rebuffer_s, prev_vq,
                                  params);
    double w = i < weights.size() ? weights[i] : 1.0;
    rewards.push_back(w * q);
  }
  return rewards;
}

void PensieveTrainer::train(PensieveAbr& policy,
                            const std::vector<media::EncodedVideo>& videos,
                            const std::vector<net::ThroughputTrace>& traces,
                            const std::vector<std::vector<double>>& weights_per_video) {
  train(policy, videos, traces, weights_per_video, Options());
}

void PensieveTrainer::train(PensieveAbr& policy,
                            const std::vector<media::EncodedVideo>& videos,
                            const std::vector<net::ThroughputTrace>& traces,
                            const std::vector<std::vector<double>>& weights_per_video,
                            Options options) {
  if (videos.empty() || traces.empty()) throw std::runtime_error("pensieve: empty train set");
  if (!weights_per_video.empty() && weights_per_video.size() != videos.size())
    throw std::runtime_error("pensieve: weights/videos mismatch");

  util::Rng rng(options.seed);
  sim::Player player(options.player);

  qoe::ChunkQualityParams reward_params = policy.config().chunk;
  reward_params.floor = policy.config().training_reward_floor;

  // --- Phase 1: behaviour-cloning warm start from BBA. ---
  // A shim policy lets BBA drive the session while recording the student's
  // feature vector and the teacher's action at every step. featurize() also
  // feeds the student's throughput taps, once per decision, as decide()
  // would.
  struct CloningShim : sim::AbrPolicy {
    PensieveAbr* student = nullptr;
    BbaAbr teacher;
    std::vector<std::vector<double>> features;
    std::vector<size_t> actions;
    const char* name() const override { return "bc-shim"; }
    sim::AbrDecision decide(const sim::AbrObservation& obs) override {
      sim::AbrDecision d = teacher.decide(obs);
      features.push_back(student->featurize(obs));
      actions.push_back(d.level);
      return d;
    }
  };
  const std::vector<double> no_weights;
  for (int ep = 0; ep < options.bc_episodes; ++ep) {
    size_t vi = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(videos.size()) - 1));
    size_t ti = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(traces.size()) - 1));
    const std::vector<double>& w =
        weights_per_video.empty() ? no_weights : weights_per_video[vi];
    CloningShim shim;
    shim.student = &policy;
    player.stream(videos[vi], traces[ti], shim, w);
    // Feed the recorded trajectory through the student's supervised update.
    policy.set_training(true);
    policy.begin_session(videos[vi]);
    for (auto& f : shim.features) policy.mutable_episode().push_back({std::move(f), 0});
    policy.clone_update(shim.actions, 2e-3);
    policy.set_training(false);
  }

  policy.set_training(true);

  const std::vector<double> empty;
  for (int ep = 0; ep < options.episodes; ++ep) {
    // Anneal exploration/entropy linearly to zero over training.
    policy.set_entropy_scale(1.0 - static_cast<double>(ep) /
                                       static_cast<double>(options.episodes));
    size_t vi = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(videos.size()) - 1));
    size_t ti = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(traces.size()) - 1));
    const std::vector<double>& w =
        weights_per_video.empty() ? empty : weights_per_video[vi];

    sim::SessionResult session = player.stream(videos[vi], traces[ti], policy, w);
    std::vector<double> rewards = rewards_from_session(session, w, reward_params);
    policy.update_from_episode(rewards);
  }
  policy.set_training(false);
  policy.set_entropy_scale(1.0);
}

}  // namespace sensei::abr
