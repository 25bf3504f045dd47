// Pensieve-style deep-RL ABR (Mao et al., SIGCOMM'17), re-implemented on our
// own ml:: substrate: an MLP actor-critic trained with advantage policy
// gradients over simulated sessions.
//
// The SENSEI variation (§5.2) is selected by Config::sensei_mode: the state
// gains the sensitivity weights of the next h chunks, the action set gains
// scheduled rebuffering levels ({1, 2} s at chunk boundaries), and the
// training reward weights each chunk's quality by its sensitivity weight.
#pragma once

#include <memory>
#include <vector>

#include "ml/mlp.h"
#include "net/predictor.h"
#include "net/trace.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"

namespace sensei::abr {

struct PensieveConfig {
  bool sensei_mode = false;       // weights in state + rebuffer actions + weighted reward
  size_t weight_horizon = 5;      // h: future weights visible in the state
  size_t throughput_taps = 8;     // past goodputs in the state, oldest first
  size_t hidden_units = 48;
  double entropy_beta = 0.015;    // exploration bonus during training
  double explore_mix = 0.10;      // uniform mixing of the sampling policy
  double gamma = 0.97;            // discount
  double actor_lr = 1e-3;
  double critic_lr = 1e-3;
  std::vector<double> rebuffer_actions = {1.0, 2.0};  // seconds, sensei_mode only
  qoe::ChunkQualityParams chunk;
  // Training rewards drop the per-chunk quality floor so catastrophic stalls
  // stay strongly penalized (the floor exists for bounded QoE *scoring*, but
  // it flattens the learning signal exactly where RL must feel it).
  double training_reward_floor = -4.0;
};

class PensieveAbr : public sim::AbrPolicy {
 public:
  explicit PensieveAbr(PensieveConfig config = PensieveConfig(), uint64_t seed = 41);

  const char* name() const override {
    return config_.sensei_mode ? "Sensei-Pensieve" : "Pensieve";
  }
  // Throws std::invalid_argument on a ladder of more than five rungs: the
  // action head and the chunk-size features have the paper ladder's five.
  void begin_session(const media::EncodedVideo& video) override;
  sim::AbrDecision decide(const sim::AbrObservation& obs) override;

  // Training-mode switches action selection from argmax to sampling and
  // records the episode trajectory.
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  struct Step {
    std::vector<double> features;
    size_t action = 0;
  };
  const std::vector<Step>& episode() const { return episode_; }
  std::vector<Step>& mutable_episode() { return episode_; }

  // Policy-gradient update from per-step rewards of the last episode.
  void update_from_episode(const std::vector<double>& rewards);

  // Supervised (cross-entropy) update of the actor toward teacher actions,
  // used for behaviour-cloning warm starts. Consumes the recorded episode.
  void clone_update(const std::vector<size_t>& teacher_actions, double lr);

  // Scales entropy regularization (the trainer anneals it to 0 over
  // training so the policy can sharpen late).
  void set_entropy_scale(double scale) { entropy_scale_ = scale; }

  size_t action_count() const;
  size_t feature_count() const;
  // The state vector for one decision. It first takes the observation's
  // goodput into the throughput taps (which clear at chunk 0), so it is
  // called exactly once per decision: by decide(), and by the trainer's
  // behaviour-cloning shim in its place.
  std::vector<double> featurize(const sim::AbrObservation& obs);

  const PensieveConfig& config() const { return config_; }

 private:
  PensieveConfig config_;
  util::Rng rng_;
  ml::Mlp actor_;
  ml::Mlp critic_;
  bool training_ = false;
  double entropy_scale_ = 1.0;
  std::vector<Step> episode_;
  net::SampleWindow taps_;  // the session's last throughput_taps goodputs
};

// Trains a policy over (video, trace) pairs. When `weights_per_video` is
// provided (SENSEI mode), rewards are reweighted and weights are passed to
// the player so they appear in the state.
struct PensieveTrainer {
  struct Options {
    int episodes = 400;
    // Behaviour-cloning warm start: before policy-gradient training, the
    // actor imitates BBA for this many episodes. Cheap, and it spares RL the
    // long random-exploration phase that destabilizes small-batch REINFORCE.
    int bc_episodes = 300;
    uint64_t seed = 77;
    sim::PlayerConfig player;
  };

  // weights_per_video: either empty, or one weight vector per video.
  static void train(PensieveAbr& policy, const std::vector<media::EncodedVideo>& videos,
                    const std::vector<net::ThroughputTrace>& traces,
                    const std::vector<std::vector<double>>& weights_per_video,
                    Options options);
  static void train(PensieveAbr& policy, const std::vector<media::EncodedVideo>& videos,
                    const std::vector<net::ThroughputTrace>& traces,
                    const std::vector<std::vector<double>>& weights_per_video);

  // Per-chunk training rewards reconstructed from a finished session.
  static std::vector<double> rewards_from_session(const sim::SessionResult& session,
                                                  const std::vector<double>& weights,
                                                  const qoe::ChunkQualityParams& params);
};

}  // namespace sensei::abr
