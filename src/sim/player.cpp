#include "sim/player.h"

#include <stdexcept>

#include "sim/session_engine.h"

namespace sensei::sim {

Player::Player(PlayerConfig config) : config_(config) {
  if (config_.max_buffer_s <= 0.0) throw std::runtime_error("player: max buffer must be > 0");
}

SessionResult Player::stream(const media::EncodedVideo& video,
                             const net::ThroughputTrace& trace, AbrPolicy& policy,
                             const std::vector<double>& weights) const {
  return SessionEngine(config_, video, trace, policy, weights).run();
}

}  // namespace sensei::sim
