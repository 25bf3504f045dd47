// The pre-timeline accounting loop of the player simulator, frozen as the
// reference for the timeline engine's bit-identity gate
// (tests/test_timeline.cpp). Production sessions run only through
// sim::Player::stream (the session engine, sim/session_engine.h); this loop
// lives in the test-only oracle library and reaches the library through its
// public API alone.
//
// It keeps two old bugs on purpose: RTT is folded into the goodput estimate
// and a dead link yields unbounded download times rather than a typed
// outage/truncation — and it carries no trajectory. The trace-level fixes
// underneath it are global: with rtt_s > 0 even this loop sees the corrected
// RTT placement (ThroughputTrace::download_time_s), so it reproduces the
// timeline engine only at rtt_s = 0 on traces without an outage.
#pragma once

#include <vector>

#include "media/encoder.h"
#include "net/trace.h"
#include "sim/player.h"
#include "sim/session.h"

namespace sensei::oracles {

// Streams `video` over `trace` under `policy` with `config`'s buffer cap,
// RTT and weight horizon (the resilience and timeline settings do not
// apply to this loop).
sim::SessionResult stream_legacy(const sim::PlayerConfig& config,
                                 const media::EncodedVideo& video,
                                 const net::ThroughputTrace& trace, sim::AbrPolicy& policy,
                                 const std::vector<double>& weights = {});

}  // namespace sensei::oracles
