#include "core/sensei.h"

#include "abr/registry.h"

namespace sensei::core {

Sensei::Sensei(const crowd::GroundTruthQoE& oracle, crowd::SchedulerConfig scheduler_config,
               uint64_t seed)
    : pipeline_(oracle, scheduler_config, seed) {}

ProfileOutput Sensei::profile(const media::EncodedVideo& video) const {
  return pipeline_.run(video);
}

// The factories below are thin wrappers over abr::PolicyRegistry: they
// translate their typed arguments into a spec and let the registry build the
// policy, so there is exactly one construction path per policy name
// (registry-vs-direct bit-identity is pinned by tests/test_registry.cpp).
// The typed FuguAbr/PensieveAbr return types are preserved for callers that
// reach past sim::AbrPolicy (the Pensieve trainer, planner introspection),
// so the registry's base pointer is downcast — safe because the named
// factory registered for each spec name constructs exactly that type.
namespace {

const char* planner_text(abr::PlannerKind planner) {
  return planner == abr::PlannerKind::kVi ? "vi" : "dp";
}

void add_chunk_keys(abr::PolicySpec& spec, const qoe::ChunkQualityParams& params) {
  spec.kv.emplace_back("beta_rebuf", abr::format_spec_double(params.beta_rebuf));
  spec.kv.emplace_back("rebuf_saturation", abr::format_spec_double(params.rebuf_saturation));
  spec.kv.emplace_back("beta_switch", abr::format_spec_double(params.beta_switch));
  spec.kv.emplace_back("floor", abr::format_spec_double(params.floor));
}

std::unique_ptr<abr::FuguAbr> fugu_from_registry(const char* name,
                                                 const qoe::ChunkQualityParams& params,
                                                 abr::PlannerKind planner) {
  abr::PolicySpec spec;
  spec.name = name;
  add_chunk_keys(spec, params);
  spec.kv.emplace_back("planner", planner_text(planner));
  auto policy = abr::PolicyRegistry::instance().make(spec);
  return std::unique_ptr<abr::FuguAbr>(static_cast<abr::FuguAbr*>(policy.release()));
}

std::unique_ptr<abr::PensieveAbr> pensieve_from_registry(const char* name, uint64_t seed,
                                                         const qoe::ChunkQualityParams& params) {
  abr::PolicySpec spec;
  spec.name = name;
  add_chunk_keys(spec, params);
  spec.kv.emplace_back("seed", std::to_string(seed));
  auto policy = abr::PolicyRegistry::instance().make(spec);
  return std::unique_ptr<abr::PensieveAbr>(static_cast<abr::PensieveAbr*>(policy.release()));
}

}  // namespace

std::unique_ptr<abr::FuguAbr> Sensei::make_fugu(qoe::ChunkQualityParams params,
                                                abr::PlannerKind planner) {
  return fugu_from_registry("fugu", params, planner);
}

std::unique_ptr<abr::PensieveAbr> Sensei::make_pensieve(uint64_t seed,
                                                        qoe::ChunkQualityParams params) {
  return pensieve_from_registry("pensieve", seed, params);
}

std::unique_ptr<abr::FuguAbr> Sensei::make_sensei_fugu(qoe::ChunkQualityParams params,
                                                       abr::PlannerKind planner) {
  return fugu_from_registry("sensei-fugu", params, planner);
}

std::unique_ptr<abr::FuguAbr> Sensei::make_sensei_fugu_bitrate_only(
    qoe::ChunkQualityParams params, abr::PlannerKind planner) {
  return fugu_from_registry("sensei-fugu-bitrate-only", params, planner);
}

std::unique_ptr<abr::PensieveAbr> Sensei::make_sensei_pensieve(
    uint64_t seed, qoe::ChunkQualityParams params) {
  return pensieve_from_registry("sensei-pensieve", seed, params);
}

}  // namespace sensei::core
