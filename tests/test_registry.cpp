// Policy registry gates (abr/registry.h):
//  - strict spec parsing: grammar acceptance, and position-annotated
//    rejection of every malformed shape;
//  - vocabulary validation: unknown names/keys/values fail naming the
//    accepted alternatives;
//  - canonicalization: defaults explicit, keys sorted, numeric text
//    round-trip-exact; canonical strings are a fixed point of
//    parse -> canonicalize -> to_string, and are insensitive to key order
//    and to spelling defaults out;
//  - the headline contract: a registry-built policy is bit-identical in
//    behavior to a directly constructed one, for every registered name, on
//    seeded session grids at 1 and 4 runner threads (compared with
//    bench_util.h's sessions_differ, the same comparator the bench
//    identity gates use);
//  - seeded mutants of every registered canonical spec canonicalize to a
//    fixed point that make() builds, or fail naming their offense.
#include "abr/registry.h"

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/pensieve.h"
#include "abr/rate_based.h"
#include "abr/whittle.h"
#include "bench_util.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// ---- parsing ----------------------------------------------------------------

TEST(PolicySpecParse, AcceptsTheGrammar) {
  PolicySpec bare = PolicySpec::parse("bba");
  EXPECT_EQ(bare.name, "bba");
  EXPECT_TRUE(bare.kv.empty());

  PolicySpec full = PolicySpec::parse("fugu:planner=vi,horizon=5");
  EXPECT_EQ(full.name, "fugu");
  ASSERT_EQ(full.kv.size(), 2u);
  // parse() preserves textual order; canonicalize() sorts.
  EXPECT_EQ(full.kv[0].first, "planner");
  EXPECT_EQ(full.kv[0].second, "vi");
  EXPECT_EQ(full.kv[1].first, "horizon");
  EXPECT_EQ(full.kv[1].second, "5");

  PolicySpec dashed = PolicySpec::parse("sensei-fugu-bitrate-only:weight_shrinkage=0.5");
  EXPECT_EQ(dashed.name, "sensei-fugu-bitrate-only");
  ASSERT_NE(dashed.find("weight_shrinkage"), nullptr);
  EXPECT_EQ(*dashed.find("weight_shrinkage"), "0.5");
  EXPECT_EQ(dashed.find("absent"), nullptr);

  EXPECT_EQ(full.to_string(), "fugu:planner=vi,horizon=5");
  EXPECT_EQ(bare.to_string(), "bba");
}

TEST(PolicySpecParse, RejectsMalformedTextWithPositions) {
  struct Case {
    const char* text;
    const char* expect_substring;
  };
  const Case cases[] = {
      {"", "empty policy name at position 0"},
      {":planner=vi", "empty policy name at position 0"},
      {"Fugu", "invalid character 'F' in policy name at position 0"},
      {"fugu!", "invalid character '!' in policy name at position 4"},
      {"fugu:", "empty key=value pair at position 5"},
      {"fugu:planner=vi,", "empty key=value pair at position 16"},
      {"fugu:planner", "missing '=' in key=value pair at position 5"},
      {"fugu:planner=vi,horizon", "missing '=' in key=value pair at position 16"},
      {"fugu:=vi", "empty key at position 5"},
      {"fugu:plan ner=vi", "invalid character ' ' in key at position 9"},
      {"fugu:planner=", "empty value for key 'planner' at position 13"},
      {"fugu:planner=vi,planner=dp", "duplicate key 'planner' at position 16"},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(PolicySpec::parse(c.text), std::runtime_error) << c.text;
    std::string message = thrown_message([&] { PolicySpec::parse(c.text); });
    EXPECT_NE(message.find(c.expect_substring), std::string::npos)
        << "spec \"" << c.text << "\": got \"" << message << "\"";
  }
}

// ---- vocabulary -------------------------------------------------------------

TEST(PolicyRegistry, RegistersTheShippedPolicies) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  for (const char* name : {"bba", "rate_based", "whittle", "fugu", "sensei-fugu",
                           "sensei-fugu-bitrate-only", "pensieve", "sensei-pensieve"}) {
    EXPECT_TRUE(registry.has(name)) << name;
  }
  EXPECT_FALSE(registry.has("mpc"));
  EXPECT_EQ(registry.names().size(), 8u);
}

TEST(PolicyRegistry, RejectsUnknownVocabularyNamingAlternatives) {
  PolicyRegistry& registry = PolicyRegistry::instance();

  std::string message =
      thrown_message([&] { registry.canonicalize(PolicySpec::parse("no-such-policy")); });
  EXPECT_NE(message.find("unknown policy name 'no-such-policy'"), std::string::npos) << message;
  EXPECT_NE(message.find("bba"), std::string::npos) << message;  // lists registered names

  message = thrown_message([&] { registry.canonical_string("bba:nope=1"); });
  EXPECT_NE(message.find("policy 'bba' has no key 'nope'"), std::string::npos) << message;
  EXPECT_NE(message.find("reservoir_s"), std::string::npos) << message;  // lists known keys

  message = thrown_message([&] { registry.canonical_string("fugu:planner=magic"); });
  EXPECT_NE(message.find("not one of"), std::string::npos) << message;
  EXPECT_NE(message.find("dp, vi"), std::string::npos) << message;
  // The exhaustive reference planner is a test oracle, not a planner value.
  message = thrown_message([&] { registry.canonical_string("fugu:planner=exhaustive"); });
  EXPECT_NE(message.find("not one of"), std::string::npos) << message;
  EXPECT_NE(message.find("dp, vi"), std::string::npos) << message;

  EXPECT_THROW(registry.canonical_string("bba:reservoir_s=abc"), std::runtime_error);
  EXPECT_THROW(registry.canonical_string("bba:reservoir_s=1.5x"), std::runtime_error);
  EXPECT_THROW(registry.canonical_string("bba:reservoir_s=inf"), std::runtime_error);
  EXPECT_THROW(registry.canonical_string("fugu:horizon=-3"), std::runtime_error);
  EXPECT_THROW(registry.canonical_string("fugu:horizon=3.5"), std::runtime_error);
  EXPECT_THROW(registry.make("no-such-policy"), std::runtime_error);
}

// An integer key rejects a value past unsigned long long (strtoull's
// ERANGE) instead of saturating it to 2^64 - 1, and a count key (a horizon
// or a window length) rejects 0; each error names the policy and the key.
// A seed may still be 0.
TEST(PolicyRegistry, IntegerKeysRejectOverflowAndZeroCounts) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  const std::string huge = "99999999999999999999999";
  std::string message = thrown_message([&] { registry.canonical_string("pensieve:seed=" + huge); });
  EXPECT_NE(message.find("policy 'pensieve' key 'seed': expected a non-negative integer"),
            std::string::npos)
      << message;
  message = thrown_message([&] { registry.canonical_string("fugu:horizon=" + huge); });
  EXPECT_NE(message.find("policy 'fugu' key 'horizon': expected a positive integer"),
            std::string::npos)
      << message;
  EXPECT_NE(registry.canonical_string("pensieve:seed=18446744073709551615")
                .find("seed=18446744073709551615"),
            std::string::npos);

  for (const char* name : {"fugu", "sensei-fugu", "sensei-fugu-bitrate-only"}) {
    for (const char* key : {"horizon", "predictor_window"}) {
      const std::string spec = std::string(name) + ":" + key + "=0";
      message = thrown_message([&] { registry.canonical_string(spec); });
      EXPECT_NE(message.find(std::string("policy '") + name + "' key '" + key +
                             "': expected a positive integer, got \"0\""),
                std::string::npos)
          << spec << ": " << message;
    }
  }
  for (const char* spec : {"rate_based:window=0", "whittle:window=0", "fugu:horizon=00"}) {
    message = thrown_message([&] { registry.canonical_string(spec); });
    EXPECT_NE(message.find("expected a positive integer"), std::string::npos)
        << spec << ": " << message;
  }
  EXPECT_NE(registry.canonical_string("fugu:horizon=1").find("horizon=1"), std::string::npos);
  EXPECT_NE(registry.canonical_string("pensieve:seed=0").find("seed=0"), std::string::npos);
}

// DpPlanner is exact only. A non-zero dp_buffer_quantum_s, which only
// ViPlanner reads, is a typed error naming the key for planner=dp, both at
// make_planner and through a registry spec.
TEST(PolicyRegistry, MakePlannerRejectsNonZeroDpQuantum) {
  EXPECT_THROW(make_planner(PlannerKind::kDp, 0.25), std::invalid_argument);
  const std::string message = thrown_message([] { make_planner(PlannerKind::kDp, 0.25); });
  EXPECT_NE(message.find("dp_buffer_quantum_s"), std::string::npos) << message;
  EXPECT_STREQ(make_planner(PlannerKind::kDp, 0.0)->name(), "dp");
  EXPECT_STREQ(make_planner(PlannerKind::kVi, 0.25)->name(), "vi");
}

TEST(PolicyRegistry, DpSpecWithNonZeroQuantumFailsNamingTheKey) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  for (const char* spec :
       {"fugu:planner=dp,dp_buffer_quantum_s=0.25", "sensei-fugu:dp_buffer_quantum_s=1"}) {
    EXPECT_THROW(registry.make(spec), std::invalid_argument) << spec;
    const std::string message = thrown_message([&] { registry.make(spec); });
    EXPECT_NE(message.find("dp_buffer_quantum_s"), std::string::npos) << message;
  }
  // The key stays in the canonical spec at 0, so canonical strings do not
  // move, and vi still reads it.
  EXPECT_NE(registry.canonical_string("fugu").find("dp_buffer_quantum_s=0"), std::string::npos);
  EXPECT_NE(registry.make("fugu:planner=dp,dp_buffer_quantum_s=0"), nullptr);
  EXPECT_NE(registry.make("fugu:planner=vi,dp_buffer_quantum_s=0.5"), nullptr);
}

// ---- canonicalization -------------------------------------------------------

TEST(PolicyRegistry, CanonicalFormIsSortedExplicitAndAFixedPoint) {
  PolicyRegistry& registry = PolicyRegistry::instance();

  for (const std::string& name : registry.names()) {
    PolicySpec canonical = registry.canonicalize(PolicySpec::parse(name));
    // Every registered key is explicit, in sorted order.
    ASSERT_EQ(canonical.kv.size(), registry.keys(name).size()) << name;
    for (size_t i = 1; i < canonical.kv.size(); ++i) {
      EXPECT_LT(canonical.kv[i - 1].first, canonical.kv[i].first) << name;
    }
    // parse -> canonicalize -> to_string is a fixed point.
    std::string text = canonical.to_string();
    EXPECT_EQ(registry.canonical_string(text), text) << name;
    // A canonical spec canonicalizes to itself, field for field.
    EXPECT_TRUE(registry.canonicalize(canonical) == canonical) << name;
  }

  // Spelling out defaults, in any key order, lands on the bare name's form.
  const std::string bare = registry.canonical_string("bba");
  EXPECT_EQ(registry.canonical_string("bba:cushion_s=20,reservoir_s=5"), bare);
  EXPECT_EQ(registry.canonical_string("bba:reservoir_s=5,cushion_s=20"), bare);
  EXPECT_EQ(registry.canonical_string("bba:reservoir_s=5.0,cushion_s=2e1"), bare);
  EXPECT_NE(registry.canonical_string("bba:reservoir_s=6"), bare);

  // The same configuration in different key orders dedups to one string —
  // the fleet's pooling key.
  EXPECT_EQ(registry.canonical_string("fugu:horizon=5,planner=vi"),
            registry.canonical_string("fugu:planner=vi,horizon=5"));
}

TEST(PolicyRegistry, FormatSpecDoubleRoundTripsExactly) {
  for (double v : {0.0, 1.0, -0.5, 0.1, 0.3, 1.0 / 3.0, 1e-9, 12345.6789, 2e1}) {
    std::string text = format_spec_double(v);
    char* end = nullptr;
    EXPECT_EQ(std::strtod(text.c_str(), &end), v) << text;
    EXPECT_EQ(end, text.c_str() + text.size()) << text;
    // Canonical text is itself a fixed point of reformatting.
    EXPECT_EQ(format_spec_double(std::strtod(text.c_str(), nullptr)), text);
  }
}

// ---- registry == direct construction ---------------------------------------

// The concrete constructor each registered default spec must be
// bit-identical to. This is the *reference* path: config structs assigned
// by hand, no registry involvement.
std::unique_ptr<sim::AbrPolicy> direct_construct(const std::string& spec) {
  if (spec == "bba") return std::make_unique<BbaAbr>();
  if (spec == "rate_based") return std::make_unique<RateBasedAbr>();
  if (spec == "whittle") return std::make_unique<WhittleIndexAbr>();
  if (spec == "fugu") return std::make_unique<FuguAbr>();
  if (spec == "fugu:planner=vi") {
    FuguConfig cfg;
    cfg.planner = PlannerKind::kVi;
    return std::make_unique<FuguAbr>(cfg);
  }
  if (spec == "sensei-fugu") {
    FuguConfig cfg;
    cfg.use_weights = true;
    cfg.rebuffer_options = {0.0, 1.0, 2.0};
    return std::make_unique<FuguAbr>(cfg);
  }
  if (spec == "sensei-fugu-bitrate-only") {
    FuguConfig cfg;
    cfg.use_weights = true;
    return std::make_unique<FuguAbr>(cfg);
  }
  if (spec == "pensieve") return std::make_unique<PensieveAbr>(PensieveConfig(), 41);
  if (spec == "sensei-pensieve") {
    PensieveConfig cfg;
    cfg.sensei_mode = true;
    return std::make_unique<PensieveAbr>(cfg, 42);
  }
  return nullptr;
}

class RegistryIdentity : public ::testing::Test {
 protected:
  RegistryIdentity() {
    media::Encoder encoder;
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("RegA", media::Genre::kSports, 60)));
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("RegB", media::Genre::kAnimation, 80)));
    traces_.push_back(net::TraceGenerator::cellular("reg-cell", 1400, 650.0, 17));
    traces_.push_back(net::TraceGenerator::broadband("reg-isp", 3200, 500.0, 18));
    for (const auto& v : videos_) {
      std::vector<double> w(v.num_chunks(), 1.0);
      for (size_t i = 3; i < w.size(); i += 7) w[i] = 2.2;
      weights_.push_back(std::move(w));
    }
  }

  // One seeded (video x trace) grid with a fresh policy per cell.
  std::vector<sim::SessionResult> run_grid(
      const std::function<std::unique_ptr<sim::AbrPolicy>()>& make, bool use_weights,
      size_t threads) const {
    core::ExperimentRunner runner(threads);
    std::vector<sim::SessionResult> out(videos_.size() * traces_.size());
    sim::Player player;
    const std::vector<double> none;
    runner.for_each(out.size(), [&](size_t i) {
      size_t v = i / traces_.size();
      size_t t = i % traces_.size();
      auto policy = make();
      out[i] =
          player.stream(videos_[v], traces_[t], *policy, use_weights ? weights_[v] : none);
    });
    return out;
  }

  std::vector<media::EncodedVideo> videos_;
  std::vector<net::ThroughputTrace> traces_;
  std::vector<std::vector<double>> weights_;
};

TEST_F(RegistryIdentity, RegistryMatchesDirectConstructionOnSeededGrids) {
  // Every registered name at its default spec, plus a non-default planner
  // variant — each compared cell for cell against the hand-built config.
  const char* specs[] = {"bba",
                         "rate_based",
                         "whittle",
                         "fugu",
                         "fugu:planner=vi",
                         "sensei-fugu",
                         "sensei-fugu-bitrate-only",
                         "pensieve",
                         "sensei-pensieve"};
  for (const char* spec : specs) {
    const bool use_weights = std::string(spec).rfind("sensei-", 0) == 0;
    auto registry_make = [spec] { return make_policy(spec); };
    auto direct_make = [spec] { return direct_construct(spec); };
    ASSERT_NE(direct_construct(spec), nullptr) << spec;

    auto direct = run_grid(direct_make, use_weights, 1);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto registry = run_grid(registry_make, use_weights, threads);
      ASSERT_EQ(registry.size(), direct.size()) << spec;
      for (size_t i = 0; i < registry.size(); ++i) {
        EXPECT_FALSE(bench::sessions_differ(registry[i], direct[i]))
            << spec << " cell " << i << " threads " << threads;
      }
    }
  }
}

// ---- adversarial specs -------------------------------------------------------

std::vector<std::string> split_pairs(const std::string& pairs) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t comma = pairs.find(',', start);
    out.push_back(pairs.substr(start, comma == std::string::npos ? comma : comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

// One random edit of `spec`: a bit flip, an inserted byte (usually one the
// grammar or a value parser branches on), a deleted byte, a duplicated or
// swapped key=value pair, or a cut at a random byte.
void mutate_spec(std::string& spec, util::Rng& rng) {
  static const std::string kInteresting = ":,=_-.+0123456789eExpinfad ";
  const int kind = rng.uniform_int(0, 5);
  if (kind == 3 || kind == 4) {
    const size_t colon = spec.find(':');
    if (colon == std::string::npos) return;
    std::vector<std::string> pairs = split_pairs(spec.substr(colon + 1));
    const auto a = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(pairs.size()) - 1));
    const auto b = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(pairs.size()) - 1));
    if (kind == 3) {
      pairs.insert(pairs.begin() + static_cast<long>(b), pairs[a]);
    } else {
      std::swap(pairs[a], pairs[b]);
    }
    spec.resize(colon + 1);
    for (size_t i = 0; i < pairs.size(); ++i) spec += (i > 0 ? "," : "") + pairs[i];
    return;
  }
  if (kind == 1) {
    const auto pos = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(spec.size())));
    const char byte =
        rng.chance(0.8)
            ? kInteresting[static_cast<size_t>(
                  rng.uniform_int(0, static_cast<int>(kInteresting.size()) - 1))]
            : static_cast<char>(rng.uniform_int(0, 255));
    spec.insert(spec.begin() + static_cast<long>(pos), byte);
    return;
  }
  if (spec.empty()) return;
  const auto pos = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(spec.size()) - 1));
  if (kind == 0) {
    spec[pos] = static_cast<char>(spec[pos] ^ (1 << rng.uniform_int(0, 7)));
  } else if (kind == 2) {
    spec.erase(pos, 1);
  } else {
    spec.resize(pos);
  }
}

bool names_a_position(const std::string& message) {
  const size_t at = message.rfind("at position ");
  return at != std::string::npos && at + 12 < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[at + 12]));
}

// True when `message` names the spec's policy name or one of its keys.
bool names_name_or_key(const std::string& message, const PolicySpec& spec) {
  if (message.find(spec.name) != std::string::npos) return true;
  for (const auto& [key, value] : spec.kv) {
    if (message.find(key) != std::string::npos) return true;
  }
  return false;
}

// Seeded mutation fuzzing of the spec grammar, the vocabulary checks and the
// factories. Every mutant of a registered policy's canonical spec either
// canonicalizes to a fixed point that make() builds, or fails with an
// exception whose message names what is wrong: a parse error its position,
// a vocabulary or factory error the policy name or a key.
TEST(PolicySpecMutation, EveryMutantCanonicalizesOrNamesItsOffense) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  std::vector<std::string> canonical_specs;
  for (const std::string& name : registry.names()) {
    canonical_specs.push_back(registry.canonical_string(name));
  }
  size_t built = 0;
  size_t parse_errors = 0;
  size_t vocabulary_errors = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    util::Rng rng(seed);
    std::string text = canonical_specs[seed % canonical_specs.size()];
    const int edits = rng.uniform_int(1, 4);
    for (int e = 0; e < edits; ++e) mutate_spec(text, rng);

    PolicySpec parsed;
    try {
      parsed = PolicySpec::parse(text);
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(names_a_position(e.what())) << "seed " << seed << ": " << e.what();
      ++parse_errors;
      continue;
    }
    PolicySpec canonical;
    try {
      canonical = registry.canonicalize(parsed);
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(names_name_or_key(e.what(), parsed)) << "seed " << seed << ": " << e.what();
      ++vocabulary_errors;
      continue;
    }
    const std::string form = canonical.to_string();
    EXPECT_EQ(registry.canonical_string(form), form) << "seed " << seed;
    EXPECT_TRUE(registry.canonicalize(canonical) == canonical) << "seed " << seed;
    try {
      EXPECT_NE(registry.make(canonical), nullptr) << "seed " << seed;
      ++built;
    } catch (const std::exception& e) {
      EXPECT_TRUE(names_name_or_key(e.what(), parsed)) << "seed " << seed << ": " << e.what();
    }
  }
  // Every outcome occurs, so the seeds exercise each layer.
  EXPECT_GT(built, 100u);
  EXPECT_GT(parse_errors, 100u);
  EXPECT_GT(vocabulary_errors, 100u);
}

// bench_util.h's check_flags names the argument it rejects, before the
// usage text.
TEST(BenchFlagsDeathTest, UnknownFlagIsNamed) {
  char program[] = "bench";
  char smoke[] = "--smoke";
  char foo[] = "--foo";
  char* argv[] = {program, smoke, foo};
  EXPECT_EXIT(bench::check_flags(3, argv, {"--out"}, {"--smoke"}, "bench [--smoke] [--out FILE]"),
              ::testing::ExitedWithCode(2), "error: unknown flag '--foo'");
}

}  // namespace
}  // namespace sensei::abr
