// Config-driven ABR policy construction: one registry mapping a policy name
// plus typed key/value options to a factory, in the shape of Puffer's
// `ABRAlgo(name, config)` constructors — so benches, the fleet simulator,
// and scenario grids are driven by spec *strings* instead of recompiled
// factory lambdas.
//
// Spec grammar (one line):
//   spec  := name [":" pair ("," pair)*]
//   pair  := key "=" value
//   name  := [a-z0-9_-]+        key := [a-z0-9_]+       value := [^,]+
//
//   "bba"                        "fugu:planner=vi"
//   "fugu:planner=dp,horizon=5"  "whittle:safety=0.85"
//
// Parsing is strict: an empty name/key/value, a missing '=', a stray
// separator, or a duplicate key fails with the offending position in the
// message; an unknown name, unknown key, or malformed/out-of-vocabulary
// value fails naming the policy, the key, and the accepted alternatives.
//
// Canonicalization. `canonicalize()` validates a spec against the
// registered key table and returns the *canonical* form: every key present
// (defaults made explicit), keys sorted, numeric values reformatted to a
// fixed round-trip-exact text. Canonical specs are therefore equality
// comparable — two specs denote the same policy configuration iff their
// canonical strings match — which is what the fleet keys its policy pools
// on and what makes `parse(to_string(s))` a fixed point.
//
// Bit-identity. A registry factory assigns exactly the fields a direct
// config-struct construction assigns, and canonical value texts parse back
// to the exact default doubles, so a registry-built policy is bit-identical
// in behavior to a directly constructed one (gated across every registered
// name by tests/test_registry.cpp on seeded session grids).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/player.h"

namespace sensei::abr {

// A parsed policy spec: a registered name plus key/value options. `kv`
// order is the textual order after parse() and sorted-key order after
// PolicyRegistry::canonicalize().
struct PolicySpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kv;

  // Strict parse of the grammar above; throws std::runtime_error with the
  // character position of the first offense. Purely syntactic — name/key/
  // value vocabulary is checked by PolicyRegistry::canonicalize().
  static PolicySpec parse(const std::string& text);

  // The textual form, in the current kv order ("name" or "name:k=v,...").
  std::string to_string() const;

  // Value of `key`, or nullptr when absent.
  const std::string* find(const std::string& key) const;

  bool operator==(const PolicySpec& other) const {
    return name == other.name && kv == other.kv;
  }
};

class PolicyRegistry {
 public:
  enum class KeyType {
    kDouble,  // strtod, full consumption, finite
    kSize,    // non-negative integer
    kCount,   // positive integer (a horizon or a window length)
    kEnum,    // one of KeyInfo::enum_values
  };

  struct KeyInfo {
    std::string key;
    KeyType type = KeyType::kDouble;
    std::string default_value;               // canonical text of the default
    std::vector<std::string> enum_values;    // kEnum only
  };

  // Receives the *canonical* spec (every key present and validated).
  using Factory = std::function<std::unique_ptr<sim::AbrPolicy>(const PolicySpec&)>;

  // The process-wide registry, with every shipped policy registered.
  static PolicyRegistry& instance();

  // Registers (or replaces) a policy. Key defaults must themselves pass the
  // key's type check; throws otherwise.
  void register_policy(const std::string& name, std::vector<KeyInfo> keys, Factory factory);

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;
  const std::vector<KeyInfo>& keys(const std::string& name) const;

  // Validates `spec` and returns the canonical form: defaults made
  // explicit, keys sorted, values reformatted. Throws on unknown name,
  // unknown key, or malformed value.
  PolicySpec canonicalize(const PolicySpec& spec) const;
  // parse + canonicalize + to_string: the pooling/dedup key for a spec text.
  std::string canonical_string(const std::string& spec_text) const;

  // Builds the policy a (canonicalized) spec denotes.
  std::unique_ptr<sim::AbrPolicy> make(const PolicySpec& spec) const;
  std::unique_ptr<sim::AbrPolicy> make(const std::string& spec_text) const;

 private:
  PolicyRegistry();  // registers the built-in policies

  struct Entry {
    std::vector<KeyInfo> keys;  // sorted by key
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

// Shorthand for PolicyRegistry::instance().make(spec_text).
std::unique_ptr<sim::AbrPolicy> make_policy(const std::string& spec_text);

// Canonical text of a double for spec values: the shortest printf form that
// strtod's back to the exact same bits ("%g", widening to "%.17g" when %g
// loses precision). Used by canonicalize(), and by any caller that writes a
// spec text from a config struct.
std::string format_spec_double(double value);

}  // namespace sensei::abr
