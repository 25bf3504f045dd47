#include "abr/registry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <stdexcept>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/pensieve.h"
#include "abr/rate_based.h"
#include "abr/whittle.h"

namespace sensei::abr {

namespace {

bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '-';
}
bool is_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

// `text` with every byte outside printable ASCII written as \xNN, so an
// error message that echoes user input keeps its tail: what() is a C
// string, and an embedded NUL would cut off the position that follows.
std::string printable(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

[[noreturn]] void spec_error(const std::string& text, size_t pos, const std::string& what) {
  throw std::runtime_error("policy spec \"" + printable(text) + "\": " + what +
                           " at position " + std::to_string(pos));
}

// Full-consumption finite strtod; false on trailing garbage / empty / inf/nan.
bool parse_finite_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_size(const std::string& text, size_t& out) {
  if (text.empty()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  out = static_cast<size_t>(v);
  return true;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ", ";
    out += parts[i];
  }
  return out;
}

// --- canonical-spec accessors (keys are guaranteed present/valid) ----------

const std::string& spec_value(const PolicySpec& spec, const char* key) {
  const std::string* v = spec.find(key);
  if (!v) {
    throw std::logic_error("canonical spec for '" + spec.name + "' is missing key '" + key + "'");
  }
  return *v;
}

double spec_double(const PolicySpec& spec, const char* key) {
  double v = 0.0;
  parse_finite_double(spec_value(spec, key), v);
  return v;
}

size_t spec_size(const PolicySpec& spec, const char* key) {
  size_t v = 0;
  parse_size(spec_value(spec, key), v);
  return v;
}

qoe::ChunkQualityParams chunk_params_from(const PolicySpec& spec) {
  qoe::ChunkQualityParams p;
  p.beta_rebuf = spec_double(spec, "beta_rebuf");
  p.rebuf_saturation = spec_double(spec, "rebuf_saturation");
  p.beta_switch = spec_double(spec, "beta_switch");
  p.floor = spec_double(spec, "floor");
  return p;
}

PlannerKind planner_from(const PolicySpec& spec) {
  const std::string& v = spec_value(spec, "planner");
  return v == "dp" ? PlannerKind::kDp : PlannerKind::kVi;
}

using KeyInfo = PolicyRegistry::KeyInfo;
using KeyType = PolicyRegistry::KeyType;

// The shared ChunkQualityParams surface (qoe/chunk_quality.h defaults).
std::vector<KeyInfo> chunk_keys() {
  return {
      {"beta_rebuf", KeyType::kDouble, "1.1", {}},
      {"rebuf_saturation", KeyType::kDouble, "0.3", {}},
      {"beta_switch", KeyType::kDouble, "0.4", {}},
      {"floor", KeyType::kDouble, "-0.5", {}},
  };
}

// A fugu variant lists only the keys that change its behaviour:
// weight_shrinkage needs weights, rebuffer_margin needs a stall option.
std::vector<KeyInfo> fugu_keys(bool use_weights, bool stall_options) {
  std::vector<KeyInfo> keys = chunk_keys();
  keys.push_back({"planner", KeyType::kEnum, "dp", {"dp", "vi"}});
  keys.push_back({"horizon", KeyType::kCount, "5", {}});
  keys.push_back({"predictor_window", KeyType::kCount, "8", {}});
  if (stall_options) keys.push_back({"rebuffer_margin", KeyType::kDouble, "0.35", {}});
  if (use_weights) keys.push_back({"weight_shrinkage", KeyType::kDouble, "0.8", {}});
  return keys;
}

std::vector<KeyInfo> pensieve_keys(const char* default_seed) {
  std::vector<KeyInfo> keys = chunk_keys();
  keys.push_back({"seed", KeyType::kSize, default_seed, {}});
  return keys;
}

// One fugu variant: the name fixes use_weights and the scheduled-
// rebuffering action set (§5.2), the spec keys fix everything else; a key
// the variant does not list keeps its FuguConfig default, which it never
// reads. Field-for-field identical to direct FuguConfig construction — the
// bit-identity contract.
void register_fugu(PolicyRegistry& registry, const std::string& name, bool use_weights,
                   std::vector<double> rebuffer_options) {
  const bool stall_options = rebuffer_options.size() > 1;
  registry.register_policy(
      name, fugu_keys(use_weights, stall_options),
      [use_weights, stall_options, rebuffer_options](const PolicySpec& spec) {
        FuguConfig cfg;
        cfg.horizon = spec_size(spec, "horizon");
        cfg.predictor_window = spec_size(spec, "predictor_window");
        cfg.chunk = chunk_params_from(spec);
        cfg.use_weights = use_weights;
        if (use_weights) cfg.weight_shrinkage = spec_double(spec, "weight_shrinkage");
        cfg.rebuffer_options = rebuffer_options;
        if (stall_options) cfg.rebuffer_margin = spec_double(spec, "rebuffer_margin");
        cfg.planner = planner_from(spec);
        return std::unique_ptr<sim::AbrPolicy>(std::make_unique<FuguAbr>(cfg));
      });
}

PolicyRegistry::Factory pensieve_factory(bool sensei_mode) {
  return [sensei_mode](const PolicySpec& spec) {
    PensieveConfig cfg;
    cfg.sensei_mode = sensei_mode;
    cfg.chunk = chunk_params_from(spec);
    return std::unique_ptr<sim::AbrPolicy>(
        std::make_unique<PensieveAbr>(cfg, static_cast<uint64_t>(spec_size(spec, "seed"))));
  };
}

}  // namespace

// --- PolicySpec ------------------------------------------------------------

PolicySpec PolicySpec::parse(const std::string& text) {
  PolicySpec spec;
  size_t colon = text.find(':');
  size_t name_end = colon == std::string::npos ? text.size() : colon;
  if (name_end == 0) spec_error(text, 0, "empty policy name");
  for (size_t i = 0; i < name_end; ++i) {
    if (!is_name_char(text[i])) {
      spec_error(text, i,
                 "invalid character '" + printable(text.substr(i, 1)) + "' in policy name");
    }
  }
  spec.name = text.substr(0, name_end);
  if (colon == std::string::npos) return spec;

  size_t pos = colon + 1;
  while (true) {
    size_t comma = text.find(',', pos);
    size_t pair_end = comma == std::string::npos ? text.size() : comma;
    if (pair_end == pos) spec_error(text, pos, "empty key=value pair");
    size_t eq = text.find('=', pos);
    if (eq == std::string::npos || eq >= pair_end) {
      spec_error(text, pos, "missing '=' in key=value pair");
    }
    if (eq == pos) spec_error(text, pos, "empty key");
    for (size_t i = pos; i < eq; ++i) {
      if (!is_key_char(text[i])) {
        spec_error(text, i, "invalid character '" + printable(text.substr(i, 1)) + "' in key");
      }
    }
    std::string key = text.substr(pos, eq - pos);
    if (eq + 1 == pair_end) spec_error(text, eq + 1, "empty value for key '" + key + "'");
    std::string value = text.substr(eq + 1, pair_end - eq - 1);
    if (spec.find(key) != nullptr) spec_error(text, pos, "duplicate key '" + key + "'");
    spec.kv.emplace_back(std::move(key), std::move(value));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return spec;
}

std::string PolicySpec::to_string() const {
  std::string out = name;
  for (size_t i = 0; i < kv.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += kv[i].first;
    out += '=';
    out += kv[i].second;
  }
  return out;
}

const std::string* PolicySpec::find(const std::string& key) const {
  for (const auto& [k, v] : kv) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- PolicyRegistry --------------------------------------------------------

PolicyRegistry& PolicyRegistry::instance() {
  // Built fully inside the constructor and only read afterwards, so the
  // magic-static initialization is the synchronization point.
  static PolicyRegistry registry;
  return registry;
}

PolicyRegistry::PolicyRegistry() {
  register_policy("bba",
                  {{"reservoir_s", KeyType::kDouble, "5", {}},
                   {"cushion_s", KeyType::kDouble, "20", {}}},
                  [](const PolicySpec& spec) {
                    BbaConfig cfg;
                    cfg.reservoir_s = spec_double(spec, "reservoir_s");
                    cfg.cushion_s = spec_double(spec, "cushion_s");
                    return std::unique_ptr<sim::AbrPolicy>(std::make_unique<BbaAbr>(cfg));
                  });
  register_policy("rate_based",
                  {{"safety", KeyType::kDouble, "0.85", {}},
                   {"window", KeyType::kCount, "5", {}}},
                  [](const PolicySpec& spec) {
                    RateBasedConfig cfg;
                    cfg.safety = spec_double(spec, "safety");
                    cfg.window = spec_size(spec, "window");
                    return std::unique_ptr<sim::AbrPolicy>(std::make_unique<RateBasedAbr>(cfg));
                  });
  register_policy("whittle",
                  [] {
                    std::vector<KeyInfo> keys = chunk_keys();
                    keys.push_back({"safety", KeyType::kDouble, "0.9", {}});
                    keys.push_back({"window", KeyType::kCount, "8", {}});
                    keys.push_back({"headroom", KeyType::kDouble, "0.5", {}});
                    keys.push_back({"drain_penalty", KeyType::kDouble, "0.6", {}});
                    return keys;
                  }(),
                  [](const PolicySpec& spec) {
                    WhittleConfig cfg;
                    cfg.safety = spec_double(spec, "safety");
                    cfg.window = spec_size(spec, "window");
                    cfg.headroom = spec_double(spec, "headroom");
                    cfg.drain_penalty = spec_double(spec, "drain_penalty");
                    cfg.chunk = chunk_params_from(spec);
                    return std::unique_ptr<sim::AbrPolicy>(
                        std::make_unique<WhittleIndexAbr>(cfg));
                  });
  // The fugu family: one FuguAbr, three names. The name fixes the SENSEI
  // delta (weighted objective, scheduled-rebuffering options); see
  // core/sensei.h.
  register_fugu(*this, "fugu", false, {0.0});
  register_fugu(*this, "sensei-fugu", true, {0.0, 1.0, 2.0});
  register_fugu(*this, "sensei-fugu-bitrate-only", true, {0.0});
  // Registry-built Pensieve nets are freshly initialized from the seed, NOT
  // trained. Experiments::policy_factory overlays its cached trained
  // instances for the "pensieve"/"sensei-pensieve" names.
  register_policy("pensieve", pensieve_keys("41"), pensieve_factory(false));
  register_policy("sensei-pensieve", pensieve_keys("42"), pensieve_factory(true));
}

void PolicyRegistry::register_policy(const std::string& name, std::vector<KeyInfo> keys,
                                     Factory factory) {
  if (name.empty()) throw std::invalid_argument("register_policy: empty name");
  for (char c : name) {
    if (!is_name_char(c)) {
      throw std::invalid_argument("register_policy: invalid policy name '" + name + "'");
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const KeyInfo& a, const KeyInfo& b) { return a.key < b.key; });
  for (size_t i = 0; i < keys.size(); ++i) {
    const KeyInfo& info = keys[i];
    if (i > 0 && keys[i - 1].key == info.key) {
      throw std::invalid_argument("register_policy: duplicate key '" + info.key + "' for '" +
                                  name + "'");
    }
    for (char c : info.key) {
      if (!is_key_char(c)) {
        throw std::invalid_argument("register_policy: invalid key '" + info.key + "' for '" +
                                    name + "'");
      }
    }
    // Defaults must pass their own type check (and, for doubles, be in
    // canonical text form) so canonicalize() can splice them in verbatim.
    double d = 0.0;
    size_t s = 0;
    bool ok = false;
    switch (info.type) {
      case KeyType::kDouble:
        ok = parse_finite_double(info.default_value, d) && format_spec_double(d) == info.default_value;
        break;
      case KeyType::kSize:
      case KeyType::kCount:
        ok = parse_size(info.default_value, s) && std::to_string(s) == info.default_value &&
             (info.type == KeyType::kSize || s > 0);
        break;
      case KeyType::kEnum:
        ok = std::find(info.enum_values.begin(), info.enum_values.end(), info.default_value) !=
             info.enum_values.end();
        break;
    }
    if (!ok) {
      throw std::invalid_argument("register_policy: non-canonical default \"" +
                                  info.default_value + "\" for key '" + info.key + "' of '" +
                                  name + "'");
    }
  }
  entries_[name] = Entry{std::move(keys), std::move(factory)};
}

bool PolicyRegistry::has(const std::string& name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

const std::vector<PolicyRegistry::KeyInfo>& PolicyRegistry::keys(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::runtime_error("unknown policy name '" + name + "'; registered: " + join(names()));
  }
  return it->second.keys;
}

PolicySpec PolicyRegistry::canonicalize(const PolicySpec& spec) const {
  auto it = entries_.find(spec.name);
  if (it == entries_.end()) {
    throw std::runtime_error("unknown policy name '" + spec.name +
                             "'; registered: " + join(names()));
  }
  const Entry& entry = it->second;

  // Validate and canonically reformat every provided value.
  std::vector<std::pair<std::string, std::string>> provided;
  provided.reserve(spec.kv.size());
  for (const auto& [key, value] : spec.kv) {
    const KeyInfo* info = nullptr;
    for (const KeyInfo& k : entry.keys) {
      if (k.key == key) {
        info = &k;
        break;
      }
    }
    if (!info) {
      std::vector<std::string> known;
      for (const KeyInfo& k : entry.keys) known.push_back(k.key);
      throw std::runtime_error("policy '" + spec.name + "' has no key '" + key +
                               "'; keys: " + join(known));
    }
    for (const auto& [seen_key, seen_value] : provided) {
      if (seen_key == key) {
        throw std::runtime_error("policy '" + spec.name + "': duplicate key '" + key + "'");
      }
    }
    std::string canonical_value;
    switch (info->type) {
      case KeyType::kDouble: {
        double v = 0.0;
        if (!parse_finite_double(value, v)) {
          throw std::runtime_error("policy '" + spec.name + "' key '" + key +
                                   "': expected a finite number, got \"" + printable(value) +
                                   "\"");
        }
        canonical_value = format_spec_double(v);
        break;
      }
      case KeyType::kSize:
      case KeyType::kCount: {
        const bool count = info->type == KeyType::kCount;
        size_t v = 0;
        if (!parse_size(value, v) || (count && v == 0)) {
          throw std::runtime_error("policy '" + spec.name + "' key '" + key + "': expected a " +
                                   (count ? "positive" : "non-negative") +
                                   " integer, got \"" + printable(value) + "\"");
        }
        canonical_value = std::to_string(v);
        break;
      }
      case KeyType::kEnum: {
        if (std::find(info->enum_values.begin(), info->enum_values.end(), value) ==
            info->enum_values.end()) {
          throw std::runtime_error("policy '" + spec.name + "' key '" + key + "': \"" +
                                   printable(value) + "\" is not one of " +
                                   join(info->enum_values));
        }
        canonical_value = value;
        break;
      }
    }
    provided.emplace_back(key, std::move(canonical_value));
  }

  // Canonical form: every registered key, in sorted order (entry.keys is
  // sorted at registration), defaults made explicit.
  PolicySpec canonical;
  canonical.name = spec.name;
  canonical.kv.reserve(entry.keys.size());
  for (const KeyInfo& info : entry.keys) {
    const std::string* value = nullptr;
    for (const auto& [key, v] : provided) {
      if (key == info.key) {
        value = &v;
        break;
      }
    }
    canonical.kv.emplace_back(info.key, value ? *value : info.default_value);
  }
  return canonical;
}

std::string PolicyRegistry::canonical_string(const std::string& spec_text) const {
  return canonicalize(PolicySpec::parse(spec_text)).to_string();
}

std::unique_ptr<sim::AbrPolicy> PolicyRegistry::make(const PolicySpec& spec) const {
  PolicySpec canonical = canonicalize(spec);
  return entries_.at(canonical.name).factory(canonical);
}

std::unique_ptr<sim::AbrPolicy> PolicyRegistry::make(const std::string& spec_text) const {
  return make(PolicySpec::parse(spec_text));
}

std::unique_ptr<sim::AbrPolicy> make_policy(const std::string& spec_text) {
  return PolicyRegistry::instance().make(spec_text);
}

std::string format_spec_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  if (std::strtod(buf, nullptr) == value) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace sensei::abr
