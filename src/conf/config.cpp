#include "conf/config.h"
#include "common/format.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>

namespace saex::conf {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// The whole of `text` as a number, or nullopt.
std::optional<double> to_number(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

double parse_number(std::string_view text, std::string_view what) {
  const std::optional<double> value = to_number(text);
  if (!value) {
    throw ConfigError(saex::strfmt::format("cannot parse {} from '{}'", what, text));
  }
  return *value;
}

// Splits "<number><suffix>" into parts; suffix may be empty. A bad number
// is reported against the whole value (its numeric prefix may be empty).
std::pair<double, std::string> split_suffixed(std::string_view text,
                                              std::string_view what) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '-' || text[i] == '+')) {
    ++i;
  }
  const std::optional<double> num = to_number(text.substr(0, i));
  if (!num) {
    throw ConfigError(saex::strfmt::format("cannot parse {} from '{}'", what, text));
  }
  return {*num, to_lower(text.substr(i))};
}

}  // namespace

std::string_view category_name(Category c) noexcept {
  switch (c) {
    case Category::kShuffle: return "Shuffle";
    case Category::kCompressionSerialization: return "Compression and Serialization";
    case Category::kMemoryManagement: return "Memory Management";
    case Category::kExecutionBehavior: return "Execution Behavior";
    case Category::kNetwork: return "Network";
    case Category::kScheduling: return "Scheduling";
    case Category::kDynamicAllocation: return "Dynamic Allocation";
    case Category::kAdaptiveExtension: return "Adaptive Executors (saex extension)";
  }
  return "?";
}

void Registry::define(ParamDef def) {
  auto [it, inserted] = defs_.emplace(def.key, def);
  if (!inserted) throw ConfigError(saex::strfmt::format("duplicate parameter '{}'", def.key));
}

const ParamDef* Registry::find(std::string_view key) const noexcept {
  const auto it = defs_.find(key);
  return it == defs_.end() ? nullptr : &it->second;
}

const ParamDef& Registry::at(std::string_view key) const {
  const ParamDef* def = find(key);
  if (def == nullptr) throw ConfigError(saex::strfmt::format("unknown parameter '{}'", key));
  return *def;
}

std::vector<const ParamDef*> Registry::by_category(Category c) const {
  std::vector<const ParamDef*> out;
  for (const auto& [key, def] : defs_) {
    if (def.category == c) out.push_back(&def);
  }
  return out;
}

size_t Registry::count(Category c) const noexcept {
  size_t n = 0;
  for (const auto& [key, def] : defs_) n += def.category == c ? 1 : 0;
  return n;
}

size_t Registry::functional_count() const noexcept {
  return total_count() - count(Category::kAdaptiveExtension);
}

Bytes parse_bytes(std::string_view text) {
  const auto [num, suffix] = split_suffixed(text, "bytes");
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "k" || suffix == "kb") {
    mult = 1024.0;
  } else if (suffix == "m" || suffix == "mb") {
    mult = 1024.0 * 1024.0;
  } else if (suffix == "g" || suffix == "gb") {
    mult = 1024.0 * 1024.0 * 1024.0;
  } else if (suffix == "t" || suffix == "tb") {
    mult = 1024.0 * 1024.0 * 1024.0 * 1024.0;
  } else {
    throw ConfigError(saex::strfmt::format("unknown byte suffix in '{}'", text));
  }
  return static_cast<Bytes>(num * mult);
}

double parse_duration_seconds(std::string_view text) {
  const auto [num, suffix] = split_suffixed(text, "duration");
  if (suffix.empty() || suffix == "s") return num;
  if (suffix == "ms") return num / 1000.0;
  if (suffix == "us") return num / 1e6;
  if (suffix == "min" || suffix == "m") return num * 60.0;
  if (suffix == "h") return num * 3600.0;
  if (suffix == "d") return num * 86400.0;
  throw ConfigError(saex::strfmt::format("unknown duration suffix in '{}'", text));
}

bool parse_bool(std::string_view text) {
  const std::string t = to_lower(text);
  if (t == "true" || t == "1" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "0" || t == "no" || t == "off") return false;
  throw ConfigError(saex::strfmt::format("cannot parse bool from '{}'", text));
}

Config::Config() : registry_(&spark_registry()) {}
Config::Config(const Registry* registry) : registry_(registry) {}

Config& Config::set(std::string_view key, std::string_view value) {
  const ParamDef& def = registry_->at(key);
  // Validate eagerly so misconfigurations fail at set() time, not mid-run.
  switch (def.type) {
    case ValueType::kBool: parse_bool(value); break;
    case ValueType::kInt: parse_number(value, "int"); break;
    case ValueType::kDouble: parse_number(value, "double"); break;
    case ValueType::kBytes: parse_bytes(value); break;
    case ValueType::kDurationSeconds: parse_duration_seconds(value); break;
    case ValueType::kString: break;
  }
  overrides_.insert_or_assign(std::string(key), std::string(value));
  return *this;
}

Config& Config::set_int(std::string_view key, int64_t value) {
  return set(key, saex::strfmt::format("{}", value));
}
Config& Config::set_bool(std::string_view key, bool value) {
  return set(key, value ? "true" : "false");
}
Config& Config::set_double(std::string_view key, double value) {
  return set(key, saex::strfmt::format("{}", value));
}

bool Config::is_set(std::string_view key) const noexcept {
  return overrides_.find(key) != overrides_.end();
}

std::string Config::raw(std::string_view key) const {
  const auto it = overrides_.find(key);
  if (it != overrides_.end()) return it->second;
  return registry_->at(key).default_value;
}

std::string Config::get_string(std::string_view key) const { return raw(key); }

int64_t Config::get_int(std::string_view key) const {
  return static_cast<int64_t>(parse_number(raw(key), "int"));
}

double Config::get_double(std::string_view key) const {
  return parse_number(raw(key), "double");
}

bool Config::get_bool(std::string_view key) const { return parse_bool(raw(key)); }

Bytes Config::get_bytes(std::string_view key) const { return parse_bytes(raw(key)); }

double Config::get_duration_seconds(std::string_view key) const {
  return parse_duration_seconds(raw(key));
}

}  // namespace saex::conf
