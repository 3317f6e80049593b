#include "support/flags.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace gtrix {

namespace {

bool parse_bool_value(std::string_view name, const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("invalid boolean value for --" + std::string(name) +
                              ": '" + v + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             std::initializer_list<std::string_view> boolean_flags) {
  if (argc > 0) program_ = argv[0];
  const auto is_boolean = [&boolean_flags](std::string_view name) {
    for (const std::string_view b : boolean_flags) {
      if (b == name) return true;
    }
    return false;
  };
  const auto set = [this](std::string name, std::string value) {
    if (values_.contains(name)) {
      throw std::invalid_argument("duplicate flag --" + name);
    }
    values_[std::move(name)] = std::move(value);
  };
  bool flags_ended = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (flags_ended || !arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      // "--" separator: everything after is positional, even "--like-this".
      flags_ended = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      std::string name(arg.substr(0, eq));
      if (name.empty()) throw std::invalid_argument("flag with empty name");
      set(std::move(name), std::string(arg.substr(eq + 1)));
      continue;
    }
    // --no-foo form for booleans.
    if (arg.starts_with("no-")) {
      set(std::string(arg.substr(3)), "false");
      continue;
    }
    // --name value, or bare boolean --name.
    if (!is_boolean(arg) && i + 1 < argc &&
        std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      set(std::string(arg), argv[++i]);
    } else {
      set(std::string(arg), "true");
    }
  }
}

std::optional<std::string> Flags::raw(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::has(std::string_view name) const { return values_.contains(name); }

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

std::string Flags::get_string(std::string_view name, std::string def) const {
  return raw(name).value_or(std::move(def));
}

namespace {

// Parses the full token or throws naming the flag: "--threads=4x" must be
// rejected, not truncated to 4 the way std::stoll would.
template <typename T>
T parse_number(std::string_view name, const std::string& v) {
  T value{};
  const auto res = std::from_chars(v.data(), v.data() + v.size(), value);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size()) {
    throw std::invalid_argument("invalid numeric value for --" + std::string(name) +
                                ": '" + v + "'");
  }
  return value;
}

}  // namespace

std::int64_t Flags::get_int(std::string_view name, std::int64_t def) const {
  const auto v = raw(name);
  if (!v) return def;
  return parse_number<std::int64_t>(name, *v);
}

std::uint64_t Flags::get_u64(std::string_view name, std::uint64_t def) const {
  const auto v = raw(name);
  if (!v) return def;
  return parse_number<std::uint64_t>(name, *v);
}

double Flags::get_double(std::string_view name, double def) const {
  const auto v = raw(name);
  if (!v) return def;
  return parse_number<double>(name, *v);
}

bool Flags::get_bool(std::string_view name, bool def) const {
  const auto v = raw(name);
  if (!v) return def;
  return parse_bool_value(name, *v);
}

Usage::Usage(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Usage& Usage::positional(std::string name, std::string help) {
  positionals_.push_back({std::move(name), std::move(help)});
  return *this;
}

Usage& Usage::flag(std::string spec, std::string help) {
  flags_.push_back({std::move(spec), std::move(help)});
  return *this;
}

std::vector<std::string> Usage::flag_names() const {
  std::vector<std::string> out;
  out.reserve(flags_.size());
  for (const Entry& e : flags_) {
    std::string_view spec = e.spec;
    if (spec.starts_with("--")) spec.remove_prefix(2);
    out.emplace_back(spec.substr(0, spec.find('=')));
  }
  return out;
}

std::string Usage::str() const {
  std::size_t width = 0;
  for (const Entry& e : positionals_) width = std::max(width, e.spec.size());
  for (const Entry& e : flags_) width = std::max(width, e.spec.size());

  std::string out = "usage: " + program_;
  if (!flags_.empty()) out += " [flags]";
  for (const Entry& e : positionals_) out += " [" + e.spec + "...]";
  out += "\n\n  " + summary_ + "\n";
  const auto section = [&](const char* title, const std::vector<Entry>& entries) {
    if (entries.empty()) return;
    out += "\n";
    out += title;
    out += ":\n";
    for (const Entry& e : entries) {
      out += "  " + e.spec + std::string(width - e.spec.size() + 2, ' ') + e.help + "\n";
    }
  };
  section("arguments", positionals_);
  section("flags", flags_);
  return out;
}

}  // namespace gtrix
