// Minimal command-line flag parsing for examples and benchmark harnesses.
// Supports --name=value, --name value, boolean --name / --no-name, and a
// bare "--" separator after which everything is positional. Repeating a
// flag is an error (caught at parse time).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gtrix {

class Flags {
 public:
  /// Parses argv; unknown positional arguments are collected separately.
  /// Throws std::invalid_argument on malformed input (e.g. "--=x") and on
  /// duplicate flags ("--k=1 --k=2").
  ///
  /// `boolean_flags` names flags that never take a value: "--dry-run x"
  /// leaves x positional instead of binding it as the flag's value
  /// (without the declaration, "--name value" binds greedily).
  Flags(int argc, const char* const* argv,
        std::initializer_list<std::string_view> boolean_flags = {});

  bool has(std::string_view name) const;

  std::string get_string(std::string_view name, std::string def) const;
  std::int64_t get_int(std::string_view name, std::int64_t def) const;
  double get_double(std::string_view name, double def) const;
  bool get_bool(std::string_view name, bool def) const;
  std::uint64_t get_u64(std::string_view name, std::uint64_t def) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }
  const std::string& program() const noexcept { return program_; }

  /// All flag names that were passed, sorted; lets CLIs reject typos
  /// ("--thread=1") instead of silently falling back to defaults.
  std::vector<std::string> names() const;

 private:
  std::optional<std::string> raw(std::string_view name) const;

  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// Builder for --help output; collects flag/positional descriptions and
/// renders them as an aligned usage block:
///
///   Usage usage("gtrix_campaign", "Run scenario campaigns.");
///   usage.positional("SCENARIO", "scenario file or built-in name");
///   usage.flag("--threads=N", "worker threads (0 = all cores)");
///   std::fputs(usage.str().c_str(), stdout);
class Usage {
 public:
  Usage(std::string program, std::string summary);

  Usage& positional(std::string name, std::string help);
  Usage& flag(std::string spec, std::string help);

  /// The formatted usage text (trailing newline included).
  std::string str() const;

  /// Bare names of the declared flags ("--threads=N" -> "threads"), letting
  /// a CLI validate Flags::names() against the exact set --help documents.
  std::vector<std::string> flag_names() const;

 private:
  struct Entry {
    std::string spec;
    std::string help;
  };

  std::string program_;
  std::string summary_;
  std::vector<Entry> positionals_;
  std::vector<Entry> flags_;
};

}  // namespace gtrix
