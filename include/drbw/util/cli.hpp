// Command-line parsing for example binaries and bench harnesses.
//
// The harnesses are run without arguments in CI (`for b in build/bench/*; do
// $b; done`), so every option has a default; flags exist to redirect CSV
// artifacts, change seeds, or shrink workloads for smoke runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw {

/// Thrown for malformed *user input* on the command line (unknown option,
/// missing value, non-numeric argument) as opposed to programmer errors.
/// Drivers catch it separately to exit with a distinct usage status.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what)
      : Error(what, ErrorCode::kUsage) {}
};

/// Declarative option registry + parser for `--name value` / `--name=value`
/// / `--flag` style arguments, plus optional positional arguments.  Unknown
/// options are an error; `--help` prints usage and signals the caller to
/// exit.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  ArgParser& add_flag(const std::string& name, const std::string& help);
  ArgParser& add_option(const std::string& name, const std::string& help,
                        const std::string& default_value);
  /// Accepts between `min` and `max` positional (non-`--`) arguments,
  /// collected in order; `name` labels them in usage and errors.  Without
  /// this call any positional argument is an error.
  ArgParser& add_positionals(const std::string& name, const std::string& help,
                             std::size_t min, std::size_t max);

  /// Parses argv.  Returns false when `--help` was requested (usage has been
  /// printed); throws drbw::Error on malformed input.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;
  double option_double(const std::string& name) const;
  const std::vector<std::string>& positionals() const { return positionals_; }

  std::string usage() const;

  /// Every declared option with its resolved (parsed-or-default) value and
  /// every flag as "true"/"false", sorted by name — the run manifest records
  /// this as the run's effective configuration.
  std::vector<std::pair<std::string, std::string>> resolved_options() const;

 private:
  struct Spec {
    std::string help;
    bool is_flag = false;
    std::string default_value;
  };

  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Spec>> specs_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
  std::string positional_name_;
  std::string positional_help_;
  std::size_t positional_min_ = 0;
  std::size_t positional_max_ = 0;
  std::vector<std::string> positionals_;

  const Spec* find_spec(const std::string& name) const;
};

}  // namespace drbw
