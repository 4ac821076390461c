#include "drbw/util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "drbw/util/error.hpp"
#include "drbw/util/strings.hpp"

namespace drbw {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help) {
  DRBW_CHECK_MSG(find_spec(name) == nullptr, "duplicate option --" << name);
  specs_.emplace_back(name, Spec{help, true, ""});
  flags_[name] = false;
  return *this;
}

ArgParser& ArgParser::add_option(const std::string& name, const std::string& help,
                                 const std::string& default_value) {
  DRBW_CHECK_MSG(find_spec(name) == nullptr, "duplicate option --" << name);
  specs_.emplace_back(name, Spec{help, false, default_value});
  values_[name] = default_value;
  return *this;
}

ArgParser& ArgParser::add_positionals(const std::string& name,
                                      const std::string& help, std::size_t min,
                                      std::size_t max) {
  DRBW_CHECK_MSG(min <= max, "positional range " << min << ".." << max);
  positional_name_ = name;
  positional_help_ = help;
  positional_min_ = min;
  positional_max_ = max;
  return *this;
}

const ArgParser::Spec* ArgParser::find_spec(const std::string& name) const {
  for (const auto& [n, spec] : specs_) {
    if (n == name) return &spec;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (!starts_with(arg, "--")) {
      if (positionals_.size() >= positional_max_) {
        throw UsageError(
            positional_max_ == 0
                ? "unexpected positional argument '" + arg + "'"
                : program_ + " takes at most " +
                      std::to_string(positional_max_) + " <" +
                      positional_name_ + ">, got '" + arg + "'");
      }
      positionals_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const Spec* spec = find_spec(name);
    if (spec == nullptr) throw UsageError("unknown option --" + name);
    if (spec->is_flag) {
      if (has_inline) throw UsageError("flag --" + name + " takes no value");
      flags_[name] = true;
    } else if (has_inline) {
      values_[name] = inline_value;
    } else {
      if (i + 1 >= argc) throw UsageError("option --" + name + " expects a value");
      values_[name] = argv[++i];
    }
  }
  if (positionals_.size() < positional_min_) {
    throw UsageError(program_ + " expects at least " +
                     std::to_string(positional_min_) + " <" +
                     positional_name_ + "> (see --help)");
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  DRBW_CHECK_MSG(it != flags_.end(), "flag --" << name << " not declared");
  return it->second;
}

const std::string& ArgParser::option(const std::string& name) const {
  const auto it = values_.find(name);
  DRBW_CHECK_MSG(it != values_.end(), "option --" << name << " not declared");
  return it->second;
}

std::int64_t ArgParser::option_int(const std::string& name) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw UsageError("option --" + name + " expects an integer, got '" + raw + "'");
  }
  return v;
}

double ArgParser::option_double(const std::string& name) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw UsageError("option --" + name + " expects a number, got '" + raw + "'");
  }
  return v;
}

std::vector<std::pair<std::string, std::string>> ArgParser::resolved_options()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, spec] : specs_) {
    if (spec.is_flag) {
      out.emplace_back(name, flags_.at(name) ? "true" : "false");
    } else {
      out.emplace_back(name, values_.at(name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\n";
  if (positional_max_ > 0) {
    os << "Arguments:\n  <" << positional_name_ << ">"
       << (positional_max_ > 1 ? "..." : "") << "\n      " << positional_help_
       << "\n\n";
  }
  os << "Options:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag && !spec.default_value.empty()) {
      os << " (default: " << spec.default_value << ")";
    }
    os << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace drbw
