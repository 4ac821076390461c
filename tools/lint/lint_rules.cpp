#include "lint_rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "drbw/util/error.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::lint {
namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

/// Emitter files: anything whose output is an ordered artifact (trace CSVs,
/// datasets, reports, rendered tables/charts, the CLI).  Iterating an
/// unordered container there silently couples the artifact to hash order.
constexpr std::array<std::string_view, 11> kEmitterMarks = {
    "/report/",    "trace_io",     "dataset",   "markdown",   "/util/csv",
    "/util/json",  "/util/table",  "/util/ascii_chart", "/tool/", "drbw_cli",
    "decision_tree",
};

}  // namespace

FileInfo classify(std::string_view path) {
  FileInfo info;
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  info.path = p;
  info.is_header = ends_with(p, ".hpp") || ends_with(p, ".h");
  info.is_public_header = info.is_header && contains(p, "include/drbw/");
  info.in_mem_layer = contains(p, "/mem/") || starts_with(p, "mem/");
  info.is_rng_home = ends_with(p, "util/rng.hpp");
  info.is_artifact_home = contains(p, "util/artifact");
  info.is_obs_wall_home = contains(p, "src/obs/");
  info.is_bench = contains(p, "bench/") || starts_with(p, "bench");
  info.is_diag_home = contains(p, "src/obs/") || contains(p, "tools/") ||
                      starts_with(p, "tools") || contains(p, "util/error");
  for (const auto mark : kEmitterMarks) {
    if (contains(p, mark)) {
      info.is_emitter = true;
      break;
    }
  }
  return info;
}

namespace {

/// Harvests `<tag> allow(<rule>) <reason>` from one comment's text.
void harvest_allows(std::string_view comment, std::size_t line,
                    std::string_view tag, std::vector<SourceText::Allow>& out) {
  const std::size_t at = comment.find(tag);
  if (at == std::string_view::npos) return;
  std::string_view rest = comment.substr(at);
  const std::size_t open = rest.find("allow(");
  if (open == std::string_view::npos) return;
  rest = rest.substr(open + 6);
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos) return;
  SourceText::Allow allow;
  allow.line = line;
  allow.rule = trim(rest.substr(0, close));
  allow.reason = trim(rest.substr(close + 1));
  // The reason must actually say something: at least three characters with
  // at least one letter, so "." or "--" cannot wave a finding through.
  allow.has_reason =
      allow.reason.size() >= 3 &&
      std::any_of(allow.reason.begin(), allow.reason.end(), [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) != 0;
      });
  out.push_back(std::move(allow));
}

/// Parses `#include <...>` / `#include "..."` from one raw source line.
void harvest_include(std::string_view s, std::size_t line,
                     std::vector<SourceText::Include>& out) {
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  skip_space();
  if (i >= s.size() || s[i] != '#') return;
  ++i;
  skip_space();
  if (s.substr(i, 7) != "include") return;
  i += 7;
  skip_space();
  if (i >= s.size()) return;
  const char open = s[i];
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return;
  const std::size_t end = s.find(close, i + 1);
  if (end == std::string_view::npos) return;
  out.push_back(SourceText::Include{std::string(s.substr(i + 1, end - i - 1)),
                                    open == '<', line});
}

}  // namespace

SourceText preprocess(std::string_view content, std::string_view allow_tag) {
  SourceText out;
  out.blanked.assign(content.size(), ' ');
  std::size_t line = 1;
  std::size_t line_start = 0;
  std::size_t i = 0;
  const std::size_t n = content.size();
  auto keep = [&](std::size_t at) { out.blanked[at] = content[at]; };
  // Every newline, inside comments and literals too, ends a raw line.
  auto end_line = [&](std::size_t at) {
    keep(at);
    harvest_include(content.substr(line_start, at - line_start), line,
                    out.includes);
    line_start = at + 1;
    ++line;
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      end_line(i);
      ++i;
      continue;
    }
    // Line comment: blank it, harvest allow-annotations.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      harvest_allows(content.substr(start, i - start), line, allow_tag,
                     out.allows);
      continue;
    }
    // Block comment: blank it; an annotation anchors at the opening line.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') end_line(i);
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      harvest_allows(content.substr(start, i - start), start_line, allow_tag,
                     out.allows);
      continue;
    }
    // Raw string literal: R"delim( ... )delim", with optional u8/u/U/L prefix
    // (the prefix chars are identifier-like and survive blanking harmlessly).
    if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
        (i == 0 || !ident_char(content[i - 1]))) {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && content[j] != '(') delim += content[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = content.find(closer, j);
      const std::size_t body = std::min(j + 1, n);
      const std::size_t body_end = end == std::string_view::npos ? n : end;
      out.literals.push_back(SourceText::Literal{
          std::string(content.substr(body, body_end - body)), i + 1, line});
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      for (; i < stop; ++i) {
        if (content[i] == '\n') end_line(i);
      }
      continue;
    }
    // String / char literal.  A ' preceded by an identifier char is a C++14
    // digit separator (6'000'000), not a literal.
    if (c == '"' || (c == '\'' && (i == 0 || !ident_char(content[i - 1])))) {
      const char quote = c;
      SourceText::Literal lit{"", i, line};
      ++i;
      while (i < n && content[i] != quote) {
        const bool escaped = content[i] == '\\' && i + 1 < n;
        if (escaped) ++i;  // keep the escaped char, drop the backslash
        if (content[i] == '\n') end_line(i);
        lit.text += escaped && content[i] == 'n' ? '\n' : content[i];
        ++i;
      }
      if (i < n) ++i;  // closing quote
      if (quote == '"') out.literals.push_back(std::move(lit));
      continue;
    }
    keep(i);
    ++i;
  }
  harvest_include(content.substr(line_start), line, out.includes);
  return out;
}

std::vector<std::filesystem::path> source_files(
    const std::string& root, const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

namespace {

struct Token {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line = 0;
};

std::vector<Token> tokenize(const std::string& blanked) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = blanked.size();
  while (i < n) {
    const char c = blanked[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      while (i < n && ident_char(blanked[i])) ++i;
      tokens.push_back(Token{std::string_view(blanked).substr(start, i - start),
                             start, line});
      continue;
    }
    ++i;
  }
  return tokens;
}

char next_nonspace(const std::string& s, std::size_t pos) {
  for (; pos < s.size(); ++pos) {
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return s[pos];
  }
  return '\0';
}

/// Member access (`x.free(...)`, `p->free(...)`) targets the repo's own
/// methods, not the libc symbol; qualified calls (`std::rand`) stay banned.
bool member_access(const std::string& s, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0 && std::isspace(static_cast<unsigned char>(s[p - 1]))) --p;
  if (p == 0) return false;
  if (s[p - 1] == '.') return true;
  return p >= 2 && s[p - 1] == '>' && s[p - 2] == '-';
}

template <std::size_t N>
bool any_of(std::string_view text, const std::array<std::string_view, N>& set) {
  return std::find(set.begin(), set.end(), text) != set.end();
}

constexpr std::array<std::string_view, 9> kRandFns = {
    "rand",    "srand",   "rand_r",  "drand48", "lrand48",
    "mrand48", "srand48", "random",  "srandom",
};
constexpr std::array<std::string_view, 7> kWallclockFns = {
    "time", "clock", "gettimeofday", "localtime", "gmtime", "ctime",
    "timespec_get",
};
constexpr std::array<std::string_view, 3> kBuildStamps = {
    "__DATE__", "__TIME__", "__TIMESTAMP__"};
constexpr std::array<std::string_view, 3> kChronoClocks = {
    "system_clock", "steady_clock", "high_resolution_clock"};
constexpr std::array<std::string_view, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<std::string_view, 9> kAllocFns = {
    "malloc",        "calloc",         "realloc", "free", "aligned_alloc",
    "posix_memalign", "memalign",      "valloc",  "strdup",
};

/// First non-space character of each line, for #-directive detection.
std::vector<char> line_leads(const std::string& blanked) {
  std::vector<char> leads;
  char lead = '\0';
  bool seen = false;
  for (const char c : blanked) {
    if (c == '\n') {
      leads.push_back(lead);
      lead = '\0';
      seen = false;
      continue;
    }
    if (!seen && !std::isspace(static_cast<unsigned char>(c))) {
      lead = c;
      seen = true;
    }
  }
  leads.push_back(lead);
  return leads;
}

class Checker {
 public:
  Checker(const FileInfo& info, std::string_view content)
      : info_(info), source_(preprocess(content)), content_(content) {}

  std::vector<Finding> run() {
    const std::vector<Token> tokens = tokenize(source_.blanked);
    const std::vector<char> leads = line_leads(source_.blanked);
    auto on_directive = [&](const Token& t) {
      return t.line - 1 < leads.size() && leads[t.line - 1] == '#';
    };

    for (std::size_t k = 0; k < tokens.size(); ++k) {
      const Token& t = tokens[k];
      const bool called =
          next_nonspace(source_.blanked, t.pos + t.text.size()) == '(';
      const bool member = member_access(source_.blanked, t.pos);

      if (any_of(t.text, kRandFns) && called && !member) {
        report(t.line, "no-rand",
               "'" + std::string(t.text) +
                   "' is banned: all randomness must flow through the seeded "
                   "streams in drbw/util/rng.hpp");
      }
      if (t.text == "random_device" && !info_.is_rng_home) {
        report(t.line, "no-random-device",
               "std::random_device outside util/rng.hpp breaks run-to-run "
               "reproducibility");
      }
      if (any_of(t.text, kWallclockFns) && called && !member &&
          !on_directive(t)) {
        report(t.line, "no-wallclock",
               "'" + std::string(t.text) +
                   "(...)' reads the wall clock; seeds and any value that "
                   "reaches an artifact must be explicit (chrono timing of "
                   "benchmarks is fine — this symbol family is not)");
      }
      // Wall-clock types are confined to the obs wall-timing shim: outside
      // src/obs/ the finding is unconditional (no allow-comment laundering);
      // inside, the shim must still carry a justified allow.  Benches time
      // themselves by design and are exempt.
      if (any_of(t.text, kChronoClocks) && !info_.is_bench) {
        if (info_.is_obs_wall_home) {
          report(t.line, "obs-wallclock",
                 "std::chrono::" + std::string(t.text) +
                     " in the obs wall-timing shim needs a justified allow "
                     "comment (wall time is opt-in via --timing=wall only)");
        } else {
          findings_.push_back(Finding{
              info_.path, t.line, "obs-wallclock",
              "std::chrono::" + std::string(t.text) +
                  " outside src/obs/: wall-clock reads go through "
                  "obs::wall_now_micros() so golden artifacts stay "
                  "clock-free (no allow escape for this rule)"});
        }
      }
      if (any_of(t.text, kBuildStamps)) {
        report(t.line, "no-build-stamp",
               std::string(t.text) + " bakes build time into the binary");
      }
      if (any_of(t.text, kUnorderedContainers) && info_.is_emitter &&
          !on_directive(t)) {
        report(t.line, "unordered-iter",
               "unordered container in an emitter file: iteration order would "
               "leak hash order into ordered output (sort first, use std::map, "
               "or justify with an allow comment)");
      }
      if ((t.text == "new" || t.text == "delete") && !info_.in_mem_layer) {
        const bool deleted_fn =
            t.text == "delete" &&
            next_nonspace(source_.blanked, t.pos + t.text.size()) == ';';
        const bool operator_decl = k > 0 && tokens[k - 1].text == "operator";
        if (!deleted_fn && !operator_decl) {
          report(t.line, "raw-alloc",
                 "raw '" + std::string(t.text) +
                     "' outside mem/: use containers or smart pointers so "
                     "allocation stays trackable");
        }
      }
      if (any_of(t.text, kAllocFns) && called && !member &&
          !info_.in_mem_layer) {
        report(t.line, "raw-alloc",
               "'" + std::string(t.text) +
                   "(...)' outside mem/: the malloc family belongs to the "
                   "interception layer");
      }
      // Emitter files must not open output streams directly: artifacts go
      // through util::atomic_write_file / util::write_versioned_artifact
      // (write-temp-then-rename + checksummed header), so a crash or an
      // injected fault can never leave a partial file at the final path.
      if (t.text == "ofstream" && info_.is_emitter && !info_.is_artifact_home) {
        report(t.line, "no-naked-artifact-write",
               "std::ofstream in an emitter file: route artifact output "
               "through util::atomic_write_file or "
               "util::write_versioned_artifact so partial files cannot "
               "appear at the final path (or justify with an allow comment)");
      }
      // Ad-hoc stderr chatter bypasses the provenance layer: a diagnostic
      // printed with std::cerr never reaches the run manifest or the flight
      // recorder, so `drbw doctor` cannot see it.  Failures in library code
      // must flow through drbw::Error (the CLI front-end records it); only
      // the obs sinks, the tools' top-level drivers, the error primitives,
      // and self-reporting benches write stderr directly.
      if (t.text == "cerr" && !info_.is_diag_home && !info_.is_bench) {
        report(t.line, "no-naked-diagnostic",
               "std::cerr outside src/obs/, tools/, and util/error: throw "
               "drbw::Error or leave a flight-recorder breadcrumb so the run "
               "manifest and `drbw doctor` capture the diagnostic (or "
               "justify with an allow comment)");
      }
      if (t.text == "using" && k + 1 < tokens.size() &&
          tokens[k + 1].text == "namespace" && info_.is_header) {
        report(t.line, "include-hygiene",
               "'using namespace' in a header leaks into every includer");
      }
    }

    if (info_.is_header && source_.blanked.find("#pragma once") ==
                               std::string::npos) {
      report(1, "include-hygiene", "header is missing '#pragma once'");
    }
    if (info_.is_public_header) check_includes();
    check_allows();

    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(findings_);
  }

 private:
  /// Public headers may include only "drbw/..." (quoted, full path) and
  /// system headers; <drbw/...> and relative quotes break self-containment
  /// conventions and the install layout.
  void check_includes() {
    std::size_t line = 0;
    for (const std::string& raw : split(std::string(content_), '\n')) {
      ++line;
      const std::string l = trim(raw);
      if (!starts_with(l, "#include")) continue;
      const std::string rest = trim(l.substr(8));
      if (starts_with(rest, "\"") && !starts_with(rest, "\"drbw/")) {
        report(line, "include-hygiene",
               "public headers must include project headers as \"drbw/...\"");
      }
      if (starts_with(rest, "<drbw/")) {
        report(line, "include-hygiene",
               "project headers use the quoted form: \"drbw/...\"");
      }
    }
  }

  /// An allow-comment without a reason is itself a violation: the escape
  /// hatch exists to *record* why hash order (or an allocation) is safe.
  void check_allows() {
    for (const auto& allow : source_.allows) {
      if (!allow.has_reason) {
        report(allow.line, "allow-missing-reason",
               "allow(" + allow.rule + ") needs a justification after the ')'");
      }
    }
  }

  bool allowed(std::size_t line, const std::string& rule) const {
    for (const auto& allow : source_.allows) {
      if (allow.rule != rule || !allow.has_reason) continue;
      if (allow.line == line || allow.line + 1 == line) return true;
    }
    return false;
  }

  void report(std::size_t line, const std::string& rule, std::string message) {
    if (allowed(line, rule)) return;
    findings_.push_back(Finding{info_.path, line, rule, std::move(message)});
  }

  const FileInfo& info_;
  SourceText source_;
  std::string_view content_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> check_file(const FileInfo& info,
                                std::string_view content) {
  return Checker(info, content).run();
}

RunResult run(const std::string& root,
              const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  RunResult result;
  for (const fs::path& file : source_files(root, subdirs)) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw Error("drbw_lint: cannot read " + file.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel =
        fs::relative(file, fs::path(root)).generic_string();
    const FileInfo info = classify(rel);
    auto found = check_file(info, buffer.str());
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(found.begin()),
                           std::make_move_iterator(found.end()));
    ++result.files_scanned;
  }
  return result;
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace drbw::lint
