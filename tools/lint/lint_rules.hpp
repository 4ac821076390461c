// drbw_lint — token-level static checks for the determinism contract.
//
// The reproduction pipeline promises bitwise-identical datasets, models, and
// traces at any --jobs count.  That promise dies the day someone reintroduces
// rand(), a wall-clock seed, or an unordered-container walk that feeds ordered
// output.  These rules are the machine-checked form of the contract: a small
// lexer blanks comments and string literals, then pattern rules fire on the
// remaining token stream.  Registered as the `lint_test` ctest so `ctest`
// fails on violations; `tests/lint_test.cpp` pins each rule against fixture
// snippets.
//
// Escape hatch: a `// drbw-lint: allow(<rule>) <reason>` comment on the same
// line or the line above suppresses that rule there.  The reason is
// mandatory — an allow without one is itself a finding.
#pragma once

#include <cctype>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace drbw::lint {

/// One rule violation at a specific source location.
struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Where a file sits in the layering, derived purely from its path.  The
/// rules key off this: the mem/ layer owns raw allocation, util/rng.hpp owns
/// entropy, and emitter files (trace/dataset/report writers) must not iterate
/// unordered containers.
struct FileInfo {
  std::string path;
  bool is_header = false;         // .hpp / .h
  bool is_public_header = false;  // under include/drbw/
  bool in_mem_layer = false;      // mem/ subsystem: raw allocation allowed
  bool is_rng_home = false;       // util/rng.hpp: entropy sources allowed
  bool is_emitter = false;        // writes traces / datasets / reports
  bool is_artifact_home = false;  // util/artifact.*: owns the atomic-write path
  bool is_obs_wall_home = false;  // src/obs/: the one wall-clock shim lives here
  bool is_bench = false;          // bench/: chrono self-timing is its job
  bool is_diag_home = false;      // src/obs/, tools/, util/error: stderr OK
};

/// Classifies `path` (any separator style; matched on '/'-normalized form).
FileInfo classify(std::string_view path);

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// A source file after lexing: comments and string/char literal *contents*
/// blanked to spaces (newlines preserved, so line numbers survive), plus
/// what was harvested before blanking.  drbw_lint and drbw_analyze share
/// this one lexer.
struct SourceText {
  std::string blanked;
  /// One `<tag> allow(<rule>) <reason>` annotation.
  struct Allow {
    std::size_t line = 0;  // the annotated line (the comment's own line)
    std::string rule;
    std::string reason;  // trimmed; empty = missing
    bool has_reason = false;  // >= 3 characters, at least one a letter
  };
  std::vector<Allow> allows;
  /// A "..." string literal (escapes dropped, \n decoded) or a raw
  /// string's body.
  struct Literal {
    std::string text;
    std::size_t pos = 0;  // offset of the opening quote
    std::size_t line = 0;
  };
  std::vector<Literal> literals;
  /// One #include directive.
  struct Include {
    std::string path;     // as written between the delimiters
    bool angled = false;  // <...> vs "..."
    std::size_t line = 0;
  };
  std::vector<Include> includes;
};

/// Lexes `content`: strips // and /* */ comments, "..." / '...' literals and
/// raw strings (digit separators handled), and collects the `allow_tag`
/// annotations, string literals, and #include directives.
SourceText preprocess(std::string_view content,
                      std::string_view allow_tag = "drbw-lint:");

/// Every .cpp/.hpp/.h under `root`/<subdir> for each subdir, sorted.
std::vector<std::filesystem::path> source_files(
    const std::string& root, const std::vector<std::string>& subdirs);

/// Runs every rule over one file's content; returns findings in line order.
std::vector<Finding> check_file(const FileInfo& info, std::string_view content);

/// Result of linting a directory tree.
struct RunResult {
  std::size_t files_scanned = 0;
  std::vector<Finding> findings;
};

/// Lints every .cpp/.hpp/.h under `root`/<subdir> for each subdir, in
/// lexicographic file order (deterministic output, like everything else).
RunResult run(const std::string& root, const std::vector<std::string>& subdirs);

/// Renders one finding as "path:line: [rule] message".
std::string format_finding(const Finding& finding);

}  // namespace drbw::lint
