// drbw_analyze — shared whole-program model for the contract analyzer.
//
// drbw_lint checks one line at a time; the rules in tools/analyze reason
// about the *program*: the include graph against the committed layer DAG
// (layers.json), every emitted fault-site / metric / span name against the
// committed registry (registry.json), and intra-TU dataflow from unordered
// containers into emitter calls.  This header owns the model every pass
// shares: each translation unit is lexed exactly once into a token stream
// (identifiers, numbers, punctuation), its string literals (blanked from the
// token stream but kept here — registry names live in literals), its
// #include directives, and its `// drbw-analyze: allow(<rule>) <reason>`
// annotations.
//
// The passes themselves live in analyze_passes.hpp; reporting, baseline
// comparison, and SARIF-style JSON output in analyze_report.hpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "../lint/lint_rules.hpp"

namespace drbw::analyze {

/// One lexical token over the blanked source.  Literals and comments are
/// blanked before tokenization, so a token is always real code.
struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kIdent;
  std::string text;     // owned — Lexed objects are moved into the model
  std::size_t pos = 0;  // byte offset
  std::size_t line = 0;  // 1-based
};

using Literal = lint::SourceText::Literal;
using IncludeDirective = lint::SourceText::Include;
/// One `// drbw-analyze: allow(<rule>) <reason>` annotation.
using Allow = lint::SourceText::Allow;

/// A fully lexed translation unit: drbw_lint's lexer output (blanked text,
/// literals, includes, allows) plus the token stream over it.
struct Lexed : lint::SourceText {
  std::vector<Token> tokens;
};

/// Lexes one file: blanks comments / string / char literals (raw strings and
/// digit separators handled), tokenizes the rest, and harvests literals,
/// includes, and allow-annotations in a single pass.
Lexed lex(std::string_view content);

/// The committed layer DAG (tools/analyze/layers.json).  Layers are listed
/// bottom-up: a file may include only files in its own or a *lower* layer.
/// `exceptions` lists individually blessed edges (each with a mandatory
/// reason) — e.g. the header-only drbw/util/error.hpp, which the fault and
/// obs bottom layers share by design.
struct LayerSpec {
  struct Layer {
    std::string name;
    std::vector<std::string> prefixes;  // repo-relative path prefixes
  };
  struct Exception {
    std::string from;  // path prefix (or exact path) of the including file
    std::string to;    // path prefix (or exact path) of the included file
    std::string reason;
  };
  std::vector<Layer> layers;  // rank = index, bottom first
  std::vector<Exception> exceptions;

  static LayerSpec load(const std::string& path);
  static LayerSpec parse(std::string_view json_text, const std::string& origin);

  /// Layer index for a repo-relative path (longest matching prefix), or -1.
  int rank_of(std::string_view rel_path) const;
  const std::string& layer_name(int rank) const {
    return layers[static_cast<std::size_t>(rank)].name;
  }
  /// True when the edge from→to is individually blessed.
  bool excepted(std::string_view from, std::string_view to) const;
};

/// One translation unit in the model.
struct Tu {
  std::string rel;   // repo-relative path, '/'-separated
  int layer = -1;    // rank in LayerSpec, -1 = unmapped
  Lexed lex;
};

/// The whole-program model: every TU under the scanned subdirectories,
/// lexed once, sorted by path (deterministic pass output).
struct Model {
  std::string root;
  std::vector<Tu> tus;
  std::map<std::string, std::size_t> by_rel;

  const Tu* find(std::string_view rel) const;
};

/// Loads every .cpp/.hpp/.h under root/<subdir> into a Model, assigning
/// layers from `spec`.  Paths under `skip` prefixes are excluded (fixture
/// trees inside tests/ must not count as the real program).
Model load_tree(const std::string& root, const std::vector<std::string>& subdirs,
                const LayerSpec& spec,
                const std::vector<std::string>& skip = {});

/// Resolves an include directive to a repo-relative path: "drbw/..." maps
/// under include/, a bare quoted name maps next to the including file.
/// Returns "" for system / external includes.
std::string resolve_include(const Model& model, const Tu& from,
                            const IncludeDirective& inc);

}  // namespace drbw::analyze
