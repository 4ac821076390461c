#include "analyze_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::analyze {

Lexed lex(std::string_view content) {
  Lexed out;
  static_cast<lint::SourceText&>(out) =
      lint::preprocess(content, "drbw-analyze:");

  // Tokenize the blanked text: identifiers, numbers, single-char punctuation.
  const std::string& b = out.blanked;
  std::size_t tline = 1;
  for (std::size_t p = 0; p < b.size();) {
    const char c = b[p];
    if (c == '\n') {
      ++tline;
      ++p;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++p;
      continue;
    }
    Token t;
    t.pos = p;
    t.line = tline;
    if (lint::ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = p;
      while (p < b.size() && lint::ident_char(b[p])) ++p;
      t.kind = Token::Kind::kIdent;
      t.text = b.substr(start, p - start);
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = p;
      // Digit separators (6'000'000) are part of the number: a quote glued
      // between digits was deliberately left unblanked by the pass above.
      while (p < b.size() &&
             (lint::ident_char(b[p]) || b[p] == '.' ||
              (b[p] == '\'' && p + 1 < b.size() && lint::ident_char(b[p + 1])))) {
        ++p;
      }
      t.kind = Token::Kind::kNumber;
      t.text = b.substr(start, p - start);
    } else {
      t.kind = Token::Kind::kPunct;
      t.text = b.substr(p, 1);
      ++p;
    }
    out.tokens.push_back(t);
  }
  return out;
}

LayerSpec LayerSpec::parse(std::string_view json_text,
                           const std::string& origin) {
  Json doc;
  try {
    doc = Json::parse(json_text);
  } catch (const Error& e) {
    throw Error(origin + ": " + e.what(), ErrorCode::kParse);
  }
  LayerSpec spec;
  const Json* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array() || layers->as_array().empty()) {
    throw Error(origin + ": layer spec needs a non-empty \"layers\" array",
                ErrorCode::kParse);
  }
  for (const Json& entry : layers->as_array()) {
    Layer layer;
    layer.name = entry.at("name").as_string();
    for (const Json& prefix : entry.at("paths").as_array()) {
      layer.prefixes.push_back(prefix.as_string());
    }
    spec.layers.push_back(std::move(layer));
  }
  if (const Json* exceptions = doc.find("exceptions")) {
    for (const Json& entry : exceptions->as_array()) {
      Exception ex;
      ex.from = entry.at("from").as_string();
      ex.to = entry.at("to").as_string();
      ex.reason = entry.at("reason").as_string();
      if (trim(ex.reason).empty()) {
        throw Error(origin + ": layer exception " + ex.from + " -> " + ex.to +
                        " needs a non-empty reason",
                    ErrorCode::kParse);
      }
      spec.exceptions.push_back(std::move(ex));
    }
  }
  return spec;
}

LayerSpec LayerSpec::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("drbw_analyze: cannot read layer spec " + path,
                ErrorCode::kNotFound);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path);
}

int LayerSpec::rank_of(std::string_view rel_path) const {
  int best = -1;
  std::size_t best_len = 0;
  for (std::size_t r = 0; r < layers.size(); ++r) {
    for (const std::string& prefix : layers[r].prefixes) {
      if (starts_with(rel_path, prefix) && prefix.size() >= best_len) {
        best = static_cast<int>(r);
        best_len = prefix.size();
      }
    }
  }
  return best;
}

bool LayerSpec::excepted(std::string_view from, std::string_view to) const {
  for (const Exception& ex : exceptions) {
    if (starts_with(from, ex.from) && starts_with(to, ex.to)) return true;
  }
  return false;
}

const Tu* Model::find(std::string_view rel) const {
  const auto it = by_rel.find(std::string(rel));
  return it == by_rel.end() ? nullptr : &tus[it->second];
}

Model load_tree(const std::string& root,
                const std::vector<std::string>& subdirs, const LayerSpec& spec,
                const std::vector<std::string>& skip) {
  namespace fs = std::filesystem;
  Model model;
  model.root = root;
  for (const fs::path& file : lint::source_files(root, subdirs)) {
    const std::string rel = fs::relative(file, fs::path(root)).generic_string();
    bool skipped = false;
    for (const std::string& prefix : skip) {
      if (starts_with(rel, prefix)) {
        skipped = true;
        break;
      }
    }
    if (skipped) continue;
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      throw Error("drbw_analyze: cannot read " + file.string(),
                  ErrorCode::kIo);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Tu tu;
    tu.rel = rel;
    tu.layer = spec.rank_of(rel);
    tu.lex = lex(buffer.str());
    model.by_rel.emplace(tu.rel, model.tus.size());
    model.tus.push_back(std::move(tu));
  }
  return model;
}

std::string resolve_include(const Model& model, const Tu& from,
                            const IncludeDirective& inc) {
  if (starts_with(inc.path, "drbw/")) {
    const std::string rel = "include/" + inc.path;
    if (model.find(rel) != nullptr) return rel;
    return "";
  }
  if (inc.angled) return "";  // system header
  // Bare quoted include: resolve next to the including file.
  const std::size_t slash = from.rel.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : from.rel.substr(0, slash + 1);
  std::string rel = dir + inc.path;
  // Normalize a single leading "../" hop (fixture trees use shallow paths).
  while (true) {
    const std::size_t up = rel.find("/../");
    if (up == std::string::npos) break;
    const std::size_t prev = rel.rfind('/', up == 0 ? 0 : up - 1);
    if (prev == std::string::npos) {
      rel = rel.substr(up + 4);
    } else {
      rel = rel.substr(0, prev + 1) + rel.substr(up + 4);
    }
  }
  if (model.find(rel) != nullptr) return rel;
  return "";
}

}  // namespace drbw::analyze
