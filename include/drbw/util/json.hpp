// A small self-contained JSON value type with parser and serializer.
//
// Used for persisting trained classifier models (drbw::ml::save_tree /
// load_tree) and for machine-readable experiment artifacts.  Supports the
// full JSON data model except surrogate-pair unicode escapes, which model
// files never contain.  Object key order is preserved (vector of pairs) so
// saved models diff cleanly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw {

class Json;

using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

/// A JSON document node.  Value semantics throughout; cheap to move.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}                // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}              // NOLINT(google-explicit-constructor)
  Json(int i) : value_(static_cast<double>(i)) {}          // NOLINT
  Json(std::int64_t i) : value_(static_cast<double>(i)) {} // NOLINT
  Json(std::size_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}          // NOLINT
  Json(std::string s) : value_(std::move(s)) {}            // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}              // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}             // NOLINT

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_array() const { return type() == Type::kArray; }

  /// Typed accessors; throw drbw::Error(kParse) on a type mismatch or (as_int)
  /// a non-integral number.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object field lookup; throws if not an object or key missing.
  const Json& at(const std::string& key) const;
  /// Returns nullptr when the key is absent (object required).
  const Json* find(const std::string& key) const;
  /// Inserts or overwrites an object field.
  void set(const std::string& key, Json value);
  /// Appends to an array.
  void push_back(Json value);

  /// Serializes; indent < 0 renders compact single-line JSON.
  std::string dump(int indent = 2) const;

  /// Parses a complete JSON document; trailing garbage is an error.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace drbw
