// Minimal JSON document model and recursive-descent parser.
//
// Extracted from the campaign-spec parser so every JSON consumer in the
// tree (campaign specs, the service protocol, report checkers) shares one
// implementation: objects, arrays, strings (with the usual escapes),
// numbers, true/false/null. No external dependency; errors carry the
// 1-based line number of the offending input.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dift/stats.hpp"

namespace vpdift::campaign {

/// Malformed JSON. `line()` is 1-based; `message()` is the bare description
/// (what() prefixes it with the location).
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t line, const std::string& message)
      : std::runtime_error("JSON line " + std::to_string(line) + ": " +
                           message),
        line_(line),
        message_(message) {}
  std::size_t line() const { return line_; }
  const std::string& message() const { return message_; }

 private:
  std::size_t line_;
  std::string message_;
};

/// One parsed JSON value. A plain tagged struct (no variant gymnastics):
/// only the members matching `kind` are meaningful.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // ordered

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }

  // Typed lookups with defaults — the service protocol reads optional
  // fields all over; missing or mistyped keys fall back to `fallback`.
  std::string str_or(const std::string& key, std::string fallback = {}) const {
    const JsonValue* v = find(key);
    return v && v->kind == Kind::kString ? v->string : std::move(fallback);
  }
  double num_or(const std::string& key, double fallback = 0) const {
    const JsonValue* v = find(key);
    return v && v->kind == Kind::kNumber ? v->number : fallback;
  }
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback = 0) const;
  bool bool_or(const std::string& key, bool fallback = false) const {
    const JsonValue* v = find(key);
    return v && v->kind == Kind::kBool ? v->boolean : fallback;
  }
};

/// Parses one JSON document (the whole input must be consumed).
/// Throws JsonError on malformed input.
JsonValue json_parse(std::string_view text);

/// `s` as a quoted JSON string literal.
inline std::string json_quote(const std::string& s) {
  return '"' + dift::json_escape(s) + '"';
}

/// Decodes a flat counter block (a struct with a `kFields` table, see
/// dift::CounterField) from the object its renderer wrote; absent or
/// mistyped fields read as 0.
template <typename S>
S counters_from_json(const JsonValue& obj) {
  S s;
  for (const auto& f : S::kFields) s.*f.member = obj.u64_or(f.name, 0);
  return s;
}

}  // namespace vpdift::campaign
