// Strict JSON parsing into a small DOM, for the scenario server's query
// grammar (serve/query.hpp).
//
// The grammar is RFC 8259, applied strictly. This is the repo's one JSON
// parser: tools/gpucomm_jsonv and the tests validate emitted artifacts with
// it too. Numbers must be finite doubles ("1e400" is out of range); they
// keep both the double value and an exact signed-64-bit form when the
// literal is integral and in range, so byte counts and seeds round-trip
// without floating-point loss. Object keys keep their input order;
// duplicate keys are a parse error (a query that says "gpus" twice is
// ambiguous, not last-writer-wins). Errors are one-line messages with the
// byte offset of the first problem, matching the CLI parser's contract.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpucomm::serve {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  const std::string& as_string() const { return string_; }
  /// Exact integer value when the literal was integral and fits int64.
  std::optional<std::int64_t> as_int() const { return int_; }

  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in input order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }
  /// Member lookup; nullptr when absent.
  const JsonValue* find(std::string_view key) const;

  static JsonValue make_null() { return JsonValue(Kind::kNull); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d, std::optional<std::int64_t> i);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  explicit JsonValue(Kind k) : kind_(k) {}

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::optional<std::int64_t> int_;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one JSON document. Returns nullopt and a one-line description (with
/// byte offset) in `error` on malformed input, trailing garbage, duplicate
/// object keys, or \u escapes outside the Basic Multilingual Plane's ASCII
/// subset handling (escapes are decoded as UTF-8).
std::optional<JsonValue> parse_json(std::string_view text, std::string& error);

}  // namespace gpucomm::serve
