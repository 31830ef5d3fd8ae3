// Minimal JSON value: enough to write the metrics/bench emissions and to
// parse them back (tests round-trip what we emit; CI validates the files
// with python3 -m json.tool). Objects preserve insertion order so emitted
// files diff cleanly across runs.
//
// Not a general-purpose JSON library: numbers are doubles (integral values
// within 2^53 print without a fraction), except that unsigned integer
// literals and std::uint64_t values are carried exactly up to 2^64 - 1,
// and float values print in their shortest exact form and read back bit
// for bit through as_float();
// \uXXXX escapes decode the BMP plus surrogate pairs, and there is no
// streaming — documents are strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace netfm::json {

class Value;
struct Parser;

using Array = std::vector<Value>;
/// Insertion-ordered object; lookup is linear (documents here are small).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  /// Prints in the shortest form that reads back as the same float
  /// (std::to_chars), not as %.17g of the widened double.
  Value(float f) : v_(f) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(std::int64_t i) : v_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : v_(u) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool is_number() const noexcept {
    return std::holds_alternative<double>(v_) ||
           std::holds_alternative<float>(v_) ||
           std::holds_alternative<std::uint64_t>(v_) ||
           std::holds_alternative<Decimal>(v_);
  }
  /// A number carried as an exact unsigned integer (a digits-only literal
  /// up to 2^64 - 1, or a std::uint64_t value).
  bool is_uint() const noexcept { return std::holds_alternative<std::uint64_t>(v_); }
  /// A number built by Value(float), printed in float's shortest form.
  bool is_float() const noexcept { return std::holds_alternative<float>(v_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const;
  /// The exact non-negative integer this number holds: an unsigned integer
  /// literal as written, or an integral double in [0, 2^64). nullopt for
  /// non-numbers and for negative, fractional or out-of-range values.
  std::optional<std::uint64_t> as_uint() const noexcept;
  /// The number as a float. A parsed literal is read straight into float
  /// (std::from_chars, one rounding), not through a double, so whatever
  /// Value(float) printed reads back bit for bit. nullopt for non-numbers.
  std::optional<float> as_float() const noexcept;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Serializes. indent < 0 → compact one-line; otherwise pretty-printed
  /// with that many spaces per level. NaN/Inf (invalid JSON) emit as null.
  std::string dump(int indent = -1) const;

  /// Strict parse of one document (trailing garbage fails).
  static std::optional<Value> parse(std::string_view text);

 private:
  /// A parsed non-integer literal, read at both widths: rounding it to
  /// float through the double could round twice.
  struct Decimal {
    double d;
    float f;
  };
  Value(Decimal d) : v_(d) {}
  friend struct Parser;

  std::variant<std::nullptr_t, bool, double, float, std::uint64_t, Decimal,
               std::string, Array, Object>
      v_;
};

/// Escapes and quotes `s` as a JSON string literal.
std::string escape(std::string_view s);

}  // namespace netfm::json
