#include "common/json.h"

// GCC 12's optimizer raises spurious maybe-uninitialized/overlap warnings
// from std::variant moves during vector reallocation (PR 105593 family).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace netfm::json {
namespace {

void append_codepoint(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

std::string number_to_string(double d) {
  if (!std::isfinite(d)) return "null";
  // Integral doubles inside the exactly-representable range print without a
  // fraction so counters stay integers in the emitted files.
  if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

}  // namespace

// Outside the anonymous namespace: Value befriends it to build Decimals.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }
  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  bool consume(char c) {
    if (eof() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (eof()) return std::nullopt;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        if (text.substr(pos, 4) == "true") { pos += 4; return Value(true); }
        return std::nullopt;
      case 'f':
        if (text.substr(pos, 5) == "false") { pos += 5; return Value(false); }
        return std::nullopt;
      case 'n':
        if (text.substr(pos, 4) == "null") { pos += 4; return Value(nullptr); }
        return std::nullopt;
      default: return parse_number();
    }
  }

  /// Advances past a run of ASCII digits; returns how many there were.
  std::size_t digits() {
    const std::size_t start = pos;
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    return pos - start;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// A literal whose magnitude rounds past double's range is rejected.
  std::optional<Value> parse_number() {
    const std::size_t start = pos;
    const bool negative = !eof() && peek() == '-';
    if (negative) ++pos;
    if (eof() || peek() < '0' || peek() > '9') return std::nullopt;
    if (peek() == '0')
      ++pos;  // a leading zero is the whole integer part
    else
      digits();
    bool integral = true;
    if (!eof() && peek() == '.') {
      ++pos;
      if (digits() == 0) return std::nullopt;
      integral = false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (digits() == 0) return std::nullopt;
      integral = false;
    }
    const std::string token(text.substr(start, pos - start));
    // Unsigned integer literals stay exact (seeds and ids up to 2^64 - 1);
    // anything else, or a literal past 2^64 - 1, parses as a double.
    if (integral && !negative) {
      std::uint64_t u = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), u);
      if (ec == std::errc() && ptr == token.data() + token.size())
        return Value(u);
    }
    const double d = std::strtod(token.c_str(), nullptr);
    if (std::isinf(d)) return std::nullopt;
    // A value outside float's range keeps the double's float (±inf).
    float f = static_cast<float>(d);
    std::from_chars(token.data(), token.data() + token.size(), f);
    return Value(Value::Decimal{d, f});
  }

  std::optional<int> hex4() {
    if (pos + 4 > text.size()) return std::nullopt;
    int v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= c - '0';
      else if (c >= 'a' && c <= 'f') v |= c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v |= c - 'A' + 10;
      else return std::nullopt;
    }
    pos += 4;
    return v;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return std::nullopt;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          auto hi = hex4();
          if (!hi) return std::nullopt;
          std::uint32_t cp = static_cast<std::uint32_t>(*hi);
          if (cp >= 0xd800 && cp <= 0xdbff && text.substr(pos, 2) == "\\u") {
            pos += 2;
            auto lo = hex4();
            if (!lo) return std::nullopt;
            cp = 0x10000 + ((cp - 0xd800) << 10) +
                 (static_cast<std::uint32_t>(*lo) - 0xdc00);
          }
          append_codepoint(out, cp);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_array() {
    if (!consume('[')) return std::nullopt;
    Array out;
    skip_ws();
    if (consume(']')) return Value(std::move(out));
    for (;;) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Value(std::move(out));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> parse_object() {
    if (!consume('{')) return std::nullopt;
    Object out;
    skip_ws();
    if (consume('}')) return Value(std::move(out));
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto v = parse_value();
      if (!v) return std::nullopt;
      out.emplace_back(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) return Value(std::move(out));
      if (!consume(',')) return std::nullopt;
    }
  }
};

namespace {

void dump_to(const Value& v, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_to(const Value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_uint()) {
    out += std::to_string(*v.as_uint());
  } else if (v.is_float()) {
    const float f = *v.as_float();
    if (!std::isfinite(f)) {
      out += "null";
    } else {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, f).ptr);
    }
  } else if (v.is_number()) {
    out += number_to_string(v.as_number());
  } else if (v.is_string()) {
    out += escape(v.as_string());
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) { out += "[]"; return; }
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      dump_to(a[i], out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const Object& o = v.as_object();
    if (o.empty()) { out += "{}"; return; }
    out.push_back('{');
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      out += escape(o[i].first);
      out += indent < 0 ? ":" : ": ";
      dump_to(o[i].second, out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

}  // namespace

double Value::as_number() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_))
    return static_cast<double>(*u);
  if (const auto* f = std::get_if<float>(&v_)) return *f;
  if (const auto* p = std::get_if<Decimal>(&v_)) return p->d;
  return std::get<double>(v_);
}

std::optional<std::uint64_t> Value::as_uint() const noexcept {
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (!is_number()) return std::nullopt;
  const double d = as_number();
  // 2^64 is exact as a double; every integral double below it converts
  // exactly, and the range check keeps the cast defined.
  if (!(d >= 0.0) || d >= 18446744073709551616.0 || d != std::floor(d))
    return std::nullopt;
  return static_cast<std::uint64_t>(d);
}

std::optional<float> Value::as_float() const noexcept {
  if (const auto* f = std::get_if<float>(&v_)) return *f;
  if (const auto* p = std::get_if<Decimal>(&v_)) return p->f;
  if (!is_number()) return std::nullopt;
  return static_cast<float>(as_number());
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  return out;
}

std::optional<Value> Value::parse(std::string_view text) {
  Parser p{text};
  auto v = p.parse_value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (!p.eof()) return std::nullopt;
  return v;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace netfm::json
