#include "ptask/obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace ptask::obs::json {

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse, so nesting is bounded to keep hostile input
        // (e.g. megabytes of '[') from exhausting the stack.
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("invalid literal");
        Value v;
        v.type = Value::Type::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("invalid literal");
        Value v;
        v.type = Value::Type::Bool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences -- fine for validation use).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      fail("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        fail("invalid fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        fail("invalid exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    Value v;
    v.type = Value::Type::Number;
    // from_chars reads the validated bytes in place.  On overflow or
    // underflow it leaves the value unset, so those rare inputs take strtod,
    // which rounds them to +-inf, zero or a denormal.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    if (std::from_chars(first, last, v.number).ec ==
        std::errc::result_out_of_range) {
      v.number = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return v;
  }

  std::string_view text_;
  int depth_ = 0;  ///< open containers around the current position
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace ptask::obs::json
