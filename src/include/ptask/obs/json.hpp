#pragma once
/// \file json.hpp
/// Minimal JSON reader used to validate emitted traces (tools/ptask_trace
/// --selfcheck, obs tests).  Full RFC 8259 value grammar, no streaming, no
/// writing -- the exporters format JSON directly.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ptask::obs::json {

/// One parsed JSON value (tagged union kept simple: all alternatives are
/// members; only the one matching `type` is meaningful).
struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::Null; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_array() const { return type == Type::Array; }
  bool is_object() const { return type == Type::Object; }

  /// First member with the given key, or nullptr (objects only).
  const Value* find(std::string_view key) const;
};

/// Deepest accepted nesting of arrays and objects.
inline constexpr int kMaxDepth = 512;

/// Parses one complete JSON document.  Throws std::runtime_error (with a
/// byte offset) on malformed input, trailing garbage, or nesting deeper
/// than kMaxDepth.
Value parse(std::string_view text);

}  // namespace ptask::obs::json
