// Minimal JSON parser for the analysis tooling (tools/dfil_report, trace-validity tests), plus the
// string escaper every JSON writer shares.
//
// The runtime writes JSON (traces, metrics, bench reports); this is the read side. Hand-rolled on
// purpose: the container bakes in no JSON library and the build must not grow dependencies.
// Supports the full JSON grammar we emit — objects (insertion-ordered), arrays, strings with
// escapes, numbers, booleans, null. Errors carry a byte offset, not line/column.
#ifndef DFIL_COMMON_JSON_H_
#define DFIL_COMMON_JSON_H_

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dfil::json {

class Value;
using ValuePtr = std::shared_ptr<Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<ValuePtr> array;
  // Insertion-ordered; duplicate keys keep the last value on lookup.
  std::vector<std::pair<std::string, ValuePtr>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* Get(const std::string& key) const;
  // Convenience accessors with defaults.
  double GetNumber(const std::string& key, double def = 0.0) const;
  std::string GetString(const std::string& key, const std::string& def = "") const;
};

struct ParseResult {
  ValuePtr value;          // null on failure
  std::string error;       // empty on success
  size_t error_offset = 0;

  bool ok() const { return value != nullptr; }
};

ParseResult Parse(const std::string& text);

// Writes `s` as the body of a JSON string literal (without the quotes). Escapes quotes,
// backslash, and every control character: event names embed runtime-generated identifiers, but
// fuzz scenarios, app tags and oracle violation text can carry arbitrary bytes.
void WriteEscaped(std::ostream& os, const std::string& s);

}  // namespace dfil::json

#endif  // DFIL_COMMON_JSON_H_
