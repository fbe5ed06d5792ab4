#include "src/common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dfil::json {

const Value* Value::Get(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  const Value* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) {
      found = v.get();
    }
  }
  return found;
}

double Value::GetNumber(const std::string& key, double def) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_number()) ? v->number : def;
}

std::string Value::GetString(const std::string& key, const std::string& def) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_string()) ? v->str : def;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  ParseResult Run() {
    ParseResult r;
    ValuePtr v = ParseValue();
    if (!ok_) {
      r.error = error_;
      r.error_offset = pos_;
      return r;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      r.error = "trailing data after value";
      r.error_offset = pos_;
      return r;
    }
    r.value = std::move(v);
    return r;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      pos_++;
    }
  }

  void Fail(const std::string& msg) {
    if (ok_) {
      ok_ = false;
      error_ = msg;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  ValuePtr ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    const char c = s_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          return ParseNumber();
        }
        Fail(std::string("unexpected character '") + c + "'");
        return nullptr;
    }
  }

  ValuePtr ParseObject() {
    pos_++;  // '{'
    auto v = std::make_shared<Value>();
    v->type = Type::kObject;
    SkipWs();
    if (Consume('}')) {
      return v;
    }
    while (ok_) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        Fail("expected object key");
        return nullptr;
      }
      ValuePtr key = ParseString();
      if (!ok_) {
        return nullptr;
      }
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        return nullptr;
      }
      ValuePtr member = ParseValue();
      if (!ok_) {
        return nullptr;
      }
      v->object.emplace_back(key->str, std::move(member));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return v;
      }
      Fail("expected ',' or '}' in object");
      return nullptr;
    }
    return nullptr;
  }

  ValuePtr ParseArray() {
    pos_++;  // '['
    auto v = std::make_shared<Value>();
    v->type = Type::kArray;
    SkipWs();
    if (Consume(']')) {
      return v;
    }
    while (ok_) {
      ValuePtr item = ParseValue();
      if (!ok_) {
        return nullptr;
      }
      v->array.push_back(std::move(item));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return v;
      }
      Fail("expected ',' or ']' in array");
      return nullptr;
    }
    return nullptr;
  }

  ValuePtr ParseString() {
    pos_++;  // '"'
    auto v = std::make_shared<Value>();
    v->type = Type::kString;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return v;
      }
      if (c != '\\') {
        v->str += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        break;
      }
      const char esc = s_[pos_++];
      switch (esc) {
        case '"':
          v->str += '"';
          break;
        case '\\':
          v->str += '\\';
          break;
        case '/':
          v->str += '/';
          break;
        case 'b':
          v->str += '\b';
          break;
        case 'f':
          v->str += '\f';
          break;
        case 'n':
          v->str += '\n';
          break;
        case 'r':
          v->str += '\r';
          break;
        case 't':
          v->str += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            Fail("truncated \\u escape");
            return nullptr;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
              return nullptr;
            }
          }
          // UTF-8 encode the code point (surrogate pairs not combined; our writers only emit
          // \u00xx control-character escapes).
          if (code < 0x80) {
            v->str += static_cast<char>(code);
          } else if (code < 0x800) {
            v->str += static_cast<char>(0xC0 | (code >> 6));
            v->str += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            v->str += static_cast<char>(0xE0 | (code >> 12));
            v->str += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            v->str += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          Fail(std::string("bad escape '\\") + esc + "'");
          return nullptr;
      }
    }
    Fail("unterminated string");
    return nullptr;
  }

  ValuePtr ParseNumber() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      pos_++;
    }
    while (pos_ < s_.size() && ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
                                s_[pos_] == '-')) {
      pos_++;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') {
      Fail("malformed number '" + tok + "'");
      return nullptr;
    }
    auto v = std::make_shared<Value>();
    v->type = Type::kNumber;
    v->number = d;
    return v;
  }

  ValuePtr ParseBool() {
    auto v = std::make_shared<Value>();
    v->type = Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v->boolean = true;
      pos_ += 4;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      v->boolean = false;
      pos_ += 5;
      return v;
    }
    Fail("bad literal");
    return nullptr;
  }

  ValuePtr ParseNull() {
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::make_shared<Value>();
    }
    Fail("bad literal");
    return nullptr;
  }

  const std::string& s_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

ParseResult Parse(const std::string& text) { return Parser(text).Run(); }

void WriteEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace dfil::json
