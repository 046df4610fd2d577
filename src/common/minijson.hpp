// Minimal dependency-free JSON reader shared by the metrics scrape
// client (shard/poll_client.hpp, hipa-top) and the trace- and
// metrics-output tests, so every consumer parses the machine-readable
// artifacts with the same grammar.
//
// Deliberately small: parses the JSON our own writers emit (objects,
// arrays, strings with the common escapes, numbers, bools, null).
// Parse errors do NOT abort the process — parse() returns nullptr and
// records a human-readable error with the byte offset, so tests can
// assert on malformed input instead of dying.
#pragma once

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hipa::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<ValuePtr> array;
  // Insertion-ordered (we care about stable error messages, not lookup
  // speed; bench objects have a handful of keys).
  std::vector<std::pair<std::string, ValuePtr>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
  [[nodiscard]] bool is(Type t) const { return type == t; }
};

[[nodiscard]] inline const char* type_name(Value::Type t) {
  switch (t) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
  }
  return "?";
}

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  /// Parses the whole document. Returns nullptr on error; see error().
  [[nodiscard]] ValuePtr parse() {
    ValuePtr v = parse_value();
    if (failed_) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content");
      return nullptr;
    }
    return v;
  }

  /// Empty when the last parse() succeeded.
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t error_offset() const { return pos_; }

 private:
  void fail(const char* what) {
    if (failed_) return;  // keep the first (innermost) diagnosis
    failed_ = true;
    error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " +
             what;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return text_[pos_];
  }
  void expect(char c) {
    if (failed_) return;
    if (peek() != c) {
      fail("unexpected character");
      return;
    }
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  ValuePtr parse_value() {  // NOLINT(misc-no-recursion)
    if (failed_) return nullptr;
    skip_ws();
    auto v = std::make_shared<Value>();
    const char c = peek();
    if (failed_) return nullptr;
    if (c == '{') {
      v->type = Value::Type::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (!failed_) {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        v->object.emplace_back(key, parse_value());
        skip_ws();
        if (failed_) break;
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
      return nullptr;
    }
    if (c == '[') {
      v->type = Value::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (!failed_) {
        v->array.push_back(parse_value());
        skip_ws();
        if (failed_) break;
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
      return nullptr;
    }
    if (c == '"') {
      v->type = Value::Type::kString;
      v->str = parse_string();
      return failed_ ? nullptr : v;
    }
    if (consume_literal("true")) {
      v->type = Value::Type::kBool;
      v->boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v->type = Value::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
      return nullptr;
    }
    v->type = Value::Type::kNumber;
    v->number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!failed_) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("bad escape");
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              break;
            }
            // Our writers only ever \u-escape ASCII control chars.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(
                std::strtoul(hex.c_str(), nullptr, 16) & 0x7f));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// One-shot convenience: parse `text`, nullptr + `*error` on failure.
[[nodiscard]] inline ValuePtr parse(std::string text,
                                    std::string* error = nullptr) {
  Parser p(std::move(text));
  ValuePtr v = p.parse();
  if (v == nullptr && error != nullptr) *error = p.error();
  return v;
}

}  // namespace hipa::json
