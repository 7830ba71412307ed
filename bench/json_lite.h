// Minimal JSON support for the BENCH_*.json machine-readable bench results:
// the ordered flat-object writer (src/base/json_writer.h) and a matching
// parser. Deliberately tiny — the bench schema is one object of
// numbers/strings/bools, so nested containers are out of scope (the parser
// rejects them loudly rather than mis-reading them). No third-party JSON
// dependency in the image.
#ifndef BENCH_JSON_LITE_H_
#define BENCH_JSON_LITE_H_

#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "src/base/json_writer.h"
#include "src/base/status.h"

namespace espk {

struct JsonValue {
  enum class Kind { kNumber, kString, kBool };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string str;
  bool boolean = false;
};

// Parses a single flat JSON object {"key": value, ...} where every value is
// a number, string, or bool. Nested objects/arrays/null are errors.
inline Result<std::map<std::string, JsonValue>> ParseFlatJsonObject(
    const std::string& text) {
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  auto parse_string = [&]() -> Result<std::string> {
    if (i >= text.size() || text[i] != '"') {
      return DataLossError("json: expected string at offset " +
                           std::to_string(i));
    }
    ++i;
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') {
        ++i;
        if (i >= text.size()) {
          return DataLossError("json: dangling escape");
        }
        switch (text[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += text[i]; break;
        }
      } else {
        out += text[i];
      }
      ++i;
    }
    if (i >= text.size()) {
      return DataLossError("json: unterminated string");
    }
    ++i;  // Closing quote.
    return out;
  };

  std::map<std::string, JsonValue> obj;
  skip_ws();
  if (i >= text.size() || text[i] != '{') {
    return DataLossError("json: expected '{'");
  }
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    return obj;
  }
  while (true) {
    skip_ws();
    Result<std::string> key = parse_string();
    if (!key.ok()) {
      return key.status();
    }
    skip_ws();
    if (i >= text.size() || text[i] != ':') {
      return DataLossError("json: expected ':' after key \"" + *key + "\"");
    }
    ++i;
    skip_ws();
    JsonValue value;
    if (i < text.size() && text[i] == '"') {
      Result<std::string> s = parse_string();
      if (!s.ok()) {
        return s.status();
      }
      value.kind = JsonValue::Kind::kString;
      value.str = std::move(*s);
    } else if (text.compare(i, 4, "true") == 0) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      i += 4;
    } else if (text.compare(i, 5, "false") == 0) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      i += 5;
    } else {
      char* end = nullptr;
      value.kind = JsonValue::Kind::kNumber;
      value.number = std::strtod(text.c_str() + i, &end);
      if (end == text.c_str() + i) {
        return DataLossError("json: unsupported value for key \"" + *key +
                             "\" (flat numbers/strings/bools only)");
      }
      i = static_cast<size_t>(end - text.c_str());
    }
    obj[*key] = std::move(value);
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') {
      ++i;
      break;
    }
    return DataLossError("json: expected ',' or '}' at offset " +
                         std::to_string(i));
  }
  return obj;
}

// Full-syntax JSON validator (recursive descent over objects, arrays,
// strings, numbers, true/false/null). Unlike ParseFlatJsonObject it builds
// nothing — it exists so tests can round-trip nested documents (Chrome
// trace exports, flight-recorder postmortems) through a parse check without
// a third-party JSON dependency. Rejects trailing garbage, unescaped
// control characters in strings, and nesting deeper than 64 levels.
inline Status CheckJsonSyntax(const std::string& text) {
  size_t i = 0;
  auto fail = [&](const std::string& what) {
    return DataLossError("json: " + what + " at offset " + std::to_string(i));
  };
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  auto check_string = [&]() -> Status {
    if (i >= text.size() || text[i] != '"') {
      return fail("expected string");
    }
    ++i;
    while (i < text.size() && text[i] != '"') {
      unsigned char c = static_cast<unsigned char>(text[i]);
      if (c < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++i;
        if (i >= text.size()) {
          return fail("dangling escape");
        }
        if (text[i] == 'u') {
          if (i + 4 >= text.size()) {
            return fail("truncated \\u escape");
          }
          for (int k = 1; k <= 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(text[i + k]))) {
              return fail("bad \\u escape");
            }
          }
          i += 4;
        }
      }
      ++i;
    }
    if (i >= text.size()) {
      return fail("unterminated string");
    }
    ++i;
    return OkStatus();
  };
  // Explicit value-kind recursion (lambdas cannot self-reference cheaply).
  std::function<Status(int)> check_value = [&](int depth) -> Status {
    if (depth > 64) {
      return fail("nesting too deep");
    }
    skip_ws();
    if (i >= text.size()) {
      return fail("expected value");
    }
    char c = text[i];
    if (c == '"') {
      return check_string();
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == close) {
        ++i;
        return OkStatus();
      }
      for (;;) {
        if (close == '}') {
          skip_ws();
          Status key = check_string();
          if (!key.ok()) {
            return key;
          }
          skip_ws();
          if (i >= text.size() || text[i] != ':') {
            return fail("expected ':'");
          }
          ++i;
        }
        Status value = check_value(depth + 1);
        if (!value.ok()) {
          return value;
        }
        skip_ws();
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        if (i < text.size() && text[i] == close) {
          ++i;
          return OkStatus();
        }
        return fail("expected ',' or container close");
      }
    }
    if (text.compare(i, 4, "true") == 0) {
      i += 4;
      return OkStatus();
    }
    if (text.compare(i, 5, "false") == 0) {
      i += 5;
      return OkStatus();
    }
    if (text.compare(i, 4, "null") == 0) {
      i += 4;
      return OkStatus();
    }
    char* end = nullptr;
    std::strtod(text.c_str() + i, &end);
    if (end == text.c_str() + i) {
      return fail("unsupported value");
    }
    i = static_cast<size_t>(end - text.c_str());
    return OkStatus();
  };
  Status root = check_value(0);
  if (!root.ok()) {
    return root;
  }
  skip_ws();
  if (i != text.size()) {
    return fail("trailing garbage");
  }
  return OkStatus();
}

}  // namespace espk

#endif  // BENCH_JSON_LITE_H_
