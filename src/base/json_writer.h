// Ordered flat-object JSON writer: the BENCH_*.json machine-readable bench
// results and the flight recorder's postmortem documents. Keys are emitted
// in insertion order so the output diffs cleanly run to run; nested
// containers enter only as pre-serialized Raw values. The matching parser
// and a full-syntax validator live in bench/json_lite.h.
#ifndef SRC_BASE_JSON_WRITER_H_
#define SRC_BASE_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace espk {

// Serializes a string as a JSON string literal: quotes, backslashes, and
// the control characters that actually occur in our payloads (\n, \t, \r)
// escaped, any other control byte as \u00XX.
inline std::string QuoteJsonString(const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    switch (c) {
      case '"':  quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\t': quoted += "\\t"; break;
      case '\r': quoted += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          quoted += buf;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return quoted;
}

// Ordered flat JSON object writer. Keys are emitted in insertion order so
// the files diff cleanly run-to-run.
class JsonWriter {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    entries_.emplace_back(key, buf);
  }

  void Int(const std::string& key, uint64_t v) {
    entries_.emplace_back(key, std::to_string(v));
  }

  void Str(const std::string& key, const std::string& v) {
    entries_.emplace_back(key, QuoteJsonString(v));
  }

  void Bool(const std::string& key, bool v) {
    entries_.emplace_back(key, v ? "true" : "false");
  }

  // Embeds pre-serialized JSON verbatim — the escape hatch for nested
  // arrays/objects (flight-recorder series dumps) that the flat schema
  // otherwise excludes. The caller vouches for the value's syntax;
  // CheckJsonSyntax (bench/json_lite.h) verifies whole documents.
  void Raw(const std::string& key, std::string json) {
    entries_.emplace_back(key, std::move(json));
  }

  std::string Finish() const {
    std::string out = "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
      out += i + 1 < entries_.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  // Returns false (and prints to stderr) if the file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_writer: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const std::string text = Finish();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace espk

#endif  // SRC_BASE_JSON_WRITER_H_
