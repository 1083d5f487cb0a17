#include "json.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace calibre::bench {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    const bool ok = value(out, 0) && (skip_space(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "malformed JSON near byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  // Deep enough for any file bench_e2e writes; bounds the recursion on
  // hostile input.
  static constexpr int kMaxDepth = 64;

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // Only ASCII escapes occur in the files this reads.
          if (pos_ + 4 > text_.size()) return false;
          const long code =
              std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16);
          if (code <= 0 || code > 0x7F) return false;
          out->push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool number(double* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_space();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      if (consume('}')) return true;
      do {
        std::pair<std::string, JsonValue> member;
        if (!string(&member.first) || !consume(':') ||
            !value(&member.second, depth + 1)) {
          return false;
        }
        out->object.push_back(std::move(member));
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      if (consume(']')) return true;
      do {
        out->array.emplace_back();
        if (!value(&out->array.back(), depth + 1)) return false;
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return string(&out->string);
    }
    if (literal("true") || literal("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return true;
    }
    if (literal("null")) {
      out->type = JsonValue::Type::kNull;
      return true;
    }
    out->type = JsonValue::Type::kNumber;
    return number(&out->number);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, member] : object) {
    if (name == key) return &member;
  }
  return nullptr;
}

bool parse_json(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text).parse(out, error);
}

bool read_json_file(const std::string& path, JsonValue* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!parse_json(text.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace calibre::bench
