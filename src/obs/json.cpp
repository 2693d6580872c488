#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::obs::json {

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        unsigned{static_cast<unsigned char>(c)});
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Writer::prefix() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.kind == 'o') {
    CCMX_REQUIRE(top.key_pending, "json: object value without a key");
    top.key_pending = false;
    return;  // comma was emitted with the key
  }
  if (top.saw_value) *os_ << ',';
  top.saw_value = true;
}

Writer& Writer::begin_object() {
  prefix();
  *os_ << '{';
  stack_.push_back({'o'});
  return *this;
}

Writer& Writer::end_object() {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'o' &&
                   !stack_.back().key_pending,
               "json: unbalanced end_object");
  stack_.pop_back();
  *os_ << '}';
  return *this;
}

Writer& Writer::begin_array() {
  prefix();
  *os_ << '[';
  stack_.push_back({'a'});
  return *this;
}

Writer& Writer::end_array() {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'a',
               "json: unbalanced end_array");
  stack_.pop_back();
  *os_ << ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'o' &&
                   !stack_.back().key_pending,
               "json: key outside an object");
  Frame& top = stack_.back();
  if (top.saw_value) *os_ << ',';
  top.saw_value = true;
  top.key_pending = true;
  *os_ << '"' << escape(k) << "\":";
  return *this;
}

Writer& Writer::value(std::string_view s) {
  prefix();
  *os_ << '"' << escape(s) << '"';
  return *this;
}

Writer& Writer::value(double d) {
  prefix();
  if (!std::isfinite(d)) {
    *os_ << "null";  // JSON has no inf/nan
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *os_ << buf;
  return *this;
}

Writer& Writer::value(std::uint64_t u) {
  prefix();
  *os_ << u;
  return *this;
}

Writer& Writer::value(std::int64_t i) {
  prefix();
  *os_ << i;
  return *this;
}

Writer& Writer::value(bool b) {
  prefix();
  *os_ << (b ? "true" : "false");
  return *this;
}

Writer& Writer::null() {
  prefix();
  *os_ << "null";
  return *this;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t at = 0;
  std::size_t depth = 0;  // open arrays/objects around the cursor

  [[noreturn]] void fail(const std::string& what) const {
    CCMX_REQUIRE(false, "json parse error at offset " + std::to_string(at) +
                            ": " + what);
    std::abort();  // unreachable (CCMX_REQUIRE throws)
  }

  void skip_ws() {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\t' ||
                                text[at] == '\n' || text[at] == '\r')) {
      ++at;
    }
  }

  char peek() {
    if (at >= text.size()) fail("unexpected end of input");
    return text[at];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(at, lit.size()) != lit) return false;
    at += lit.size();
    return true;
  }

  /// A UTF-8 code unit is a raw byte pattern: values >= 0x80 are *meant*
  /// to land on (possibly negative) char — re-encoding, not numeric
  /// narrowing, so the checked helpers do not apply.
  static char u8_byte(unsigned unit) {
    return static_cast<char>(unit);  // ccmx-lint: allow(narrow)
  }

  void append_codepoint(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += u8_byte(cp);
    } else if (cp < 0x800) {
      out += u8_byte(0xC0 | (cp >> 6));
      out += u8_byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += u8_byte(0xE0 | (cp >> 12));
      out += u8_byte(0x80 | ((cp >> 6) & 0x3F));
      out += u8_byte(0x80 | (cp & 0x3F));
    } else {
      out += u8_byte(0xF0 | (cp >> 18));
      out += u8_byte(0x80 | ((cp >> 12) & 0x3F));
      out += u8_byte(0x80 | ((cp >> 6) & 0x3F));
      out += u8_byte(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++at;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= util::narrow_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= util::narrow_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= util::narrow_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++at;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++at;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF && consume_literal("\\u")) {
            const unsigned low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          }
          append_codepoint(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = at;
    if (peek() == '-') ++at;
    while (at < text.size() &&
           ((text[at] >= '0' && text[at] <= '9') || text[at] == '.' ||
            text[at] == 'e' || text[at] == 'E' || text[at] == '+' ||
            text[at] == '-')) {
      ++at;
    }
    const std::string token(text.substr(start, at - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') fail("bad number");
    return value;
  }

  /// Enters one array/object level; fails past kMaxDepth.
  void descend() {
    if (++depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
  }

  Value parse_value() {
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{') {
      ++at;
      descend();
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++at;
        --depth;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++at;
          continue;
        }
        expect('}');
        --depth;
        return v;
      }
    }
    if (c == '[') {
      ++at;
      descend();
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++at;
        --depth;
        return v;
      }
      for (;;) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++at;
          continue;
        }
        expect(']');
        --depth;
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_literal("null")) return v;
    v.kind = Value::Kind::kNumber;
    v.number = parse_number();
    return v;
  }
};

}  // namespace

Value parse(std::string_view text) {
  Parser parser{text};
  Value v = parser.parse_value();
  parser.skip_ws();
  CCMX_REQUIRE(parser.at == text.size(), "json: trailing garbage");
  return v;
}

std::size_t read_jsonl(std::istream& in,
                       const std::function<bool(const Value&)>& on_document) {
  std::size_t skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Value doc;
    try {
      doc = parse(line);
    } catch (const util::contract_error&) {
      ++skipped;
      continue;
    }
    if (!on_document(doc)) break;
  }
  return skipped;
}

}  // namespace ccmx::obs::json
