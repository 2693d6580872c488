// Minimal JSON support for the observability exporters.
//
// Two halves: a streaming Writer used to render RunReports and JSONL trace
// events (no intermediate DOM, deterministic field order), and a small
// recursive-descent parser (plus its tolerant JSONL line reader) used by
// tests and tools to schema-check what the writer produced.  Deliberately
// tiny: UTF-8 pass-through, doubles for all numbers, ordered object
// members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccmx::obs::json {

/// Escapes `raw` for inclusion inside a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string escape(std::string_view raw);

/// Streaming JSON writer.  Nesting is tracked so a malformed emission
/// sequence trips a contract failure instead of producing garbage.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(&os) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Emits an object key; must be inside an object, before its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double d);
  Writer& value(std::uint64_t u);
  Writer& value(std::int64_t i);
  Writer& value(int i) { return value(static_cast<std::int64_t>(i)); }
  Writer& value(bool b);
  Writer& null();

 private:
  void prefix();  // comma / nesting bookkeeping before any value
  std::ostream* os_;
  // One frame per open container: 'o'/'a', plus whether a value was
  // already emitted (for comma placement) and whether a key is pending.
  struct Frame {
    char kind;
    bool saw_value = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
};

/// Parsed JSON value (ordered object members, doubles for numbers).
struct Value {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Deepest array/object nesting parse() accepts.  Every document this
/// repo writes nests a handful of levels; the bound keeps a hostile
/// `[[[...]]]` from overflowing the recursive parser's stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses a complete JSON document; throws util::contract_error on
/// malformed input, trailing garbage, or nesting deeper than kMaxDepth.
[[nodiscard]] Value parse(std::string_view text);

/// The tolerant JSONL read every line-oriented loader shares: blank lines
/// are skipped, a line that does not parse (the torn tail of a killed
/// writer, or any other damage) is skipped and counted, and every other
/// line is handed to `on_document`.  Reading stops early when
/// `on_document` returns false.  Returns the number of unparseable lines.
std::size_t read_jsonl(std::istream& in,
                       const std::function<bool(const Value&)>& on_document);

}  // namespace ccmx::obs::json
