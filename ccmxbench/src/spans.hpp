// In-memory span recorder and summarizer of the benchmark.
//
// Deliberately independent of the program's own tracing (obs::ScopedSpan):
// the benchmark times calls into each layer from outside, so changes to the
// program's instrumentation cannot change what the benchmark measures.
// Spans are named "<layer>.<call>", carry the id of the instance they
// belong to, and nest through a per-recorder stack (the benchmark calls the
// library from one thread).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccmxbench {

/// Monotonic nanoseconds (steady clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // 1-based, unique within the recorder
  std::uint64_t parent = 0;  // 0 at the root
  std::uint64_t instance = 0;
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its id.
  std::uint64_t open(std::string_view name, std::uint64_t instance,
                     std::int64_t start_ns);
  /// Closes the innermost open span, which must be `id`.
  void close(std::uint64_t id, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// One JSON object per line: name, start_ns, end_ns, id, parent, instance.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

/// Self time of every span, in nanoseconds, indexed like `spans`: its
/// duration minus the part of its interval covered by the union of its
/// children's intervals (children may overlap each other, and a child that
/// sticks out of its parent only counts inside it).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

}  // namespace ccmxbench
