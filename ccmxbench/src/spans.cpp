#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

namespace ccmxbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::open(std::string_view name,
                                 std::uint64_t instance,
                                 std::int64_t start_ns) {
  Span span;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.id = spans_.size() + 1;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.instance = instance;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id, std::int64_t end_ns) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  stack_.pop_back();
  spans_[id - 1].end_ns = end_ns;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"instance\":" << s.instance
        << "}\n";
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Child intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace ccmxbench
