// Hardware counters for run reports.
//
// Why: every perf claim in this repo rests on cpu_time, which is noisy on
// shared CI runners (the regression gate needs a ±50% tolerance there).
// Retired-instruction counts are near-deterministic run to run and
// separate "doing more work" from "doing the same work with worse IPC",
// so the diff gate can be far tighter on them.
//
// The counter set is fixed: instructions, cycles, cache-references,
// cache-misses, branches, branch-misses (PERF_TYPE_HARDWARE) plus
// task-clock (PERF_TYPE_SOFTWARE), each opened as its own perf fd with
// inherit=1 so threads spawned later (the worker pool) are included —
// PERF_FORMAT_GROUP and inherit do not combine, which is why there is no
// counter *group* fd.  Counts are scaled by time_enabled/time_running, so
// they stay meaningful when the PMU multiplexes.
//
// Graceful degradation is a first-class mode, not an error: EPERM/EACCES
// (perf_event_paranoid too strict), ENOSYS/ENOENT (no PMU — common in
// containers and VMs), `CCMX_HW=off`, and non-Linux builds all yield
// hw_available()==false with a once-per-probe stderr diagnostic, and
// every snapshot carries available=false so downstream consumers render
// "unavailable" instead of zeros.
//
// The only consumer is obs/report: the process delta and the
// per-benchmark rows of a run report, which the `ccmx_insight diff`
// instruction gate reads back.
//
// Defining CCMX_OBS_DISABLED (CMake CCMX_OBS=OFF) compiles all of this
// down to inline no-ops, like the rest of the obs layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ccmx::obs {

/// One snapshot (or delta) of the fixed hardware-counter set.  A plain
/// value type in every build mode; `available` is false when the
/// numbers mean nothing (counters degraded or never opened) and
/// consumers must render "unavailable", never the zeros.
struct HwCounters {
  bool available = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;

  /// Instructions per cycle; 0 when unavailable or no cycles elapsed.
  [[nodiscard]] double ipc() const noexcept {
    return available && cycles > 0
               ? static_cast<double>(instructions) / static_cast<double>(cycles)
               : 0.0;
  }
  /// cache_misses / cache_references; 0 when unavailable or unreferenced.
  [[nodiscard]] double cache_miss_rate() const noexcept {
    return available && cache_references > 0
               ? static_cast<double>(cache_misses) /
                     static_cast<double>(cache_references)
               : 0.0;
  }
  /// branch_misses / branches; 0 when unavailable or branch-free.
  [[nodiscard]] double branch_miss_rate() const noexcept {
    return available && branches > 0
               ? static_cast<double>(branch_misses) /
                     static_cast<double>(branches)
               : 0.0;
  }
};

/// end - start, field by field, saturating at 0 (multiplex scaling can
/// make totals regress by a rounding error).  The result is available
/// only when both operands are.
[[nodiscard]] inline HwCounters hw_delta(const HwCounters& start,
                                         const HwCounters& end) noexcept {
  const auto sub = [](std::uint64_t a, std::uint64_t b) noexcept {
    return b > a ? b - a : std::uint64_t{0};
  };
  HwCounters d;
  d.available = start.available && end.available;
  d.instructions = sub(start.instructions, end.instructions);
  d.cycles = sub(start.cycles, end.cycles);
  d.cache_references = sub(start.cache_references, end.cache_references);
  d.cache_misses = sub(start.cache_misses, end.cache_misses);
  d.branches = sub(start.branches, end.branches);
  d.branch_misses = sub(start.branch_misses, end.branch_misses);
  d.task_clock_ns = sub(start.task_clock_ns, end.task_clock_ns);
  return d;
}

#ifndef CCMX_OBS_DISABLED

/// True when the perf counter set is open and counting.  The first call
/// probes: honors CCMX_HW=off, opens the fds (instructions and cycles
/// are required, the rest optional — some hypervisors expose only a
/// partial PMU), and on failure reports the reason to stderr once and
/// latches unavailable for the rest of the process.
[[nodiscard]] bool hw_available() noexcept;

/// Human-readable reason counters are unavailable ("" when available):
/// "CCMX_HW=off", "perf_event_open failed: EPERM (perf_event_paranoid=N;
/// lower it or run privileged)", "not a Linux build", ...
[[nodiscard]] std::string hw_unavailable_reason();

/// Current counter totals since the probe opened the fds (multiplex
/// scaled).  available=false snapshot when degraded.
[[nodiscard]] HwCounters hw_read() noexcept;

/// RAII scoped measurement: snapshots at construction, delta() reads the
/// distance travelled since.  Cheap when unavailable (no syscalls).
class HwRegion {
 public:
  HwRegion() : start_(hw_read()) {}

  [[nodiscard]] bool available() const noexcept { return start_.available; }
  [[nodiscard]] HwCounters delta() const noexcept {
    return hw_delta(start_, hw_read());
  }

 private:
  HwCounters start_;
};

/// Test hooks.  hw_reset_for_testing() closes the fds and forgets the
/// probe result so the next hw_available() re-reads the environment;
/// hw_force_unavailable_for_testing() latches the degraded mode with a
/// given reason (simulating EPERM without needing a locked-down kernel).
void hw_reset_for_testing() noexcept;
void hw_force_unavailable_for_testing(std::string_view reason);

#else  // CCMX_OBS_DISABLED: inline no-ops, like the rest of the layer.

[[nodiscard]] inline bool hw_available() noexcept { return false; }
[[nodiscard]] inline std::string hw_unavailable_reason() {
  return "observability compiled out (CCMX_OBS=OFF)";
}
[[nodiscard]] inline HwCounters hw_read() noexcept { return {}; }

class HwRegion {
 public:
  HwRegion() = default;
  [[nodiscard]] bool available() const noexcept { return false; }
  [[nodiscard]] HwCounters delta() const noexcept { return {}; }
};

inline void hw_reset_for_testing() noexcept {}
inline void hw_force_unavailable_for_testing(std::string_view) {}

#endif  // CCMX_OBS_DISABLED

}  // namespace ccmx::obs
