// Environment knobs: one reader for the boolean switches (CCMX_TRACE,
// CCMX_PROGRESS) and one strict reader for the integer ones
// (CCMX_THREADS, CCMX_PROGRESS_MS, CCMX_PROF_HZ, CCMX_TRACE_BUFFER).
//
// Header-only on purpose: the obs layer reads its knobs through this
// header, and ccmx_util links ccmx_obs, not the other way round.
#pragma once

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace ccmx::util {

/// True when `name` is set to anything but "", "0", "false", "off" or
/// "no".
[[nodiscard]] inline bool env_truthy(const char* name) noexcept {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return false;
  const std::string_view v(raw);
  return v != "0" && v != "false" && v != "off" && v != "no";
}

/// Reads the integer knob `name`.  Unset or empty yields `fallback`.  The
/// value must be plain decimal digits in [lo, hi]: a sign, trailing text
/// ("4x"), overflow or an out-of-range number also yields `fallback`,
/// after one stderr line naming the value and the fallback:
///   ccmx: ignoring NAME='VALUE' (expected WHAT); using FALLBACK
[[nodiscard]] inline std::uint64_t env_uint(const char* name, std::uint64_t lo,
                                            std::uint64_t hi,
                                            std::uint64_t fallback,
                                            const char* what) noexcept {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  const std::string_view v(raw);
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), value);
  if (ec == std::errc{} && end == v.data() + v.size() && value >= lo &&
      value <= hi) {
    return value;
  }
  std::fprintf(stderr,
               "ccmx: ignoring %s='%s' (expected %s); using %" PRIu64 "\n",
               name, raw, what, fallback);
  return fallback;
}

}  // namespace ccmx::util
