#include "obs/hwcounters.hpp"

#ifndef CCMX_OBS_DISABLED

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "util/narrow.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ccmx::obs {

namespace {

// ------------------------------------------------------ counter state

enum HwEvent : std::size_t {
  kInstructions = 0,
  kCycles,
  kCacheReferences,
  kCacheMisses,
  kBranches,
  kBranchMisses,
  kTaskClock,
  kEventCount,
};

struct HwState {
  bool probed = false;
  bool available = false;
  std::string reason = "not probed";
  int fds[kEventCount] = {-1, -1, -1, -1, -1, -1, -1};
};

std::mutex& hw_mutex() {
  static std::mutex m;
  return m;
}

HwState& hw_state() {
  static HwState state;
  return state;
}

bool env_requests_off() {
  const char* env = std::getenv("CCMX_HW");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "off" || v == "0" || v == "false" || v == "OFF";
}

#if defined(__linux__)

long read_paranoid_level() {
  std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
  long level = -100;  // sentinel: file unreadable
  if (in.is_open()) in >> level;
  return level;
}

std::string errno_hint(int err) {
  switch (err) {
    case EPERM:
    case EACCES: {
      std::string hint = "EPERM (insufficient permission";
      const long paranoid = read_paranoid_level();
      if (paranoid != -100) {
        hint += "; perf_event_paranoid=" + std::to_string(paranoid);
      }
      hint += ")";
      return hint;
    }
    case ENOENT: return "ENOENT (event not supported by this PMU)";
    case ENOSYS: return "ENOSYS (kernel built without perf events)";
    case ENODEV: return "ENODEV (no PMU on this machine/VM)";
    default: return std::strerror(err);
  }
}

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

int open_event(std::uint32_t type, std::uint64_t config, int& err) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  // inherit=1 so worker-pool threads spawned after the probe count too;
  // this is also why each event has its own fd — PERF_FORMAT_GROUP reads
  // and inherit do not combine.
  attr.inherit = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = sys_perf_event_open(&attr, 0, -1, -1, PERF_FLAG_FD_CLOEXEC);
  if (fd < 0) {
    err = errno;
    return -1;
  }
  return util::narrow_cast<int>(fd);
}

/// One fd's count, scaled by time_enabled/time_running so multiplexed
/// counters stay comparable; 0 for a closed fd or a failed read.
std::uint64_t read_scaled(int fd) noexcept {
  if (fd < 0) return 0;
  std::uint64_t buf[3] = {0, 0, 0};  // {value, time_enabled, time_running}
  if (::read(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) {
    return 0;
  }
  if (buf[2] == 0 || buf[1] == buf[2]) return buf[0];
  const double scaled = static_cast<double>(buf[0]) *
                        (static_cast<double>(buf[1]) /
                         static_cast<double>(buf[2]));
  return static_cast<std::uint64_t>(scaled);
}

/// Opens the counter set.  instructions + cycles are required; the rest
/// are optional (partial PMUs in VMs expose only a subset) and read 0
/// when absent.  Called once under hw_mutex().
void probe_locked(HwState& state) {
  state.probed = true;
  if (env_requests_off()) {
    state.available = false;
    state.reason = "disabled by CCMX_HW=off";
    return;
  }
  struct EventSpec {
    std::uint32_t type;
    std::uint64_t config;
    bool required;
  };
  static constexpr EventSpec kEvents[kEventCount] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, true},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, true},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, false},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, false},
  };
  for (std::size_t i = 0; i < kEventCount; ++i) {
    int err = 0;
    state.fds[i] = open_event(kEvents[i].type, kEvents[i].config, err);
    if (state.fds[i] < 0 && kEvents[i].required) {
      for (std::size_t j = 0; j < i; ++j) {
        if (state.fds[j] >= 0) ::close(state.fds[j]);
        state.fds[j] = -1;
      }
      state.available = false;
      state.reason = "perf_event_open failed: " + errno_hint(err);
      return;
    }
  }
  state.available = true;
  state.reason.clear();
}

void close_fds_locked(HwState& state) noexcept {
  for (int& fd : state.fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

#else  // non-Linux

void probe_locked(HwState& state) {
  state.probed = true;
  state.available = false;
  state.reason = env_requests_off() ? "disabled by CCMX_HW=off"
                                    : "perf_event_open requires Linux";
}

void close_fds_locked(HwState&) noexcept {}

#endif  // __linux__

/// Probes on first call; the unavailable diagnostic prints once per
/// probe (re-probing is a test-only affair), never on the hot path.
const HwState& probed_state() {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  if (!state.probed) {
    probe_locked(state);
    if (!state.available) {
      std::fprintf(stderr, "ccmx: hardware counters unavailable: %s\n",
                   state.reason.c_str());
    }
  }
  return state;
}

}  // namespace

// ---------------------------------------------------------- public api

bool hw_available() noexcept { return probed_state().available; }

std::string hw_unavailable_reason() { return probed_state().reason; }

HwCounters hw_read() noexcept {
  const HwState& state = probed_state();
  HwCounters counters;
  if (!state.available) return counters;
#if defined(__linux__)
  counters.available = true;
  counters.instructions = read_scaled(state.fds[kInstructions]);
  counters.cycles = read_scaled(state.fds[kCycles]);
  counters.cache_references = read_scaled(state.fds[kCacheReferences]);
  counters.cache_misses = read_scaled(state.fds[kCacheMisses]);
  counters.branches = read_scaled(state.fds[kBranches]);
  counters.branch_misses = read_scaled(state.fds[kBranchMisses]);
  counters.task_clock_ns = read_scaled(state.fds[kTaskClock]);
#endif
  return counters;
}

void hw_reset_for_testing() noexcept {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  close_fds_locked(state);
  state.probed = false;
  state.available = false;
  state.reason = "not probed";
}

void hw_force_unavailable_for_testing(std::string_view reason) {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  close_fds_locked(state);
  state.probed = true;
  state.available = false;
  state.reason = std::string(reason);
}

}  // namespace ccmx::obs

#endif  // CCMX_OBS_DISABLED
