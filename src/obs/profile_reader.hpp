// Reader and rollups for ccmx.profile/1 JSONL — the sampling CPU
// profiler's output (see obs/profiler.hpp for the writer).
//
// The stream is: one "meta" row carrying the schema id, sampling rate,
// and timer mechanism; interned "frame" rows (one per distinct program
// counter, symbolized offline); "sample" rows whose leaf-first "stack"
// arrays reference frames by id; and a closing "ledger" row whose
// conservation invariant — captured == written + dropped — proves no
// sample went missing unaccounted.
//
// Loading is tolerant (json::read_jsonl): a torn final line (killed
// process) or foreign line is skipped and counted, and structural
// problems (unopenable file, wrong schema, missing ledger) land in
// `problems` instead of throwing — the analysis CLI renders partial
// data with a note rather than refusing.
//
// This header is NOT gated on CCMX_OBS_DISABLED: reading a profile that
// some other build wrote is pure file analysis and must work from an
// obs-off `ccmx_insight` too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccmx::obs {

/// One interned program counter.  `symbolized` is true when dladdr
/// named the enclosing function; false frames carry module+offset (or a
/// bare hex address) in `sym` instead.
struct ProfileFrame {
  std::uint64_t id = 0;
  std::uint64_t pc = 0;
  std::string sym;
  std::string module;
  std::uint64_t off = 0;
  bool symbolized = false;
};

/// One captured stack: leaf-first frame ids, the obs span the sample
/// landed inside (0 when no span was open), and a now_us()-timeline
/// timestamp so samples merge with the span forest of the same run.
struct ProfileSample {
  std::uint32_t tid = 0;
  std::uint64_t span = 0;
  std::int64_t t_us = 0;
  std::vector<std::uint64_t> stack;
};

/// The closing conservation ledger.
struct ProfileLedger {
  std::uint64_t captured = 0;
  std::uint64_t written = 0;
  std::uint64_t dropped = 0;
  std::uint64_t truncated = 0;
  std::uint64_t threads = 0;
};

struct ProfileData {
  std::string path;
  unsigned hz = 0;
  std::string mechanism;  ///< "timer_create" or "setitimer"
  std::int64_t start_us = 0;
  std::vector<ProfileFrame> frames;
  std::map<std::uint64_t, std::size_t> frame_index;  ///< id -> frames[]
  std::vector<ProfileSample> samples;
  bool has_ledger = false;
  ProfileLedger ledger;
  std::size_t skipped = 0;  ///< malformed / foreign lines
  std::vector<std::string> problems;

  [[nodiscard]] const ProfileFrame* frame(std::uint64_t id) const {
    const auto it = frame_index.find(id);
    return it == frame_index.end() ? nullptr : &frames[it->second];
  }
  /// The ledger's conservation invariant; vacuously false without one.
  [[nodiscard]] bool ledger_balances() const noexcept {
    return has_ledger && ledger.captured == ledger.written + ledger.dropped;
  }
};

/// Tolerant load (never throws for content reasons; see file comment).
[[nodiscard]] ProfileData load_profile(const std::string& path);

/// Per-function rollup: `self` counts samples whose leaf landed in the
/// function, `total` counts samples with the function anywhere on the
/// stack (each sample counted once per function, so recursion does not
/// inflate totals).  Sorted by self descending, then total.
struct ProfileHotspot {
  std::string sym;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] std::vector<ProfileHotspot> profile_hotspots(
    const ProfileData& data);

/// Collapsed (folded) stacks, root-first and ';'-joined — the classic
/// flamegraph.pl input format: "main;solve;BigInt::mul 42".
[[nodiscard]] std::map<std::string, std::uint64_t> collapsed_stacks(
    const ProfileData& data);

/// Fraction of samples attributable to at least one symbolized frame
/// (0.0 when there are no samples).
[[nodiscard]] double symbolized_sample_fraction(const ProfileData& data);

/// Sample counts keyed by span id (0 = outside any span), for merging
/// with the span forest of the same run's trace.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> samples_by_span(
    const ProfileData& data);

}  // namespace ccmx::obs
