// hwcounters: availability probing, graceful degradation, delta
// arithmetic, and run-report attribution.
//
// These tests must pass both where perf_event_open works AND where it
// does not (locked-down CI, container without a PMU, CCMX_OBS=OFF):
// environment-dependent facts are asserted as coherence between the
// probe and its consumers, and the degraded paths are forced explicitly
// through the test hooks instead of relying on the machine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/hwcounters.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace {

using namespace ccmx;
using ccmx::obs::json::Value;

TEST(HwDelta, SubtractsFieldwiseAndSaturates) {
  obs::HwCounters start;
  start.available = true;
  start.instructions = 100;
  start.cycles = 200;
  start.task_clock_ns = 50;
  obs::HwCounters end = start;
  end.instructions = 175;
  end.cycles = 150;  // multiplex-scaling wobble: end < start
  end.task_clock_ns = 60;
  const obs::HwCounters d = obs::hw_delta(start, end);
  EXPECT_TRUE(d.available);
  EXPECT_EQ(d.instructions, 75u);
  EXPECT_EQ(d.cycles, 0u);  // saturated, not wrapped to ~2^64
  EXPECT_EQ(d.task_clock_ns, 10u);
}

TEST(HwDelta, UnavailableOperandPoisonsTheDelta) {
  obs::HwCounters live;
  live.available = true;
  live.instructions = 10;
  const obs::HwCounters degraded;  // available = false
  EXPECT_FALSE(obs::hw_delta(live, degraded).available);
  EXPECT_FALSE(obs::hw_delta(degraded, live).available);
  EXPECT_FALSE(obs::hw_delta(degraded, degraded).available);
}

TEST(HwCounters, DerivedRatesAreZeroWhenUnavailable) {
  obs::HwCounters c;
  c.instructions = 500;  // numbers present but available=false
  c.cycles = 100;
  c.cache_references = 10;
  c.cache_misses = 5;
  EXPECT_EQ(c.ipc(), 0.0);
  EXPECT_EQ(c.cache_miss_rate(), 0.0);
  EXPECT_EQ(c.branch_miss_rate(), 0.0);
  c.available = true;
  EXPECT_DOUBLE_EQ(c.ipc(), 5.0);
  EXPECT_DOUBLE_EQ(c.cache_miss_rate(), 0.5);
  EXPECT_EQ(c.branch_miss_rate(), 0.0);  // no branches recorded
}

#ifndef CCMX_OBS_DISABLED

/// Restores the real probe state after a test that forced/reprobed it.
class HwProbeGuard {
 public:
  ~HwProbeGuard() {
    ::unsetenv("CCMX_HW");
    obs::hw_reset_for_testing();
  }
};

TEST(HwProbe, AvailabilityIsCoherentEitherWay) {
  // Whatever this machine is, the probe and its consumers must agree.
  const bool available = obs::hw_available();
  EXPECT_EQ(obs::hw_read().available, available);
  const obs::HwRegion region;
  EXPECT_EQ(region.available(), available);
  EXPECT_EQ(region.delta().available, available);
  if (available) {
    EXPECT_TRUE(obs::hw_unavailable_reason().empty());
    // Counting is live: burning cycles moves the instruction counter.
    const obs::HwCounters before = obs::hw_read();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
    const obs::HwCounters delta = obs::hw_delta(before, obs::hw_read());
    EXPECT_GT(delta.instructions, 0u);
    EXPECT_GT(delta.cycles, 0u);
  } else {
    EXPECT_FALSE(obs::hw_unavailable_reason().empty());
  }
}

TEST(HwProbe, EnvOffDisablesWithExplicitReason) {
  const HwProbeGuard guard;
  ::setenv("CCMX_HW", "off", /*overwrite=*/1);
  obs::hw_reset_for_testing();
  EXPECT_FALSE(obs::hw_available());
  EXPECT_EQ(obs::hw_unavailable_reason(), "disabled by CCMX_HW=off");
  EXPECT_FALSE(obs::hw_read().available);
}

TEST(HwProbe, ForcedUnavailableSimulatesEperm) {
  const HwProbeGuard guard;
  // The EPERM path without needing a locked-down kernel: every consumer
  // must degrade to "unavailable", never serve zeros as measurements.
  obs::hw_force_unavailable_for_testing(
      "perf_event_open failed: EPERM (simulated)");
  EXPECT_FALSE(obs::hw_available());
  EXPECT_EQ(obs::hw_unavailable_reason(),
            "perf_event_open failed: EPERM (simulated)");
  EXPECT_FALSE(obs::hw_read().available);
  const obs::HwRegion region;
  EXPECT_FALSE(region.available());
  EXPECT_FALSE(region.delta().available);
  EXPECT_EQ(region.delta().ipc(), 0.0);
}

// ---------------------------------------------------------- run report

const Value* find_key(const Value& obj, const std::string& key) {
  return obj.find(key);
}

TEST(HwReport, RendersAvailableHwBlockAndValidates) {
  obs::RunReport report;
  report.name = "hwtest";
  report.hw.available = true;
  report.hw.instructions = 1000;
  report.hw.cycles = 500;
  report.hw.cache_references = 100;
  report.hw.cache_misses = 10;
  report.hw.branches = 200;
  report.hw.branch_misses = 20;
  report.hw.task_clock_ns = 12345;
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* hw = find_key(doc, "hw");
  ASSERT_NE(hw, nullptr);
  ASSERT_TRUE(hw->is_object());
  EXPECT_TRUE(hw->find("available")->boolean);
  EXPECT_DOUBLE_EQ(hw->find("instructions")->number, 1000.0);
  EXPECT_DOUBLE_EQ(hw->find("ipc")->number, 2.0);
  EXPECT_DOUBLE_EQ(hw->find("cache_miss_rate")->number, 0.1);
  EXPECT_EQ(hw->find("reason"), nullptr);
}

TEST(HwReport, DegradedReportRendersReasonNotZeros) {
  const HwProbeGuard guard;
  obs::hw_force_unavailable_for_testing("perf_event_open failed: EPERM "
                                        "(simulated)");
  obs::RunReport report;
  report.name = "hwtest_degraded";
  // report.hw left unavailable: the renderer captures hw_read() itself
  // (the max_rss_bytes rule) and finds the forced degradation.
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* hw = find_key(doc, "hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_FALSE(hw->find("available")->boolean);
  EXPECT_EQ(hw->find("instructions"), nullptr);  // no zero counters
  ASSERT_NE(hw->find("reason"), nullptr);
  EXPECT_EQ(hw->find("reason")->string,
            "perf_event_open failed: EPERM (simulated)");
}

TEST(HwReport, RusageExtrasAreRenderedAndNonNegative) {
  const obs::RusageExtras extras = obs::current_rusage_extras();
  EXPECT_GE(extras.minor_faults, 0);
  EXPECT_GE(extras.voluntary_ctx_switches, 0);
  obs::RunReport report;
  report.name = "hwtest_rusage";
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  for (const char* key : {"minor_faults", "major_faults",
                          "voluntary_ctx_switches",
                          "involuntary_ctx_switches"}) {
    const Value* v = find_key(doc, key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
    EXPECT_GE(v->number, 0.0) << key;
  }
}

TEST(HwReport, BenchmarkRowCarriesHwAndInsnPerIteration) {
  obs::RunReport report;
  report.name = "hwtest_rows";
  obs::BenchmarkRun with_hw;
  with_hw.name = "bench_with_hw";
  with_hw.iterations = 10;
  with_hw.hw.available = true;
  with_hw.hw.instructions = 1000;
  with_hw.hw.cycles = 400;
  report.benchmarks.push_back(with_hw);
  obs::BenchmarkRun without_hw;
  without_hw.name = "bench_without_hw";
  without_hw.iterations = 10;
  report.benchmarks.push_back(without_hw);
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* rows = find_key(doc, "benchmarks");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  const Value* hw0 = rows->array[0].find("hw");
  ASSERT_NE(hw0, nullptr);
  EXPECT_TRUE(hw0->find("available")->boolean);
  EXPECT_DOUBLE_EQ(rows->array[0].find("insn_per_iteration")->number, 100.0);
  // A row without counters has no hw object at all — absent, not zeros.
  EXPECT_EQ(rows->array[1].find("hw"), nullptr);
  EXPECT_EQ(rows->array[1].find("insn_per_iteration"), nullptr);
}

#else  // CCMX_OBS_DISABLED

TEST(HwDisabled, EverythingIsAnExplicitNoOp) {
  EXPECT_FALSE(obs::hw_available());
  EXPECT_EQ(obs::hw_unavailable_reason(),
            "observability compiled out (CCMX_OBS=OFF)");
  EXPECT_FALSE(obs::hw_read().available);
  const obs::HwRegion region;
  EXPECT_FALSE(region.available());
  EXPECT_FALSE(region.delta().available);
}

#endif  // CCMX_OBS_DISABLED

}  // namespace
