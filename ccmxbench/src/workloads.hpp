// The benchmark's four workloads.
//
// An instance is one input together with every call the workload makes on
// it.  A workload draws a fixed pool of instances from the seed, labels
// them from their construction, and runs them one at a time (closed loop,
// one caller thread).  The pool is laid out in blocks that each hold the
// workload's fixed mix once, so a run cut at any point has measured the
// mix in its stated proportions up to one partial block.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace ccmxbench {

/// What one instance did: its timing, its checks and the exact counts read
/// from the public return values.
struct InstanceOutcome {
  double latency_s = 0.0;  // summed wall time of the timed library calls
  std::string failure;     // first failed check; empty when all passed
  std::string label;       // "singular" / "nonsingular" where it applies
  std::uint64_t comm_bits = 0;
  std::uint64_t comm_rounds = 0;
  std::uint64_t mesh_cycles = 0;
  std::uint64_t bisection_bits = 0;
  std::uint64_t census_evaluations = 0;
  std::uint64_t fp_false_singular = 0;
  double pool_cpu_s = 0.0;   // process CPU time over the census calls
  double pool_wall_s = 0.0;  // wall time over the same calls
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker-pool degree the workload runs with.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }

  /// Draws the instance pool (inputs and protocol parameters) from `seed`.
  virtual void generate(std::uint64_t seed) = 0;

  /// Computes the expected answers the checks compare against.
  virtual void label() = 0;

  [[nodiscard]] virtual std::size_t pool_size() const = 0;

  /// Instances in one block of the mix; pool_size() is a multiple of it.
  [[nodiscard]] virtual std::size_t block_size() const = 0;

  /// Runs instance `index` of the pool.  With a recorder, every library
  /// call is also recorded as a span under one root span per instance.
  virtual InstanceOutcome run(std::size_t index, SpanRecorder* recorder,
                              std::uint64_t instance_id) = 0;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.  `nproc` sizes the census worker pool.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::size_t nproc);

}  // namespace ccmxbench
