// ccmxbench runner: runs one workload for a fixed time and prints every
// metric with its name and unit; the last line of stdout is the JSON result.
//
//   ccmxbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <path>]
//
// --trace 0 measures the end-to-end metrics with every kind of tracing off.
// --trace 1 spends half the time untraced and half traced — the
// benchmark's own spans around each library call, plus the program's obs
// counters — and prints the per-layer metrics.  Exits 1 when any output
// check failed, 2 on bad usage, 3 when the build is unfit for timing.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

extern char** environ;  // NOLINT(readability-redundant-declaration)

namespace {

using namespace ccmxbench;

constexpr int kSetupReps = 3;
// Never measure past this point of the process's life, whatever the sample
// count: the run must end well inside its 180 s limit.
constexpr double kDeadlineS = 150.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && o.seconds > 0.0 && o.seconds <= 60.0;
    } else if (key == "--trace") {
      o.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (key == "--spans-out") {
      o.spans_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have[0] || !have[1] || !have[2] || !have[3]) {
    return std::nullopt;
  }
  return o;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(CCMXBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

/// Removes every variable that turns on tracing, profiling, sampling,
/// hardware counters, progress output or a thread-count override.
void clear_instrumentation_env() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const std::string name = entry.substr(0, entry.find('='));
    for (const char* prefix :
         {"CCMX_TRACE", "CCMX_PROF_", "CCMX_SAMPLE_", "CCMX_PROGRESS"}) {
      if (name.rfind(prefix, 0) == 0) names.push_back(name);
    }
    if (name == "CCMX_HW" || name == "CCMX_THREADS" || name == "CCMX_REPORT" ||
        name == "CCMX_BENCH_OUT") {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Phase {
  std::vector<InstanceOutcome> outcomes;
  double wall_s = 0.0;
  std::size_t failed = 0;
  std::string first_failure;

  [[nodiscard]] double throughput() const {
    return static_cast<double>(outcomes.size()) / wall_s;
  }
};

/// Closed loop over the pool, in pool order from the start: at least
/// `seconds` and at least `min_instances`, stopping only after a whole
/// number of `granularity` instances, but never past the deadline.
/// `after_first_pass` runs once the whole pool has been run once.
Phase run_phase(Workload& workload, double seconds, std::size_t min_instances,
                std::size_t granularity, SpanRecorder* recorder,
                std::int64_t process_start,
                const std::function<void()>& after_first_pass) {
  Phase phase;
  const std::size_t pool = workload.pool_size();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    InstanceOutcome out;
    try {
      out = workload.run(i % pool, recorder, i + 1);
    } catch (const std::exception& e) {
      out.failure = std::string("exception: ") + e.what();
    }
    if (!out.failure.empty()) {
      if (phase.failed++ == 0) phase.first_failure = out.failure;
    }
    phase.outcomes.push_back(std::move(out));
    if (i + 1 == pool && after_first_pass) after_first_pass();
    const bool done = seconds_since(start) >= seconds &&
                      i + 1 >= min_instances && (i + 1) % granularity == 0;
    if (done || seconds_since(process_start) >= kDeadlineS) break;
  }
  phase.wall_s = seconds_since(start);
  return phase;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void print_lines(std::ostream& out) const {
    for (const Entry& e : entries_) {
      out << "  " << e.name << " = " << number(e.value) << " " << e.unit
          << "\n";
    }
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
          << number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::vector<Entry> entries_;
};

std::optional<std::uint64_t> counter(const ccmx::obs::Snapshot& snapshot,
                                     const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return std::nullopt;
}

// Spans whose self time is reported as "<name>_ms" per traced instance.
const char* const kLayerSpans[] = {
    "comm.encode",           "linalg.is_singular",   "protocols.send_half",
    "protocols.fingerprint", "protocols.rank_threshold", "vlsi.mesh",
    "core.solvable",         "core.row_census",      "core.lemma34_census",
    "core.lemma35_complete"};

void add_layer_metrics(Metrics& metrics, const Phase& traced,
                       const SpanRecorder& recorder,
                       const std::vector<InstanceOutcome>& first_pass,
                       const std::optional<ccmx::obs::Snapshot>& counters) {
  const auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> total_ms;
  std::map<std::string, double> is_singular_ms;  // by instance label
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(self[i]) * 1e-6;
    total_ms[spans[i].name] += ms;
    if (spans[i].name == "linalg.is_singular") {
      is_singular_ms[traced.outcomes[spans[i].instance - 1].label] += ms;
    }
  }
  const std::size_t n = traced.outcomes.size();
  for (const char* name : kLayerSpans) {
    metrics.add(std::string(name) + "_ms", per(total_ms[name], n), "ms");
  }
  for (const char* label : {"singular", "nonsingular"}) {
    const auto with_label = static_cast<std::size_t>(std::count_if(
        traced.outcomes.begin(), traced.outcomes.end(),
        [&](const InstanceOutcome& o) { return o.label == label; }));
    metrics.add(std::string("linalg.is_singular_ms.") + label,
                per(is_singular_ms[label], with_label), "ms");
  }

  double cpu = 0.0;
  double wall = 0.0;
  for (const InstanceOutcome& o : traced.outcomes) {
    cpu += o.pool_cpu_s;
    wall += o.pool_wall_s;
  }
  metrics.add("util.pool_cpu_per_wall", wall > 0.0 ? cpu / wall : 0.0,
              "ratio");

  // Exact counts over the first pass of the pool: they repeat for a seed.
  std::uint64_t bits = 0, rounds = 0, cycles = 0, bisection = 0, evals = 0,
                false_singular = 0;
  for (const InstanceOutcome& o : first_pass) {
    bits += o.comm_bits;
    rounds += o.comm_rounds;
    cycles += o.mesh_cycles;
    bisection += o.bisection_bits;
    evals += o.census_evaluations;
    false_singular += o.fp_false_singular;
  }
  const std::size_t pass = first_pass.size();
  metrics.add("comm.bits_per_inst", per(static_cast<double>(bits), pass),
              "bits");
  metrics.add("comm.rounds_per_inst", per(static_cast<double>(rounds), pass),
              "count");
  metrics.add("vlsi.mesh_cycles", per(static_cast<double>(cycles), pass),
              "cycles");
  metrics.add("vlsi.bisection_bits",
              per(static_cast<double>(bisection), pass), "bits");
  metrics.add("core.census_evaluations", static_cast<double>(evals), "count");
  metrics.add("protocols.fp_false_singular",
              static_cast<double>(false_singular), "count");

  // The program's own counters; a counter it no longer keeps is absent.
  if (counters) {
    const auto small = counter(*counters, "bigint.small_ops");
    const auto promoted = counter(*counters, "bigint.promotions");
    if (small) {
      metrics.add("bigint.small_ops_per_inst",
                  per(static_cast<double>(*small), pass), "count");
    }
    if (small && promoted) {
      const double all = static_cast<double>(*small + *promoted);
      metrics.add("bigint.promotion_frac",
                  all > 0.0 ? static_cast<double>(*promoted) / all : 0.0,
                  "ratio");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const std::optional<Options> options = parse(argc, argv);
  if (!options) {
    std::cerr << "usage: ccmxbench_runner --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1> [--spans-out <path>]\n";
    return 2;
  }
  if (sanitized_build()) {
    std::cerr << "ccmxbench: refusing to time a sanitizer build\n";
    return 3;
  }
  clear_instrumentation_env();
  ccmx::obs::set_enabled(false);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::unique_ptr<Workload> workload =
      make_workload(options->workload, nproc);
  if (!workload) {
    std::cerr << "ccmxbench: unknown workload '" << options->workload << "'\n";
    return 2;
  }
  ccmx::util::set_parallelism(workload->threads());

  std::cout << "ccmxbench workload=" << options->workload
            << " seed=" << options->seed << " seconds=" << options->seconds
            << " trace=" << (options->trace ? 1 : 0) << "\n"
            << "env build_type=" << CCMXBENCH_BUILD_TYPE << " flags=\""
            << CCMXBENCH_CXX_FLAGS << "\" threads=" << workload->threads()
            << " nproc=" << nproc << " loop=closed callers=1\n";

  // Set-up: draw the pool, label it, warm up on its first instance.
  std::vector<double> setup_s, generate_s, labels_s;
  try {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const std::int64_t t0 = now_ns();
      workload->generate(options->seed);
      const std::int64_t t1 = now_ns();
      workload->label();
      const std::int64_t t2 = now_ns();
      (void)workload->run(0, nullptr, 0);
      const std::int64_t t3 = now_ns();
      generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      labels_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
      setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    }
  } catch (const std::exception& e) {
    std::cerr << "ccmxbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  const std::size_t pool = workload->pool_size();
  std::cout << "setup reps=" << kSetupReps << " pool=" << pool
            << " median_s=" << median(setup_s) << "\n";

  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  const auto account = [&](const Phase& phase, const char* name) {
    attempted += phase.outcomes.size();
    failed += phase.failed;
    if (first_failure.empty()) first_failure = phase.first_failure;
    std::cout << "phase " << name << ": " << phase.outcomes.size()
              << " instances in " << phase.wall_s << " s, " << phase.failed
              << " failed, failed_frac="
              << static_cast<double>(phase.failed) /
                     static_cast<double>(phase.outcomes.size())
              << "\n";
  };

  if (!options->trace) {
    const Phase phase =
        run_phase(*workload, options->seconds, samples_needed_for(90.0),
                  workload->block_size(), nullptr, process_start, {});
    account(phase, "untraced");
    std::vector<double> latency_ms;
    for (const InstanceOutcome& o : phase.outcomes) {
      latency_ms.push_back(o.latency_s * 1e3);
    }
    const std::size_t n = latency_ms.size();
    std::cout << "latency samples=" << n << " beyond_p90="
              << samples_beyond(n, 90.0) << " highest_reportable=p"
              << highest_reportable_percentile(n) << "\n";
    metrics.add("throughput_inst_per_s", phase.throughput(), "1/s");
    metrics.add("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
    metrics.add("latency_p90_ms", quantile(latency_ms, 0.9), "ms");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Both halves run the same instances, so their throughputs compare.
    const Phase untraced =
        run_phase(*workload, options->seconds / 2, pool,
                  workload->block_size(), nullptr, process_start, {});
    account(untraced, "untraced");

    SpanRecorder recorder;
    std::optional<ccmx::obs::Snapshot> counters;
    ccmx::obs::reset_values();
    ccmx::obs::set_enabled(true);
    const Phase traced = run_phase(
        *workload, 0.0, untraced.outcomes.size(), 1, &recorder, process_start,
        [&] { counters = ccmx::obs::snapshot(); });
    ccmx::obs::set_enabled(false);
    account(traced, "traced");

    const std::vector<InstanceOutcome> first_pass(
        traced.outcomes.begin(),
        traced.outcomes.begin() +
            static_cast<std::ptrdiff_t>(std::min(pool, traced.outcomes.size())));
    add_layer_metrics(metrics, traced, recorder, first_pass, counters);
    metrics.add("setup.generate_s", median(generate_s), "s");
    metrics.add("setup.labels_s", median(labels_s), "s");
    metrics.add("trace.overhead_pct",
                (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
                "%");
    if (!options->spans_out.empty()) {
      std::ofstream out(options->spans_out);
      recorder.write_jsonl(out);
      if (!out) {
        std::cerr << "ccmxbench: could not write " << options->spans_out
                  << "\n";
      }
    }
  }

  if (!first_failure.empty()) {
    std::cout << "first failed check: " << first_failure << "\n";
  }
  std::cout << "metrics:\n";
  metrics.print_lines(std::cout);
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}
