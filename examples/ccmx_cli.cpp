// ccmx_cli — a small command-line driver over the public API.
//
// Subcommands:
//   singularity <n> <k> [seed]   run both singularity protocols on a random
//                                instance and print the bit accounting
//   solvable    <n> <k> [seed]   same for linear-system solvability [A | b]
//   hard        <n> <k> [seed]   build a paper hard instance (Lemma 3.5(a)
//                                completion) and verify it end to end
//   rank        <n> <r> [seed]   rank-threshold audit via the bordering
//                                reduction across the whole spectrum
//   mesh        <n> <k>          simulate the systolic mesh and audit the
//                                VLSI bounds
//
// Build & run:  ./build/examples/ccmx_cli singularity 8 8
//
// Numeric arguments must be plain non-negative decimal integers, k at most
// 62, and n small enough for the command to fit a 1 GiB memory budget;
// anything else prints an "error:" line and exits 2, like a usage error.
//
// Observability: CCMX_TRACE=1 turns the obs counters on;
// CCMX_REPORT=<path> writes a ccmx.run_report/1 JSON summary at exit
// (see docs/OBSERVABILITY.md).
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "comm/channel.hpp"
#include "core/construction.hpp"
#include "core/rank_spectrum.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "obs/hwcounters.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/send_half.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "vlsi/mesh.hpp"
#include "vlsi/tradeoffs.hpp"

namespace {

using namespace ccmx;

/// Widest entry the bit layouts and the random draws support.
constexpr std::uint64_t kMaxEntryBits = 62;

/// Peak memory one run may plan for; n is checked against it before any
/// allocation.
constexpr double kMemoryBudgetBytes = 1024.0 * 1024.0 * 1024.0;

/// Planned peak bytes of one run, 0 for an unknown command.  The
/// constants are measured peak RSS over n² (x86-64, Release), rounded up:
/// singularity and solvable hold the BigInt matrix plus send-half's
/// per-input-bit bookkeeping (the partition's owner byte and both agents'
/// owned-index lists, about 19 bytes for each of the k bits of an entry);
/// solvable's exact check adds gcd-normalized rationals whose numerators
/// and denominators grow to about n·(k + log2 n) bits.  hard works on a
/// 2n x 2n matrix, rank on bordered n x n matrices, mesh on the n x n
/// input plus one cell per entry.
double peak_bytes(const std::string& cmd, double n, double k) {
  if (cmd == "singularity") return n * n * (96 + 24 * k);
  if (cmd == "solvable") {
    return n * n * (96 + 24 * k) + n * n * n * (k + std::log2(n + 1)) / 4;
  }
  if (cmd == "hard") return n * n * 2048;
  if (cmd == "rank") return n * n * 512;
  if (cmd == "mesh") return n * n * 64;
  return 0;
}

/// Largest n whose planned peak fits kMemoryBudgetBytes.
std::uint64_t max_n(const std::string& cmd, double k) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::uint64_t{1} << 32;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (peak_bytes(cmd, static_cast<double>(mid), k) <= kMemoryBudgetBytes) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

la::IntMatrix random_entries(std::size_t n, unsigned k,
                             util::Xoshiro256& rng) {
  return la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return num::BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

int cmd_singularity(std::size_t n, unsigned k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = random_entries(n, k, rng);
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(m);
  const bool truth = la::is_singular(m);

  const auto det = comm::execute(proto::make_send_half_singularity(layout),
                                 input, pi);
  const unsigned pb = proto::recommend_prime_bits(n, k, 0.01);
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSingularity, pb, 1, seed);
  const auto prob = comm::execute(fp, input, pi);

  util::TextTable table({"protocol", "answer", "bits"});
  table.row("exact (ground truth)", truth ? "singular" : "nonsingular", "-");
  table.row("send-half (deterministic)",
            det.answer ? "singular" : "nonsingular", det.bits);
  table.row("fingerprint (prime " + std::to_string(pb) + "b)",
            prob.answer ? "singular" : "nonsingular", prob.bits);
  table.print(std::cout);
  return det.answer == truth ? 0 : 1;
}

int cmd_solvable(std::size_t n, unsigned k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = random_entries(n, k, rng);  // [A | b], b = last col
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(m);

  const la::IntMatrix a = m.block(0, 0, n, n - 1);
  std::vector<num::BigInt> b;
  for (std::size_t i = 0; i < n; ++i) b.push_back(m(i, n - 1));
  const bool truth = core::solvable(a, b);

  const auto det = comm::execute(proto::make_send_half_solvability(layout),
                                 input, pi);
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSolvability, 20, 2, seed);
  const auto prob = comm::execute(fp, input, pi);

  util::TextTable table({"protocol", "answer", "bits"});
  table.row("exact (ground truth)", truth ? "solvable" : "unsolvable", "-");
  table.row("send-half", det.answer ? "solvable" : "unsolvable", det.bits);
  table.row("fingerprint", prob.answer ? "solvable" : "unsolvable",
            prob.bits);
  table.print(std::cout);
  return det.answer == truth ? 0 : 1;
}

int cmd_hard(std::size_t n, unsigned k, std::uint64_t seed) {
  const core::ConstructionParams p(n, k);
  if (!p.valid()) {
    std::cerr << "invalid parameters: need n >= 4 + ceil(log_q n), n odd\n";
    return 2;
  }
  util::Xoshiro256 rng(seed);
  const auto free_seed = core::FreeParts::random(p, rng);
  const auto completed = core::lemma35_complete(p, free_seed.c, free_seed.e);
  if (!completed) {
    std::cerr << "completion failed (should not happen)\n";
    return 1;
  }
  const la::IntMatrix m = core::build_m(p, *completed);
  std::cout << "Built the " << 2 * n << "x" << 2 * n
            << " restricted instance (q = " << p.q() << ")\n";
  std::cout << "det(M) = " << la::det(m) << "  (Lemma 3.5(a) says 0)\n";
  std::cout << "scalar characterization: "
            << (core::restricted_singular(p, *completed) ? "singular"
                                                         : "nonsingular")
            << "\n";
  const auto instance = core::corollary13_instance(m);
  std::cout << "Corollary 1.3 pair solvable: "
            << (core::solvable(instance.m_prime, instance.b) ? "yes" : "no")
            << "\n";
  return 0;
}

int cmd_rank(std::size_t n, std::size_t r, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = core::random_rank_r(n, r, 20, rng);
  std::cout << "Matrix of exact rank " << la::rank(m) << " (requested " << r
            << ")\n";
  util::TextTable table({"threshold", "rank >= t ?", "bordered det != 0"});
  for (std::size_t t = 1; t <= n; ++t) {
    const bool verdict = core::rank_at_least_via_singularity(m, t, 1000000, rng);
    table.row(t, r >= t ? "yes" : "no", verdict ? "yes" : "no");
  }
  table.print(std::cout);
  return 0;
}

int cmd_mesh(std::size_t n, unsigned k) {
  util::Xoshiro256 rng(1);
  const la::IntMatrix m = random_entries(n, k, rng);
  vlsi::MeshConfig config;
  config.input_bits = k;
  const auto seq = vlsi::simulate_mesh(m, config);
  const auto pipe = vlsi::simulate_mesh_pipelined(m, config);
  util::TextTable table({"design", "cycles", "bisection bits", "AT^2 ratio"});
  const double c = vlsi::comm_complexity(n, k);
  const double area = static_cast<double>(seq.area_units);
  const auto ratio = [&](std::size_t cycles) {
    const double t = static_cast<double>(cycles);
    return util::fmt_double(area * t * t / (c * c), 1);
  };
  table.row("sequential", seq.cycles, seq.bisection_bits, ratio(seq.cycles));
  table.row("pipelined", pipe.cycles, pipe.bisection_bits, ratio(pipe.cycles));
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cerr << "usage: ccmx_cli <singularity|solvable|hard|rank|mesh> "
               "<args...>\n"
               "  singularity n k [seed]\n"
               "  solvable    n k [seed]\n"
               "  hard        n k [seed]   (n odd, k >= 2)\n"
               "  rank        n r [seed]\n"
               "  mesh        n k\n";
}

/// Parses one numeric argument as plain decimal digits.  A sign, a
/// non-number, trailing text or overflow is reported as an error line
/// (strtoul would wrap "-1" to 2^64-1) and yields nullopt.
std::optional<std::uint64_t> parse_count(const char* name, const char* text) {
  const std::string_view v(text);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(v.data(), v.data() + v.size(), value);
  if (ec == std::errc{} && end == v.data() + v.size()) return value;
  std::cerr << "error: " << name
            << " must be a non-negative decimal integer, got '" << text
            << "'\n";
  return std::nullopt;
}

int run_command(const std::string& cmd, std::size_t n, std::size_t arg3,
                std::uint64_t seed) {
  // Root of the run's span tree: every protocol execution (comm.execute)
  // and core-layer span nests under this in the JSONL trace.
  obs::ScopedSpan span("cli." + cmd);
  span.arg("n", static_cast<std::uint64_t>(n));
  span.arg(cmd == "rank" ? "r" : "k", static_cast<std::uint64_t>(arg3));
  if (cmd == "singularity") {
    return cmd_singularity(n, static_cast<unsigned>(arg3), seed);
  }
  if (cmd == "solvable") {
    return cmd_solvable(n, static_cast<unsigned>(arg3), seed);
  }
  if (cmd == "hard") return cmd_hard(n, static_cast<unsigned>(arg3), seed);
  if (cmd == "rank") return cmd_rank(n, arg3, seed);
  if (cmd == "mesh") return cmd_mesh(n, static_cast<unsigned>(arg3));
  usage();
  return 2;
}

/// Writes a ccmx.run_report/1 summary to `path` (CCMX_REPORT).
void write_report(const char* path, int argc, char** argv,
                  const util::WallTimer& timer,
                  const obs::HwRegion& process_hw) {
  obs::RunReport report;
  report.name = "ccmx_cli";
  for (int i = 0; i < argc; ++i) report.argv.emplace_back(argv[i]);
  report.wall_seconds = timer.seconds();
  report.cpu_seconds = timer.cpu_seconds();
  report.hw = process_hw.delta();
  obs::flush_thread();
  obs::write_run_report(report, path);
  std::cerr << "run report: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const auto n_arg = parse_count("n", argv[2]);
  const auto arg3_arg = parse_count(cmd == "rank" ? "r" : "k", argv[3]);
  const auto seed_arg = argc > 4 ? parse_count("seed", argv[4])
                                 : std::optional<std::uint64_t>(2024);
  if (!n_arg || !arg3_arg || !seed_arg) return 2;
  // Entries are drawn below 2^k and packed k bits each; a wider k would
  // shift past the word before MatrixBitLayout could reject it.
  if (cmd != "rank" && *arg3_arg > kMaxEntryBits) {
    std::cerr << "error: k must be at most " << kMaxEntryBits << ", got '"
              << argv[3] << "'\n";
    return 2;
  }
  // Unknown commands (peak 0) fall through to the usage message.
  if (const std::uint64_t limit = max_n(cmd, static_cast<double>(*arg3_arg));
      peak_bytes(cmd, 1, 1) > 0 && *n_arg > limit) {
    std::cerr << "error: n must be at most " << limit << " for " << cmd
              << (cmd == "rank" ? "" : " with k = " + std::to_string(*arg3_arg))
              << " to fit a 1 GiB memory budget, got '" << argv[2] << "'\n";
    return 2;
  }
  const std::size_t n = *n_arg;
  const std::size_t arg3 = *arg3_arg;
  const std::uint64_t seed = *seed_arg;
  const util::WallTimer timer;
  // Hardware counters only feed the run report, so the perf fds are
  // opened (and an unavailable PMU reported) only when one is requested.
  const char* report = std::getenv("CCMX_REPORT");
  if (report != nullptr && report[0] == '\0') report = nullptr;
  std::optional<obs::HwRegion> process_hw;
  if (report != nullptr) process_hw.emplace();
  // Sampling CPU profiler (CCMX_PROF_HZ / CCMX_PROF_FILE); degrades to
  // a reasoned no-op when unconfigured or unavailable.
  obs::profiler_start_from_env();
  obs::set_attribute("command", cmd);
  obs::set_attribute("seed", std::to_string(seed));
  obs::set_attribute("n", std::to_string(n));
  // arg3 is k for singularity/solvable/hard/mesh and r for rank; record
  // it under both spellings so report diffs can key on either.
  obs::set_attribute(cmd == "rank" ? "r" : "k", std::to_string(arg3));
  try {
    const int rc = run_command(cmd, n, arg3, seed);
    obs::profiler_stop();
    if (report != nullptr) write_report(report, argc, argv, timer, *process_hw);
    return rc;
  } catch (const std::exception& e) {
    obs::profiler_stop();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
