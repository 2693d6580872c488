// A0 — design-choice ablations (DESIGN.md section 5 follow-ups):
//   * exact determinant engines: Bareiss vs cofactor vs CRT-over-primes vs
//     |det| via Smith normal form — all must agree; costs differ sharply,
//   * exact rank: Bareiss vs the certified multimodular engine, and
//     core::solvable on top of it,
//   * product kernels: naive vs blocked vs Strassen over BigInt,
//   * mesh scheduling: sequential vs wavefront-pipelined (same traffic,
//     Theta(n^2) -> Theta(n) cycles, AT^2 approaching the bound),
//   * census engines: serial recompute vs pooled recompute vs pooled
//     delta-evaluated sweeps (identical ones counts, very different cost).
#include <algorithm>
#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "core/census.hpp"
#include "core/construction.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "linalg/det_crt.hpp"
#include "linalg/hnf.hpp"
#include "linalg/rref.hpp"
#include "linalg/solve_crt.hpp"
#include "linalg/strassen.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "vlsi/mesh.hpp"
#include "vlsi/tradeoffs.hpp"

namespace {

using namespace ccmx;
using bench::random_entries;

enum class DetInput { kRandom, kDupRow, kPaper };

/// One A0a row: `trials` inputs of one kind.  For kPaper, n and bits are
/// the construction's (n, k) and the matrix is 2n x 2n.
struct DetRow {
  DetInput input;
  std::size_t n;
  unsigned bits;
  int trials;
};

/// 'random' duplicates a column in every third trial, 'dup row' copies one
/// row over another, 'paper' is build_m of a Lemma 3.5(a) completion.
la::IntMatrix det_input(const DetRow& row, int trial, util::Xoshiro256& rng) {
  if (row.input == DetInput::kPaper) {
    const core::ConstructionParams p(row.n, row.bits);
    const auto seed = core::FreeParts::random(p, rng);
    const auto parts = core::lemma35_complete(p, seed.c, seed.e);
    CCMX_REQUIRE(parts.has_value(), "Lemma 3.5(a) completion failed");
    return core::build_m(p, *parts);
  }
  const std::size_t n = row.n;
  la::IntMatrix m = random_entries(n, n, row.bits, rng);
  if (row.input == DetInput::kDupRow) {
    const std::size_t src = rng.below(n);
    const std::size_t dst = (src + 1 + rng.below(n - 1)) % n;
    for (std::size_t j = 0; j < n; ++j) m(dst, j) = m(src, j);
  } else if (trial % 3 == 0) {
    for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = m(i, 0);
  }
  return m;
}

/// Each engine's agreement with Bareiss over one row's inputs; "-" where an
/// engine is skipped as too slow (cofactor is O(n!), SNF's HNF is BigInt).
void det_agreement_row(util::TextTable& table, const DetRow& row,
                       util::Xoshiro256& rng) {
  int singular = 0, det_ok = 0, crt_ok = 0, snf_ok = 0, cof_ok = 0;
  int sing_ok = 0;
  std::size_t dim = 0, widest = 0;
  for (int trial = 0; trial < row.trials; ++trial) {
    const la::IntMatrix m = det_input(row, trial, rng);
    dim = m.rows();
    for (const num::BigInt& v : m.data()) {
      widest = std::max(widest, v.bit_length());
    }
    const num::BigInt det = la::det_bareiss(m);
    singular += det.is_zero();
    det_ok += la::det(m) == det;
    crt_ok += la::det_crt(m) == det;
    sing_ok += la::is_singular(m) == det.is_zero();
    if (dim <= 8) {
      snf_ok += la::abs_det_via_snf(m) == det.abs();
      cof_ok += la::det_cofactor(m) == det;
    }
  }
  const auto shown = [&](int ok) {
    return dim <= 8 ? std::to_string(ok) : std::string("-");
  };
  const char* names[] = {"random", "dup row", "paper"};
  table.row(names[static_cast<int>(row.input)], dim, widest, row.trials,
            singular, det_ok, crt_ok, shown(snf_ok), shown(cof_ok), sing_ok);
}

void print_tables() {
  bench::print_header(
      "A0a — determinant engine agreement",
      "Independent exact engines on the same inputs, each counted against\n"
      "Bareiss: la::det (the dispatch), CRT, |det| via SNF, cofactor, and\n"
      "la::is_singular's early-exit verdict.  'random' rows duplicate a\n"
      "column in every third trial; 'dup row' and 'paper' rows (build_m of a\n"
      "Lemma 3.5(a) completion) are singular by construction.");
  util::TextTable det_table({"input", "n", "bits", "trials", "singular",
                             "bareiss=det", "bareiss=crt", "bareiss=snf(|.|)",
                             "bareiss=cofactor", "is_singular ok"});
  // The first three rows are the original A0a inputs (same seeds).
  for (const auto& [n, bits] : std::vector<std::pair<std::size_t, unsigned>>{
           {4, 8}, {6, 16}, {8, 32}}) {
    util::Xoshiro256 rng(n * 7 + bits);
    det_agreement_row(det_table, {DetInput::kRandom, n, bits, 10}, rng);
  }
  util::Xoshiro256 shared_rng(2024);
  for (const DetRow& row : std::vector<DetRow>{
           {DetInput::kRandom, 16, 32, 10}, {DetInput::kRandom, 32, 32, 6},
           {DetInput::kRandom, 64, 32, 3},  {DetInput::kDupRow, 16, 32, 6},
           {DetInput::kDupRow, 32, 32, 4},  {DetInput::kDupRow, 64, 32, 3},
           {DetInput::kPaper, 7, 2, 6},     {DetInput::kPaper, 15, 4, 4},
           {DetInput::kPaper, 31, 8, 3}}) {
    det_agreement_row(det_table, row, shared_rng);
  }
  bench::print_table(det_table);

  bench::print_header(
      "A0b — mesh scheduling ablation",
      "Identical dataflow and bisection traffic; the pipelined schedule cuts\n"
      "T from Theta(n^2) to Theta(n), pulling AT^2 toward the Omega((kn^2)^2)\n"
      "floor (ratio column; smaller = tighter design).");
  util::TextTable mesh({"n", "T seq", "T pipe", "AT^2/C^2 seq",
                        "AT^2/C^2 pipe"});
  const unsigned k = 8;
  vlsi::MeshConfig config;
  config.input_bits = k;
  for (const std::size_t n : {8u, 16u, 24u, 32u}) {
    util::Xoshiro256 rng(n);
    const la::IntMatrix m = random_entries(n, n, k, rng);
    const auto seq = vlsi::simulate_mesh(m, config);
    const auto pipe = vlsi::simulate_mesh_pipelined(m, config);
    const double c = vlsi::comm_complexity(n, k);
    const double area = static_cast<double>(seq.area_units);
    mesh.row(n, seq.cycles, pipe.cycles,
             util::fmt_double(area * std::pow(static_cast<double>(seq.cycles), 2) /
                                  (c * c),
                              1),
             util::fmt_double(area * std::pow(static_cast<double>(pipe.cycles), 2) /
                                  (c * c),
                              1));
  }
  bench::print_table(mesh);
}

void BM_SolveCrt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n, 16, rng);
  std::vector<num::BigInt> b;
  for (std::size_t i = 0; i < n; ++i) {
    b.push_back(num::BigInt(static_cast<std::int64_t>(rng.below(100))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::solve_crt(a, b).has_value());
  }
}
void BM_SolveRational(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n, 16, rng);
  std::vector<num::Rational> b;
  for (std::size_t i = 0; i < n; ++i) {
    b.emplace_back(num::BigInt(static_cast<std::int64_t>(rng.below(100))));
  }
  const la::RatMatrix ra = la::to_rational(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::solve(ra, b).has_value());
  }
}
BENCHMARK(BM_SolveCrt)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_SolveRational)->Arg(4)->Arg(8)->Arg(12);

void BM_DetBareiss(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 32, rng);
  for (auto _ : state) benchmark::DoNotOptimize(la::det_bareiss(m).signum());
}
void BM_DetCrt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 32, rng);
  for (auto _ : state) benchmark::DoNotOptimize(la::det_crt(m).signum());
}
void BM_DetSnf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::abs_det_via_snf(m).signum());
  }
}
// n = 4..16 brackets la::kDetCrtCrossover (docs/PERFORMANCE.md).
BENCHMARK(BM_DetBareiss)->DenseRange(4, 16, 2);
BENCHMARK(BM_DetCrt)->DenseRange(4, 16, 2);
BENCHMARK(BM_DetSnf)->Arg(4)->Arg(8);

/// n x n, 16-bit entries; `deficient` copies row 0 over the last row, so
/// the multimodular rank has to walk its whole certificate.
la::IntMatrix rank_input(std::size_t n, bool deficient) {
  util::Xoshiro256 rng(n);
  la::IntMatrix m = random_entries(n, n, 16, rng);
  if (deficient) {
    for (std::size_t j = 0; j < n; ++j) m(n - 1, j) = m(0, j);
  }
  return m;
}
void BM_RankBareiss(benchmark::State& state) {
  const la::IntMatrix m = rank_input(static_cast<std::size_t>(state.range(0)),
                                     state.range(1) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(la::rank_bareiss(m));
}
void BM_RankMultimodular(benchmark::State& state) {
  const la::IntMatrix m = rank_input(static_cast<std::size_t>(state.range(0)),
                                     state.range(1) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(la::rank_crt(m));
}
/// The rational-solvability shape: A is n x (n-1) with 16-bit entries, b is
/// a column of A (solvable, both ranks n - 1) or random (rank [A | b] = n).
void BM_Solvable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n - 1, 16, rng);
  std::vector<num::BigInt> b =
      state.range(1) != 0 ? a.col(0) : random_entries(n, 1, 16, rng).col(0);
  for (auto _ : state) benchmark::DoNotOptimize(core::solvable(a, b));
}
// n = 2..24, full rank and rank n - 1 (second argument 1): the rows that
// place la::kRankCrtCrossover (docs/PERFORMANCE.md).
const std::vector<std::int64_t> kRankSizes{2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24};
BENCHMARK(BM_RankBareiss)->ArgsProduct({kRankSizes, {0, 1}});
BENCHMARK(BM_RankMultimodular)->ArgsProduct({kRankSizes, {0, 1}});
BENCHMARK(BM_Solvable)->ArgsProduct({{4, 8, 12, 16, 20, 24}, {0, 1}});

void BM_MultiplyNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n, 32, rng);
  const la::IntMatrix b = random_entries(n, n, 32, rng);
  for (auto _ : state) benchmark::DoNotOptimize(multiply_naive(a, b).rows());
}
void BM_MultiplyBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n, 32, rng);
  const la::IntMatrix b = random_entries(n, n, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_blocked(a, b).rows());
  }
}
void BM_MultiplyStrassen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix a = random_entries(n, n, 32, rng);
  const la::IntMatrix b = random_entries(n, n, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::multiply_strassen(a, b, 16).rows());
  }
}
BENCHMARK(BM_MultiplyNaive)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_MultiplyBlocked)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_MultiplyStrassen)->Arg(16)->Arg(32)->Arg(64);

// BigInt representation ablation: one op sequence (mul, add, sub, word
// reduce), run once on word-sized operands that stay in the inline form and
// once on the narrowest operands that live on the heap (three limbs).  The
// gap between the two rows is the small-value win; docs/PERFORMANCE.md
// explains how to read them together with the bigint.small_ops /
// bigint.promotions counters.
void bigint_chain_bench(benchmark::State& state, std::size_t limbs) {
  util::Xoshiro256 rng(limbs);
  constexpr std::size_t kOps = 64;
  std::vector<num::BigInt> xs;
  std::vector<num::BigInt> ys;
  for (std::size_t i = 0; i < kOps; ++i) {
    num::BigInt x;
    num::BigInt y;
    for (std::size_t l = 0; l < limbs; ++l) {
      x = (x << 64) + static_cast<std::int64_t>(rng() >> 1);
      y = (y << 64) + static_cast<std::int64_t>(rng() >> 1);
    }
    xs.push_back(x);
    ys.push_back(y);
  }
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      num::BigInt t = xs[i] * ys[i];
      t += ys[i];
      t -= xs[i];
      sink += t.mod_u64(0x1fffffffffffffffULL);
    }
    benchmark::DoNotOptimize(sink);
  }
}
void BM_BigIntSmall(benchmark::State& state) { bigint_chain_bench(state, 1); }
void BM_BigIntHeap(benchmark::State& state) { bigint_chain_bench(state, 3); }
// CRT-style accumulation: the value crosses the promotion boundary after two
// folds, so the loop exercises the word fast paths against a heap
// accumulator — the mix det_crt/solve_crt run per coordinate.
void BM_BigIntMixed(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  constexpr std::size_t kFolds = 24;
  std::vector<std::int64_t> deltas;
  std::vector<std::int64_t> steps;
  for (std::size_t i = 0; i < kFolds; ++i) {
    deltas.push_back(static_cast<std::int64_t>(rng() >> 3));
    steps.push_back(static_cast<std::int64_t>((rng() >> 3) | 1u));
  }
  for (auto _ : state) {
    num::BigInt value(1);
    num::BigInt modulus(1);
    for (std::size_t i = 0; i < kFolds; ++i) {
      value.add_mul(modulus, deltas[i]);
      modulus *= steps[i];
    }
    benchmark::DoNotOptimize(value.signum());
  }
}
BENCHMARK(BM_BigIntSmall);
BENCHMARK(BM_BigIntHeap);
BENCHMARK(BM_BigIntMixed);

// Census engine ablation: the exact (7, 2) sweep (3^15 digit assignments)
// under the three engine configurations.  All produce identical counts
// (tests/test_census.cpp pins that); the rows record the speedup from the
// worker pool and from delta evaluation as run-report data.
void census_engine_bench(benchmark::State& state, std::size_t degree,
                         bool delta) {
  const core::ConstructionParams p(7, 2);
  util::Xoshiro256 rng(1);
  const auto parts = core::FreeParts::random(p, rng);
  core::CensusOptions options;
  options.budget = std::uint64_t{1} << 24;
  options.delta = delta;
  util::set_parallelism(degree);
  for (auto _ : state) {
    util::Xoshiro256 inner(2);
    benchmark::DoNotOptimize(
        core::row_census(p, parts.c, options, inner).exact);
  }
  util::set_parallelism(0);
}
void BM_RowCensusSerial(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/1, /*delta=*/false);
}
void BM_RowCensusPool(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/0, /*delta=*/false);
}
void BM_RowCensusPoolDelta(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/0, /*delta=*/true);
}
BENCHMARK(BM_RowCensusSerial)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RowCensusPool)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RowCensusPoolDelta)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

CCMX_BENCH_MAIN(print_tables)
