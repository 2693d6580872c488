// E12 — Section 3 general case: any m x m instance embeds in a 2n x 2n
// instance with n odd, preserving singularity (and the determinant), so
// the restricted-format bound extends to every dimension.
#include "bench_common.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"

namespace {

using namespace ccmx;
using bench::random_entries;

void print_tables() {
  bench::print_header(
      "E12 — padding to odd-n 2n x 2n",
      "All residues of m mod 4 exercised; singularity and determinant must\n"
      "transfer exactly in both directions.");
  util::TextTable table({"m", "n (odd)", "2n", "trials", "det-preserved",
                         "singularity-preserved"});
  for (std::size_t m_dim = 2; m_dim <= 13; ++m_dim) {
    util::Xoshiro256 rng(m_dim);
    const int trials = 20;
    int det_ok = 0, sing_ok = 0;
    for (int trial = 0; trial < trials; ++trial) {
      la::IntMatrix m = random_entries(m_dim, m_dim, 3, rng);
      if (trial % 2 == 0 && m_dim >= 2) {
        for (std::size_t i = 0; i < m_dim; ++i) m(i, m_dim - 1) = m(i, 0);
      }
      const la::IntMatrix padded = core::pad_to_odd_2n(m);
      det_ok += la::det(padded) == la::det(m);
      sing_ok += la::is_singular(padded) == la::is_singular(m);
    }
    const std::size_t n = core::padded_half_dimension(m_dim);
    table.row(m_dim, n, 2 * n, trials, det_ok, sing_ok);
  }
  bench::print_table(table);

  bench::print_header(
      "E12b — padding overhead",
      "The reduction blows the input up by at most a constant factor in\n"
      "area (2n <= m + 5), so the Omega(k m^2) bound survives.");
  util::TextTable overhead({"m", "2n", "(2n)^2 / m^2"});
  for (const std::size_t m_dim : {4u, 16u, 64u, 256u, 1024u}) {
    const std::size_t n = core::padded_half_dimension(m_dim);
    overhead.row(m_dim, 2 * n,
                 util::fmt_double(static_cast<double>(4 * n * n) /
                                      static_cast<double>(m_dim * m_dim),
                                  3));
  }
  bench::print_table(overhead);
}

void BM_PaddedDeterminant(benchmark::State& state) {
  const auto m_dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(m_dim);
  const la::IntMatrix m = random_entries(m_dim, m_dim, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::det(core::pad_to_odd_2n(m)).is_zero());
  }
}
BENCHMARK(BM_PaddedDeterminant)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

CCMX_BENCH_MAIN(print_tables)
