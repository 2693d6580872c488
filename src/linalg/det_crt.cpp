#include "linalg/det_crt.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "bigint/modular.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

/// From this many rows on, sharding the per-prime eliminations through
/// util::parallel_for beats a serial loop: on 4 cores with 32-bit entries
/// the two tie at 12 rows and sharding wins 2.5x at 16.  Below, waking the
/// worker pool costs more than the eliminations.
constexpr std::size_t kShardMinRows = 12;

/// det(m) mod the i-th ladder prime.
std::uint64_t ladder_residue(const IntMatrix& m, std::size_t i) {
  const std::uint64_t p = num::ladder_prime(i);
  return det_mod_p(reduce_mod(m, p), p);
}

/// rank(m mod the i-th ladder prime).
std::size_t ladder_rank(const IntMatrix& m, std::size_t i) {
  const std::uint64_t p = num::ladder_prime(i);
  return rank_mod_p(reduce_mod(m, p), p);
}

/// Calls body(i) for i in [begin, end): sharded for large m, serial else.
template <class Body>
void for_each_prime(const IntMatrix& m, std::size_t begin, std::size_t end,
                    Body&& body) {
  if (m.rows() >= kShardMinRows) {
    util::parallel_for(begin, end, body);
  } else {
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

/// rank(m) bounded by its nonzero rows and nonzero columns.  Each line's
/// scan stops at its first nonzero entry, so a dense matrix costs
/// O(rows + cols) checks, not O(rows * cols).
std::size_t nonzero_lines_bound(const IntMatrix& m) {
  std::size_t rows = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    std::size_t j = 0;
    while (j < m.cols() && m(i, j).is_zero()) ++j;
    if (j < m.cols()) ++rows;
  }
  std::size_t cols = 0;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    std::size_t i = 0;
    while (i < m.rows() && m(i, j).is_zero()) ++i;
    if (i < m.rows()) ++cols;
  }
  return std::min(rows, cols);
}

/// min(rank m, target), exact: the prime loop behind rank_crt and
/// is_singular.  Every rank(m mod p) is at most rank m, so r = max over
/// primes stops the loop as soon as it reaches the target (for a full-rank
/// matrix, almost always on the first prime).  If r stays below, every
/// minor of size r + 1 is 0 mod primes whose product exceeds
/// hadamard_minor_bits(m), a bound on its absolute value, so the minor is
/// 0 and rank m = r.
std::size_t certified_rank(const IntMatrix& m, std::size_t target) {
  if (target == 0) return 0;
  const std::size_t first = ladder_rank(m, 0);
  if (first >= target) return target;
  // Each ladder prime exceeds 2^61, so 61 * primes > bits suffices.
  std::vector<std::size_t> ranks(hadamard_minor_bits(m) / 61 + 1, first);
  std::atomic<bool> reached{false};
  for_each_prime(m, 1, ranks.size(), [&](std::size_t i) {
    if (reached) return;
    ranks[i] = ladder_rank(m, i);
    if (ranks[i] >= target) reached = true;
  });
  return std::min(target, *std::max_element(ranks.begin(), ranks.end()));
}

}  // namespace

std::size_t det_crt_prime_count(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  // Need prod p_i > 2 * |det| + 1; each ladder prime contributes > 61 bits.
  return (hadamard_det_bits(m) + 2) / 61 + 1;
}

BigInt det_crt(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  if (m.rows() == 0) return BigInt(1);

  std::vector<std::uint64_t> residues(det_crt_prime_count(m), 0);
  for_each_prime(m, 0, residues.size(),
                 [&](std::size_t i) { residues[i] = ladder_residue(m, i); });

  // Incremental CRT: value stays in [0, modulus).
  BigInt value(static_cast<std::int64_t>(residues[0]));
  BigInt modulus(static_cast<std::int64_t>(num::ladder_prime(0)));
  for (std::size_t i = 1; i < residues.size(); ++i) {
    const std::uint64_t p = num::ladder_prime(i);
    // delta = (r_i - value) * modulus^{-1} mod p.
    const std::uint64_t value_mod_p = value.mod_u64(p);
    const std::uint64_t diff =
        residues[i] >= value_mod_p ? residues[i] - value_mod_p
                                   : residues[i] + p - value_mod_p;
    const std::uint64_t inv = num::invmod(modulus.mod_u64(p), p);
    const std::uint64_t delta = num::mulmod(diff, inv, p);
    // 62-bit delta and p: fused word-sized CRT fold, no BigInt temporaries.
    value.add_mul(modulus, static_cast<std::int64_t>(delta));
    modulus *= static_cast<std::int64_t>(p);
  }
  // Map to the symmetric range (det may be negative).
  if (value + value > modulus) value -= modulus;
  return value;
}

std::size_t rank_crt(const IntMatrix& m) {
  return certified_rank(m, nonzero_lines_bound(m));
}

bool is_singular(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  // A zero row or column settles it without a prime.
  return nonzero_lines_bound(m) < n || certified_rank(m, n) < n;
}

}  // namespace ccmx::la
