#include "linalg/det_crt.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bigint/modular.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

/// From this much work (primes x rows x cols) on, sharding the per-prime
/// eliminations through util::parallel_for beats a serial loop on 4 cores:
/// serial wins at 432 (rank-deficient 12 x 12, 16-bit entries, 3 primes),
/// the two tie at 600 (det_crt, 10 x 10, 32-bit, 6 primes) and sharding
/// wins from 1008 (det_crt, 12 x 12, 7 primes).  Numbers in
/// docs/PERFORMANCE.md.
constexpr std::size_t kShardMinWork = 768;

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

/// Calls body(i) for i in [begin, end): sharded for enough work, serial
/// else.
template <class Body>
void for_each_prime(const IntMatrix& m, std::size_t begin, std::size_t end,
                    Body&& body) {
  if ((end - begin) * m.rows() * m.cols() >= kShardMinWork) {
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

/// min(rank m, target), exact, given first = rank(m mod ladder_prime(0)):
/// the prime loop behind rank_crt and is_singular.  Every rank(m mod p) is
/// at most rank m, so r = max over primes stops the loop as soon as it
/// reaches the target (for a full-rank matrix, almost always on the first
/// prime).  If r stays below, every minor of size r + 1 is 0 mod primes
/// whose product exceeds hadamard_minor_bits(m), a bound on its absolute
/// value, so the minor is 0 and rank m = r.
std::size_t certified_rank(const IntMatrix& m, std::size_t target,
                           std::size_t first) {
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

/// m^T mod p, entrywise canonical residues.
ModMatrix reduce_mod_transposed(const IntMatrix& m, std::uint64_t p) {
  ModMatrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      t(j, i) = m(i, j).mod_floor_u64(p);
    }
  }
  return t;
}

/// x over Z_p lifted to Z: each coordinate rationally reconstructed, then
/// all scaled by the lcm of their denominators.  Empty when a coordinate
/// has no reconstruction or the scaled vector leaves int64_t.
std::vector<std::int64_t> lift_kernel(const std::vector<std::uint64_t>& x,
                                      std::uint64_t p) {
  std::vector<num::Fraction> fractions;
  fractions.reserve(x.size());
  std::int64_t lcm = 1;
  for (const std::uint64_t v : x) {
    const auto f = num::rational_reconstruct(v, p);
    if (!f) return {};
    if (__builtin_mul_overflow(lcm / std::gcd(lcm, f->den), f->den, &lcm)) {
      return {};
    }
    fractions.push_back(*f);
  }
  std::vector<std::int64_t> lifted(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (__builtin_mul_overflow(fractions[i].num, lcm / fractions[i].den,
                               &lifted[i])) {
      return {};
    }
  }
  return lifted;
}

/// True iff v is nonzero and v^T m = 0 (left) or m v = 0, exactly over Z.
/// Requires square m and v.size() == m.rows().
bool annihilates(const IntMatrix& m, const std::vector<std::int64_t>& v,
                 bool left) {
  if (std::all_of(v.begin(), v.end(), [](std::int64_t c) { return c == 0; })) {
    return false;
  }
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) {
    BigInt dot(0);
    for (std::size_t j = 0; j < n; ++j) {
      if (v[j] != 0) dot.add_mul(left ? m(j, i) : m(i, j), v[j]);
    }
    if (!dot.is_zero()) return false;
  }
  return true;
}

/// x lifted to Z if the lift annihilates m exactly (see annihilates), else
/// empty: the only way a kernel vector mod p becomes a proof.
std::vector<std::int64_t> verified_lift(const IntMatrix& m,
                                        const std::vector<std::uint64_t>& x,
                                        std::uint64_t p, bool left) {
  std::vector<std::int64_t> v = lift_kernel(x, p);
  if (v.empty() || !annihilates(m, v, left)) return {};
  return v;
}

}  // namespace

KernelCertificate kernel_certificate(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "kernel certificate of a non-square matrix");
  const std::uint64_t p = num::ladder_prime(0);
  // The transpose first: a row dependency, the common kind (a duplicated
  // row), then costs one elimination, the same one that decides a
  // nonsingular m.
  const ModKernel rows = kernel_mod_p(reduce_mod_transposed(m, p), p);
  KernelCertificate out{rows.rank, {}, true};
  if (rows.rank == m.rows()) return out;
  out.vector = verified_lift(m, rows.vector, p, true);
  if (out.vector.empty()) {
    out.left = false;
    out.vector =
        verified_lift(m, kernel_mod_p(reduce_mod(m, p), p).vector, p, false);
  }
  return out;
}

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
  const std::size_t target = nonzero_lines_bound(m);
  return target == 0 ? 0 : certified_rank(m, target, ladder_rank(m, 0));
}

bool is_singular(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  // A zero row or column settles it without a prime.
  if (nonzero_lines_bound(m) < n) return true;
  const KernelCertificate probe = kernel_certificate(m);
  if (probe.rank_mod_p == n) return false;
  return !probe.vector.empty() || certified_rank(m, n, probe.rank_mod_p) < n;
}

}  // namespace ccmx::la
