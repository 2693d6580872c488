#include "linalg/det_crt.hpp"

#include <atomic>

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

bool is_singular(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  if (m.rows() == 0) return false;
  // One nonzero residue proves det != 0; for a nonsingular matrix the first
  // prime almost always settles it.
  if (ladder_residue(m, 0) != 0) return false;
  // A nonzero det with zero residues would be divisible by the product of
  // the primes, which exceeds the Hadamard bound — so all-zero proves det = 0.
  std::atomic<bool> nonzero{false};
  for_each_prime(m, 1, det_crt_prime_count(m), [&](std::size_t i) {
    if (!nonzero && ladder_residue(m, i) != 0) nonzero = true;
  });
  return !nonzero;
}

}  // namespace ccmx::la
