// Exact determinants and singularity of integer matrices.
//
// Callers ask two questions, each with one entry point:
//   * det(m) — the value.  Bareiss fraction-free elimination below
//     kDetCrtCrossover rows (all intermediates integral and bounded by
//     Hadamard's inequality, O(n^3) BigInt operations), det_crt above it
//     (one word-sized elimination per 62-bit prime, then CRT).
//   * is_singular(m) — only whether det(m) == 0, read as "certified rank
//     < n" off the prime loop of rank_crt (det_crt.hpp): one residue of
//     rank n proves nonsingularity, and lower ranks on primes whose product
//     exceeds the Hadamard bound prove singularity.  This is Leighton's
//     fingerprint bound read as a certificate, and never builds a BigInt.
// det_bareiss, det_crt (det_crt.hpp) and the O(n!) cofactor expansion stay
// as named engines so tests and the A0a table can cross-check them.
#pragma once

#include <cstddef>

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// Rows from which det() runs det_crt instead of Bareiss: the first n at
/// which det_crt wins for both 8- and 32-bit entries (BM_DetBareiss /
/// BM_DetCrt in bench_ablations; numbers in docs/PERFORMANCE.md).
inline constexpr std::size_t kDetCrtCrossover = 7;

/// det(m), exact.  Requires square.
[[nodiscard]] num::BigInt det(const IntMatrix& m);

/// True iff det(m) == 0, decided exactly by the early-exit multimodular
/// engine.  Requires square.
[[nodiscard]] bool is_singular(const IntMatrix& m);

/// det(m) by Bareiss fraction-free Gaussian elimination.  Requires square.
[[nodiscard]] num::BigInt det_bareiss(const IntMatrix& m);

/// det(m) by cofactor expansion — O(n!) reference oracle for small n.
[[nodiscard]] num::BigInt det_cofactor(const IntMatrix& m);

/// Hadamard upper bound on |det| for an n x n matrix whose entries have
/// absolute value < 2^k: (2^k * sqrt(n))^n, returned as a bit-length bound.
/// This drives the fingerprint protocols' prime-pool sizing.
[[nodiscard]] std::size_t hadamard_det_bits(std::size_t n, unsigned k);

/// Bit-length bound on prod_i ||row_i||_2, from each row's widest entry and
/// nonzero count — valid for entries of any width.  By Hadamard's
/// inequality it bounds |det m| for square m; for an augmented [A | b] it
/// bounds det A and every Cramer numerator (a row of A with one entry
/// replaced by b_i is no longer than the row of [A | b]).
[[nodiscard]] std::size_t hadamard_det_bits(const IntMatrix& m);

/// The same bound over the nonzero rows only, so it bounds every minor of m
/// of any size: a minor's rows are pieces of distinct rows of m, each no
/// longer than the whole row, and a nonzero integer row has norm >= 1.
/// This sizes rank_crt's prime budget, where hadamard_det_bits(m) — 0 on a
/// zero row, which is right for det — would certify nothing.
[[nodiscard]] std::size_t hadamard_minor_bits(const IntMatrix& m);

}  // namespace ccmx::la
