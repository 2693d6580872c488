// The multimodular engines over the shared ladder of 62-bit primes
// (num::ladder_prime).
//
// det_crt computes det mod p_i until prod p_i exceeds twice the Hadamard
// bound, then reconstructs the signed integer by CRT; it is what la::det
// runs from kDetCrtCrossover rows on.  rank_crt — what la::rank runs from
// kRankCrtCrossover on — and la::is_singular share one certified prime
// loop: the rank is the largest rank mod p_i, found early when it reaches
// its ceiling and otherwise certified once prod p_i exceeds the Hadamard
// bound on every minor (hadamard_minor_bits).  is_singular tries a shorter
// proof before that loop: kernel_certificate below.  The per-prime
// eliminations are independent, so when there is enough work they shard
// across threads with util::parallel_for — the classic HPC structure of
// exact linear algebra, and the same mod-p kernel the fingerprint protocol
// runs (one prime = one protocol execution).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// What the first ladder prime p0 says about a square m, and the proof of
/// singularity it may carry.
struct KernelCertificate {
  /// rank(m mod p0); n proves m nonsingular.
  std::size_t rank_mod_p = 0;
  /// Empty, or a nonzero integer vector v with v^T m = 0 (left) or m v = 0,
  /// checked exactly over Z: a proof that m is singular.
  std::vector<std::int64_t> vector;
  bool left = true;
};

/// rank(m mod p0) and, when it is below n, a kernel vector of m mod p0 —
/// from m^T's echelon form first, then from m's — lifted to Z by rational
/// reconstruction (num::rational_reconstruct) and kept only if it
/// annihilates m exactly.  A vector too large to reconstruct from one prime
/// (a Lemma 3.5(a) completion's, made of powers of q) or a dependency that
/// holds mod p0 only leaves `vector` empty.  Requires square.
[[nodiscard]] KernelCertificate kernel_certificate(const IntMatrix& m);

/// det(m), exact, via CRT over 62-bit primes.  Matches det_bareiss.
[[nodiscard]] num::BigInt det_crt(const IntMatrix& m);

/// rank(m) over Q, exact: the largest rank(m mod p_i), stopping as soon as
/// it reaches the number of nonzero rows or columns, else once prod p_i
/// exceeds 2^hadamard_minor_bits(m).  Matches rank_bareiss; never builds a
/// BigInt.
[[nodiscard]] std::size_t rank_crt(const IntMatrix& m);

/// Number of ladder primes det_crt uses for this matrix: enough that their
/// product, at 61 bits per prime, exceeds 2 * 2^hadamard_det_bits(m).
[[nodiscard]] std::size_t det_crt_prime_count(const IntMatrix& m);

}  // namespace ccmx::la
