// The multimodular engines over the shared ladder of 62-bit primes
// (num::ladder_prime).
//
// det_crt computes det mod p_i until prod p_i exceeds twice the Hadamard
// bound, then reconstructs the signed integer by CRT; it is what la::det
// runs from kDetCrtCrossover rows on.  rank_crt — what la::rank runs from
// kRankCrtCrossover on — and la::is_singular share one certified prime
// loop: the rank is the largest rank mod p_i, found early when it reaches
// its ceiling and otherwise certified once prod p_i exceeds the Hadamard
// bound on every minor (hadamard_minor_bits).  The per-prime eliminations
// are independent, so for large matrices they shard across threads with
// util::parallel_for — the classic HPC structure of exact linear algebra,
// and the same mod-p kernel the fingerprint protocol runs (one prime = one
// protocol execution).
#pragma once

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

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
