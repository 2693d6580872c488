// The multimodular determinant engine.
//
// det_crt computes det mod p_i over the shared ladder of 62-bit primes
// (num::ladder_prime) until prod p_i exceeds twice the Hadamard bound, then
// reconstructs the signed integer by CRT.  It is what la::det runs from
// kDetCrtCrossover rows on, and its residues are what la::is_singular's
// early exit inspects.  The per-prime eliminations are independent, so for
// large matrices they shard across threads with util::parallel_for — the
// classic HPC structure of exact linear algebra, and the same mod-p kernel
// the fingerprint protocol runs (one prime = one protocol execution).
#pragma once

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// det(m), exact, via CRT over 62-bit primes.  Matches det_bareiss.
[[nodiscard]] num::BigInt det_crt(const IntMatrix& m);

/// Number of ladder primes det_crt uses for this matrix: enough that their
/// product, at 61 bits per prime, exceeds 2 * 2^hadamard_det_bits(m).
[[nodiscard]] std::size_t det_crt_prime_count(const IntMatrix& m);

}  // namespace ccmx::la
