// Input generators whose labels come from their construction.
//
// A generator either plants the answer (a duplicated row, 0/1 factors of
// low rank, a Lemma 3.5(a) completion, b copied from a column of A) or draws
// an input whose other-side label ("nonsingular", "unsolvable") the
// workload then certifies with certify_nonsingular: a nonzero determinant
// mod a fresh random 62-bit prime proves nonsingularity over Z.
// The mod-p arithmetic here is the benchmark's own, so a label never
// depends on the library engine it is used to check.
#pragma once

#include <cstdint>

#include "core/construction.hpp"
#include "linalg/convert.hpp"
#include "util/rng.hpp"

namespace ccmxbench {

using ccmx::core::ConstructionParams;
using ccmx::la::IntMatrix;
using ccmx::util::Xoshiro256;

/// Deterministic Miller-Rabin for 64-bit n.
[[nodiscard]] bool is_prime_u64(std::uint64_t n);

/// Uniform random prime in [2^61, 2^62).
[[nodiscard]] std::uint64_t random_prime62(Xoshiro256& rng);

/// det(m) mod p by Gaussian elimination; p prime below 2^62, m square with
/// entries of absolute value below 2^63.
[[nodiscard]] std::uint64_t det_mod_prime(const IntMatrix& m, std::uint64_t p);

/// True when det(m) is nonzero mod a random 62-bit prime (so m is
/// nonsingular over Z).
[[nodiscard]] bool certify_nonsingular(const IntMatrix& m, Xoshiro256& rng);

/// rows x cols matrix of uniform entries in [0, 2^k).
[[nodiscard]] IntMatrix random_entries(std::size_t rows, std::size_t cols,
                                       unsigned k, Xoshiro256& rng);

/// A uniform n x n k-bit matrix with one row copied over another:
/// singular.
[[nodiscard]] IntMatrix planted_duplicate_row(std::size_t n, unsigned k,
                                              Xoshiro256& rng);

/// U V with U (n x r) and V (r x n) uniform 0/1: rank at most r, entries
/// at most r.
[[nodiscard]] IntMatrix low_rank_01(std::size_t n, std::size_t r,
                                    Xoshiro256& rng);

/// The paper's 2n x 2n hard instance with (D, y) from the Lemma 3.5(a)
/// completion of a random (C, E): singular by the lemma.  Throws if the
/// completion fails.
[[nodiscard]] IntMatrix hard_completed(const ConstructionParams& p,
                                       Xoshiro256& rng);

/// A hard-family instance with random free parts (not completed).
[[nodiscard]] IntMatrix hard_random(const ConstructionParams& p,
                                    Xoshiro256& rng);

/// [A | b] (n x n, b the last column) with b a copy of a column of A:
/// solvable.
[[nodiscard]] IntMatrix system_planted_b(std::size_t n, unsigned k,
                                         Xoshiro256& rng);

}  // namespace ccmxbench
