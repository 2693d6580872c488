// Linear algebra over the prime field Z_p, p < 2^62.
//
// This is the arithmetic the probabilistic protocols run: an agent reduces
// its half of the matrix mod a public random prime, ships the residues, and
// the receiver decides singularity / rank / solvability in Z_p.  Plain
// Gaussian elimination — no fraction growth.  The row update multiplies by
// one factor per row, so it runs on Shoup's precomputed quotient
// (num::submul_row_mod): two word multiplies and a conditional subtract per
// entry instead of a 128-bit division, with residues identical to
// mulmod's.  Moduli must be below 2^63.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/convert.hpp"

namespace ccmx::la {

/// det(m) mod p.  Requires square m with entries already reduced mod p.
[[nodiscard]] std::uint64_t det_mod_p(ModMatrix m, std::uint64_t p);

/// rank of m over Z_p.
[[nodiscard]] std::size_t rank_mod_p(ModMatrix m, std::uint64_t p);

/// rank of m over Z_p and, when it is below m.cols(), a nonzero x with
/// m x = 0 over Z_p.  x comes from back-substitution on the echelon form:
/// the first free column gets 1, the other free columns 0, so a kernel
/// spanned by a small integer vector comes out as that vector over its
/// entry in the first free column.
struct ModKernel {
  std::size_t rank = 0;
  std::vector<std::uint64_t> vector;  // empty when rank == m.cols()
};
[[nodiscard]] ModKernel kernel_mod_p(ModMatrix m, std::uint64_t p);

/// Solves m x = b over Z_p; nullopt when inconsistent.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> solve_mod_p(
    ModMatrix m, std::vector<std::uint64_t> b, std::uint64_t p);

/// Product over Z_p.
[[nodiscard]] ModMatrix multiply_mod_p(const ModMatrix& a, const ModMatrix& b,
                                       std::uint64_t p);

/// Matrix-vector product over Z_p.
[[nodiscard]] std::vector<std::uint64_t> multiply_mod_p(
    const ModMatrix& a, const std::vector<std::uint64_t>& x, std::uint64_t p);

}  // namespace ccmx::la
