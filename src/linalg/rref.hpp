// Reduced row echelon form over the rationals, and everything that falls
// out of it: rank, nullspace, linear solves, span equality.
// The rank of an integer matrix is the exception: it never builds a
// rational (Bareiss for tiny matrices, the multimodular engine otherwise).
//
// Span equality via canonical RREF is the comparison the reproduction of
// Lemma 3.4 uses ("distinct instances of C yield distinct vector spaces"):
// two column spans are equal iff the RREFs of the transposed generators
// coincide.
#pragma once

#include <optional>
#include <vector>

#include "linalg/convert.hpp"

namespace ccmx::la {

struct RrefResult {
  RatMatrix rref;                        // the reduced form
  std::vector<std::size_t> pivot_cols;   // increasing
  [[nodiscard]] std::size_t rank() const noexcept { return pivot_cols.size(); }
};

/// Gauss-Jordan over Q; exact.
[[nodiscard]] RrefResult rref(const RatMatrix& m);

/// min(rows, cols) from which rank() runs the multimodular rank_crt
/// (det_crt.hpp) instead of Bareiss.  With 16-bit entries Bareiss wins or
/// ties below it; at 5 rank_crt wins full-rank input 1.6x and loses
/// rank-deficient input 1.2x; from 6 on it wins both (BM_RankBareiss /
/// BM_RankMultimodular in bench_ablations, docs/PERFORMANCE.md).
inline constexpr std::size_t kRankCrtCrossover = 5;

/// rank over Q of an integer matrix, exact: rank_bareiss below
/// kRankCrtCrossover, rank_crt from it.
[[nodiscard]] std::size_t rank(const IntMatrix& m);
[[nodiscard]] std::size_t rank(const RatMatrix& m);

/// rank by fraction-free (Bareiss) elimination with full pivot search.
[[nodiscard]] std::size_t rank_bareiss(const IntMatrix& m);

/// Basis of the right nullspace {x : m x = 0}; one column vector per basis
/// element (empty when m has full column rank).
[[nodiscard]] std::vector<std::vector<num::Rational>> nullspace(
    const RatMatrix& m);

/// Solves m x = b exactly; nullopt when inconsistent.  When the system is
/// underdetermined, returns the solution with free variables set to zero.
[[nodiscard]] std::optional<std::vector<num::Rational>> solve(
    const RatMatrix& m, const std::vector<num::Rational>& b);

/// Canonical form of the column span of m: the RREF of m^T with zero rows
/// dropped.  Two matrices have equal column spans iff their canonical forms
/// are equal.
[[nodiscard]] RatMatrix column_span_canonical(const RatMatrix& m);

/// True iff the column spans coincide.
[[nodiscard]] bool same_column_span(const RatMatrix& a, const RatMatrix& b);

/// Dimension of the intersection of the column spans of a and b
/// (dim a + dim b - dim [a | b]).
[[nodiscard]] std::size_t span_intersection_dim(const RatMatrix& a,
                                                const RatMatrix& b);

}  // namespace ccmx::la
