#include "linalg/fp.hpp"

#include <algorithm>

#include "bigint/modular.hpp"
#include "util/require.hpp"

namespace ccmx::la {

namespace {

using num::invmod;
using num::mulmod;

/// The row kernel (num::submul_row_mod) needs 2p to fit in a word.
void require_modulus(std::uint64_t p) {
  CCMX_REQUIRE(p >= 2 && p < (std::uint64_t{1} << 63),
               "modulus must be in [2, 2^63)");
}

/// A pivot of the echelon form: its column and the inverse of its entry.
struct Pivot {
  std::size_t col;
  std::uint64_t inv;
};

/// In-place elimination to row echelon form; returns (rank, det-accumulator).
/// The determinant accumulator is only meaningful for square inputs.  When
/// `pivots` is given, it receives the pivot of each nonzero row in order.
std::pair<std::size_t, std::uint64_t> echelon(
    ModMatrix& a, std::uint64_t p, std::vector<Pivot>* pivots = nullptr) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::uint64_t det = 1;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols && row < rows; ++col) {
    std::size_t pivot = row;
    while (pivot < rows && a(pivot, col) == 0) ++pivot;
    if (pivot == rows) {
      det = 0;  // a zero column means a zero pivot for square inputs
      continue;
    }
    if (pivot != row) {
      a.swap_rows(pivot, row);
      det = det == 0 ? 0 : p - det;  // row swap flips the sign
      if (det == p) det = 0;
    }
    const std::uint64_t inv = invmod(a(row, col), p);
    const std::uint64_t inv_shoup = num::shoup_precompute(inv, p);
    if (pivots != nullptr) pivots->push_back({col, inv});
    det = mulmod(det, a(row, col), p);
    for (std::size_t i = row + 1; i < rows; ++i) {
      if (a(i, col) == 0) continue;
      num::submul_row_mod(&a(i, col), &a(row, col), cols - col,
                          num::mulmod_shoup(inv, inv_shoup, a(i, col), p), p);
    }
    ++row;
  }
  return {row, det};
}

}  // namespace

std::uint64_t det_mod_p(ModMatrix m, std::uint64_t p) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  require_modulus(p);
  auto [rank, det] = echelon(m, p);
  return rank == m.rows() ? det : 0;
}

std::size_t rank_mod_p(ModMatrix m, std::uint64_t p) {
  require_modulus(p);
  return echelon(m, p).first;
}

ModKernel kernel_mod_p(ModMatrix m, std::uint64_t p) {
  require_modulus(p);
  std::vector<Pivot> pivots;
  pivots.reserve(std::min(m.rows(), m.cols()));
  ModKernel out{echelon(m, p, &pivots).first, {}};
  if (out.rank == m.cols()) return out;
  // Pivot columns rise strictly from pivots[r].col >= r, so the first free
  // column is the first r where they part.
  std::size_t free = 0;
  while (free < out.rank && pivots[free].col == free) ++free;
  std::vector<std::uint64_t>& x = out.vector;
  x.assign(m.cols(), 0);
  x[free] = 1;
  // Each x_j is fixed once set, so its Shoup companion turns every later
  // product m(r, j) x_j into two word multiplies.
  std::vector<std::uint64_t> x_shoup(m.cols(), 0);
  x_shoup[free] = num::shoup_precompute(1, p);
  for (std::size_t r = out.rank; r-- > 0;) {
    // Row r reads m(r, c) x_c + sum_{j > c} m(r, j) x_j = 0.
    const std::size_t c = pivots[r].col;
    std::uint64_t sum = 0;
    for (std::size_t j = c + 1; j < m.cols(); ++j) {
      if (x[j] == 0) continue;
      sum += num::mulmod_shoup(x[j], x_shoup[j], m(r, j), p);
      if (sum >= p) sum -= p;
    }
    if (sum == 0) continue;
    x[c] = mulmod(p - sum, pivots[r].inv, p);
    x_shoup[c] = num::shoup_precompute(x[c], p);
  }
  return out;
}

std::optional<std::vector<std::uint64_t>> solve_mod_p(
    ModMatrix m, std::vector<std::uint64_t> b, std::uint64_t p) {
  CCMX_REQUIRE(b.size() == m.rows(), "solve shape mismatch");
  require_modulus(p);
  const std::size_t cols = m.cols();
  ModMatrix augmented(m.rows(), cols + 1);
  augmented.set_block(0, 0, m);
  for (std::size_t i = 0; i < m.rows(); ++i) augmented(i, cols) = b[i] % p;
  // Full Gauss-Jordan on the augmented system.
  const std::size_t rows = augmented.rows();
  std::vector<std::size_t> pivot_cols;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols + 1 && row < rows; ++col) {
    std::size_t pivot = row;
    while (pivot < rows && augmented(pivot, col) == 0) ++pivot;
    if (pivot == rows) continue;
    augmented.swap_rows(pivot, row);
    const std::uint64_t inv = invmod(augmented(row, col), p);
    const std::uint64_t inv_shoup = num::shoup_precompute(inv, p);
    for (std::size_t j = col; j <= cols; ++j) {
      augmented(row, j) =
          num::mulmod_shoup(inv, inv_shoup, augmented(row, j), p);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == row || augmented(i, col) == 0) continue;
      num::submul_row_mod(&augmented(i, col), &augmented(row, col),
                          cols + 1 - col, augmented(i, col) % p, p);
    }
    pivot_cols.push_back(col);
    ++row;
  }
  for (const std::size_t c : pivot_cols) {
    if (c == cols) return std::nullopt;  // pivot in the RHS column
  }
  std::vector<std::uint64_t> x(cols, 0);
  for (std::size_t r = 0; r < pivot_cols.size(); ++r) {
    x[pivot_cols[r]] = augmented(r, cols);
  }
  return x;
}

ModMatrix multiply_mod_p(const ModMatrix& a, const ModMatrix& b,
                         std::uint64_t p) {
  CCMX_REQUIRE(a.cols() == b.rows(), "product shape mismatch");
  ModMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) = (out(i, j) + mulmod(a(i, k), b(k, j), p)) % p;
      }
    }
  }
  return out;
}

std::vector<std::uint64_t> multiply_mod_p(const ModMatrix& a,
                                          const std::vector<std::uint64_t>& x,
                                          std::uint64_t p) {
  CCMX_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  std::vector<std::uint64_t> out(a.rows(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out[i] = (out[i] + mulmod(a(i, j), x[j], p)) % p;
    }
  }
  return out;
}

}  // namespace ccmx::la
