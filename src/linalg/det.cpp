#include "linalg/det.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/det_crt.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

BigInt det_bareiss(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  if (n == 0) return BigInt(1);
  IntMatrix a = m;
  BigInt prev(1);
  int sign = 1;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // Partial pivoting on the first nonzero entry of column k.
    std::size_t pivot = k;
    while (pivot < n && a(pivot, k).is_zero()) ++pivot;
    if (pivot == n) return BigInt(0);
    if (pivot != k) {
      a.swap_rows(pivot, k);
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        BigInt value = a(k, k) * a(i, j) - a(i, k) * a(k, j);
        a(i, j) = value.divide_exact(prev);
      }
      a(i, k) = BigInt(0);
    }
    prev = a(k, k);
  }
  BigInt result = a(n - 1, n - 1);
  if (sign < 0) result = -result;
  return result;
}

BigInt det_cofactor(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  CCMX_REQUIRE(n <= 10, "cofactor oracle limited to n <= 10");
  if (n == 0) return BigInt(1);
  if (n == 1) return m(0, 0);
  BigInt total(0);
  for (std::size_t j = 0; j < n; ++j) {
    if (m(0, j).is_zero()) continue;
    const BigInt sub = det_cofactor(m.minor_matrix(0, j));
    if (j % 2 == 0) {
      total += m(0, j) * sub;
    } else {
      total -= m(0, j) * sub;
    }
  }
  return total;
}

BigInt det(const IntMatrix& m) {
  return m.rows() < kDetCrtCrossover ? det_bareiss(m) : det_crt(m);
}

std::size_t hadamard_det_bits(std::size_t n, unsigned k) {
  // |det| <= (2^k * sqrt(n))^n  =>  bits <= n * (k + log2(n)/2) + 1.
  const double bits =
      static_cast<double>(n) *
          (static_cast<double>(k) +
           0.5 * std::log2(static_cast<double>(n == 0 ? 1 : n))) +
      1.0;
  return static_cast<std::size_t>(std::ceil(bits));
}

namespace {

/// log2 of prod ||row_i||_2 over the nonzero rows of m, bounded above from
/// each row's widest entry b_i and nonzero count: ||row_i||_2 <=
/// sqrt(nnz_i) * 2^{b_i}, with no cap on the entry width.
struct RowNormBits {
  double bits = 0.0;
  bool zero_row = false;  // some row was left out
};

RowNormBits row_norm_bits(const IntMatrix& m) {
  RowNormBits out;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    std::size_t width = 0;
    std::size_t nonzeros = 0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (m(i, j).is_zero()) continue;
      ++nonzeros;
      width = std::max(width, m(i, j).bit_length());
    }
    if (nonzeros == 0) {
      out.zero_row = true;
      continue;
    }
    out.bits += static_cast<double>(width) +
                0.5 * std::log2(static_cast<double>(nonzeros));
  }
  return out;
}

}  // namespace

std::size_t hadamard_det_bits(const IntMatrix& m) {
  // |det| <= prod_i ||row_i||_2; a zero row makes every such det 0.
  const RowNormBits norms = row_norm_bits(m);
  if (norms.zero_row) return 0;
  return static_cast<std::size_t>(std::ceil(norms.bits + 1.0));
}

std::size_t hadamard_minor_bits(const IntMatrix& m) {
  return static_cast<std::size_t>(std::ceil(row_norm_bits(m).bits + 1.0));
}

}  // namespace ccmx::la
