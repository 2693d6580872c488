// RREF, nullspace, solve, LUP, QR, charpoly, SVD structure — the Corollary
// 1.2 substrate.
#include <gtest/gtest.h>

#include "linalg/charpoly.hpp"
#include "linalg/det.hpp"
#include "linalg/lup.hpp"
#include "linalg/qr.hpp"
#include "linalg/rref.hpp"
#include "linalg/svd.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::RatMatrix;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

RatMatrix random_rational_matrix(std::size_t r, std::size_t c,
                                 Xoshiro256& rng) {
  return RatMatrix::generate(r, c, [&](std::size_t, std::size_t) {
    return Rational(BigInt(rng.range(-6, 6)));
  });
}

TEST(Rref, KnownForm) {
  const RatMatrix m{{Rational(1), Rational(2), Rational(3)},
                    {Rational(2), Rational(4), Rational(7)}};
  const auto result = ccmx::la::rref(m);
  EXPECT_EQ(result.rank(), 2u);
  EXPECT_EQ(result.pivot_cols, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(result.rref(0, 0), Rational(1));
  EXPECT_EQ(result.rref(0, 1), Rational(2));
  EXPECT_EQ(result.rref(0, 2), Rational(0));
  EXPECT_EQ(result.rref(1, 2), Rational(1));
}

TEST(Rref, IdempotentAndPivotStructure) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const RatMatrix m = random_rational_matrix(4, 6, rng);
    const auto once = ccmx::la::rref(m);
    const auto twice = ccmx::la::rref(once.rref);
    EXPECT_EQ(once.rref, twice.rref);
    // Each pivot column is a unit vector.
    for (std::size_t r = 0; r < once.pivot_cols.size(); ++r) {
      for (std::size_t i = 0; i < m.rows(); ++i) {
        EXPECT_EQ(once.rref(i, once.pivot_cols[r]),
                  i == r ? Rational(1) : Rational(0));
      }
    }
  }
}

TEST(Nullspace, VectorsAnnihilate) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const RatMatrix m = random_rational_matrix(3, 6, rng);
    const auto basis = ccmx::la::nullspace(m);
    EXPECT_EQ(basis.size(), 6u - ccmx::la::rank(m));
    for (const auto& v : basis) {
      const auto mv = multiply(m, v);
      for (const auto& entry : mv) EXPECT_TRUE(entry.is_zero());
    }
  }
}

TEST(Solve, ConsistentAndInconsistent) {
  const RatMatrix a{{Rational(1), Rational(1)}, {Rational(2), Rational(2)}};
  // b in the column span.
  const auto sol = ccmx::la::solve(a, {Rational(3), Rational(6)});
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(multiply(a, *sol), (std::vector<Rational>{Rational(3), Rational(6)}));
  // b outside.
  EXPECT_FALSE(ccmx::la::solve(a, {Rational(3), Rational(7)}).has_value());
}

TEST(Solve, RandomizedRoundTrip) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const RatMatrix a = random_rational_matrix(4, 3, rng);
    std::vector<Rational> x;
    for (int i = 0; i < 3; ++i) x.emplace_back(BigInt(rng.range(-5, 5)));
    const auto b = multiply(a, x);
    const auto sol = ccmx::la::solve(a, b);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(multiply(a, *sol), b);  // maybe a different x, same image
  }
}

TEST(SpanOps, MembershipAndEquality) {
  const RatMatrix gens{{Rational(1), Rational(0)},
                       {Rational(0), Rational(1)},
                       {Rational(1), Rational(1)}};
  EXPECT_TRUE(
      ccmx::la::solve(gens, {Rational(2), Rational(3), Rational(5)}).has_value());
  EXPECT_FALSE(
      ccmx::la::solve(gens, {Rational(2), Rational(3), Rational(6)}).has_value());
  // Span equality under column operations.
  const RatMatrix doubled{{Rational(2), Rational(1)},
                          {Rational(0), Rational(1)},
                          {Rational(2), Rational(2)}};
  EXPECT_TRUE(ccmx::la::same_column_span(gens, doubled));
  const RatMatrix other{{Rational(1), Rational(0)},
                        {Rational(0), Rational(1)},
                        {Rational(0), Rational(0)}};
  EXPECT_FALSE(ccmx::la::same_column_span(gens, other));
}

TEST(SpanOps, IntersectionDimension) {
  // Two planes in Q^3 meeting in a line.
  const RatMatrix p1{{Rational(1), Rational(0)},
                     {Rational(0), Rational(1)},
                     {Rational(0), Rational(0)}};
  const RatMatrix p2{{Rational(1), Rational(0)},
                     {Rational(0), Rational(0)},
                     {Rational(0), Rational(1)}};
  EXPECT_EQ(ccmx::la::span_intersection_dim(p1, p2), 1u);
  EXPECT_EQ(ccmx::la::span_intersection_dim(p1, p1), 2u);
}

class LupRandomized : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LupRandomized, ReconstructsPA) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n * 13);
  for (int trial = 0; trial < 15; ++trial) {
    RatMatrix a = random_rational_matrix(n, n, rng);
    if (trial % 3 == 0 && n >= 2) {
      // Force singularity: duplicate a column.
      for (std::size_t i = 0; i < n; ++i) a(i, n - 1) = a(i, 0);
    }
    const auto f = ccmx::la::lup_decompose(a);
    EXPECT_EQ(ccmx::la::lup_reconstruct(f), a.permute_rows(f.perm));
    // L unit lower triangular; U upper triangular.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(f.lower(i, i), Rational(1));
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_TRUE(f.lower(i, j).is_zero());
      }
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_TRUE(f.upper(i, j).is_zero());
      }
    }
    EXPECT_EQ(f.rank, ccmx::la::rank(a));
    EXPECT_EQ(f.singular(),
              ccmx::la::det_bareiss(ccmx::la::map_matrix<BigInt>(
                  a, [](const Rational& v) { return v.num(); })).is_zero());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LupRandomized,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u));

class QrRandomized : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QrRandomized, OrthogonalityAndReconstruction) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n * 17);
  for (int trial = 0; trial < 15; ++trial) {
    RatMatrix a = random_rational_matrix(n + 1, n, rng);
    if (trial % 3 == 0 && n >= 2) {
      for (std::size_t i = 0; i <= n; ++i) a(i, n - 1) = a(i, 0);
    }
    const auto f = ccmx::la::qr_decompose(a);
    EXPECT_EQ(ccmx::la::qr_reconstruct(f), a);
    // Q^T Q diagonal.
    const RatMatrix g = ccmx::la::gram(f.q);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          EXPECT_TRUE(g(i, j).is_zero()) << i << "," << j;
        }
      }
    }
    // R unit upper triangular.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(f.r(i, i), Rational(1));
      for (std::size_t j = 0; j < i; ++j) EXPECT_TRUE(f.r(i, j).is_zero());
    }
    EXPECT_EQ(f.rank, ccmx::la::rank(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrRandomized,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(Charpoly, KnownMatrices) {
  // [[2,1],[1,2]]: x^2 - 4x + 3.
  const RatMatrix m{{Rational(2), Rational(1)}, {Rational(1), Rational(2)}};
  const auto coeffs = ccmx::la::charpoly(m);
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_EQ(coeffs[0], Rational(1));
  EXPECT_EQ(coeffs[1], Rational(-4));
  EXPECT_EQ(coeffs[2], Rational(3));
}

TEST(Charpoly, ConstantTermIsSignedDeterminant) {
  Xoshiro256 rng(19);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 1 + rng.below(5);
    const RatMatrix m = random_rational_matrix(n, n, rng);
    const auto coeffs = ccmx::la::charpoly(m);
    const BigInt det = ccmx::la::det_bareiss(ccmx::la::map_matrix<BigInt>(
        m, [](const Rational& v) { return v.num(); }));
    Rational expected{det};
    if (n % 2 == 1) expected = -expected;
    EXPECT_EQ(coeffs[n], expected);
    // Trace term.
    Rational trace(0);
    for (std::size_t i = 0; i < n; ++i) trace += m(i, i);
    EXPECT_EQ(coeffs[1], -trace);
  }
}

TEST(Charpoly, CayleyHamilton) {
  Xoshiro256 rng(21);
  const RatMatrix m = random_rational_matrix(4, 4, rng);
  const auto coeffs = ccmx::la::charpoly(m);
  // p(M) = 0.
  RatMatrix acc(4, 4);  // zero
  RatMatrix power = RatMatrix::identity(4, Rational(1));
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    // acc += coeffs[i] * M^{n - i}; iterate from constant term upward.
    RatMatrix term = power;
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) term(r, c) *= coeffs[i];
    }
    acc += term;
    if (i > 0) power = power * m;
  }
  EXPECT_EQ(acc, RatMatrix(4, 4));
}

TEST(SvdStructure, RankAndSingularity) {
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 2 + rng.below(4);
    RatMatrix m = random_rational_matrix(n, n, rng);
    if (trial % 2 == 0) {
      for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = m(i, 0);  // singular
    }
    const auto s = ccmx::la::svd_structure(m);
    EXPECT_EQ(s.rank, ccmx::la::rank(m));
    EXPECT_EQ(s.dimension, n);
    EXPECT_EQ(s.singular(), ccmx::la::rank(m) < n);
    if (!s.singular()) {
      // prod sigma_i^2 == det(A)^2.
      const BigInt det = ccmx::la::det_bareiss(ccmx::la::map_matrix<BigInt>(
          m, [](const Rational& v) { return v.num(); }));
      EXPECT_EQ(s.nonzero_sigma_sq_product, Rational(det * det));
    }
  }
}

TEST(SvdStructure, RectangularUsesSmallGram) {
  Xoshiro256 rng(29);
  const RatMatrix tall = random_rational_matrix(6, 2, rng);
  const auto s = ccmx::la::svd_structure(tall);
  EXPECT_EQ(s.dimension, 2u);
  EXPECT_EQ(s.gram_charpoly.size(), 3u);  // Gram side = 2
  EXPECT_EQ(s.rank, ccmx::la::rank(tall));
}

}  // namespace
