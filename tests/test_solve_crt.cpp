// Extended gcd, rational reconstruction, and the CRT exact solver.
#include <gtest/gtest.h>

#include "bigint/modular.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "linalg/solve_crt.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

TEST(ExtGcd, BezoutIdentityHolds) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a(rng.range(-1000000, 1000000));
    const BigInt b(rng.range(-1000000, 1000000));
    const auto e = BigInt::gcd_ext(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, BigInt::gcd(a, b));
  }
  const auto zero = BigInt::gcd_ext(BigInt(0), BigInt(0));
  EXPECT_TRUE(zero.g.is_zero());
}

TEST(ExtGcd, LargeOperands) {
  const BigInt a = BigInt::pow(BigInt(10), 40) + BigInt(7);
  const BigInt b = BigInt::pow(BigInt(3), 50) + BigInt(1);
  const auto e = BigInt::gcd_ext(a, b);
  EXPECT_EQ(a * e.x + b * e.y, e.g);
}

TEST(ModInverse, RoundTrips) {
  const BigInt m = BigInt::from_string("1000000000000000003");  // prime
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt a(rng.range(1, 1000000000));
    const BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ(BigInt::mod_floor(a * inv, m), BigInt(1));
    EXPECT_GE(inv, BigInt(0));
    EXPECT_LT(inv, m);
  }
  EXPECT_THROW((void)BigInt::mod_inverse(BigInt(6), BigInt(9)),
               ccmx::util::contract_error);
}

TEST(RationalReconstruct, RecoversPlantedFractions) {
  // Plant p/q, compute p * q^{-1} mod m, recover.
  const BigInt m = BigInt::pow(BigInt(2), 127) - BigInt(1);  // prime
  const BigInt bound = BigInt::pow2(60);
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    BigInt p(rng.range(-1000000000, 1000000000));
    BigInt q(rng.range(1, 1000000000));
    const BigInt g = BigInt::gcd(p, q);
    if (!g.is_zero() && g != BigInt(1)) {
      p = p.divide_exact(g);
      q = q.divide_exact(g);
    }
    const BigInt residue =
        BigInt::mod_floor(p * BigInt::mod_inverse(q, m), m);
    const auto recovered = ccmx::la::rational_reconstruct(residue, m, bound);
    ASSERT_TRUE(recovered.has_value()) << trial;
    EXPECT_EQ(*recovered, Rational(p, q)) << trial;
  }
}

TEST(RationalReconstruct, FailsWhenBoundTooSmall) {
  const BigInt m(10007);
  // 5000 is not representable with num/den <= 3 mod 10007.
  const auto r = ccmx::la::rational_reconstruct(BigInt(5000), m, BigInt(3));
  EXPECT_FALSE(r.has_value());
  // Integers reconstruct as themselves.
  const auto i = ccmx::la::rational_reconstruct(BigInt(42), m, BigInt(100));
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, Rational(42));
}

class SolveCrtSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(SolveCrtSweep, MatchesRationalGaussian) {
  const auto [n, bits] = GetParam();
  Xoshiro256 rng(n * 100 + bits);
  for (int trial = 0; trial < 6; ++trial) {
    // Random (almost surely nonsingular) system.
    const IntMatrix a = IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
      BigInt v(static_cast<std::int64_t>(rng.below(std::uint64_t{1} << bits)));
      return rng.coin() ? v : -v;
    });
    if (ccmx::la::det_bareiss(a).is_zero()) continue;
    std::vector<BigInt> b;
    for (std::size_t i = 0; i < n; ++i) b.push_back(BigInt(rng.range(-99, 99)));
    const auto fast = ccmx::la::solve_crt(a, b);
    ASSERT_TRUE(fast.has_value());
    std::vector<Rational> rhs;
    for (const BigInt& v : b) rhs.emplace_back(v);
    const auto reference = ccmx::la::solve(ccmx::la::to_rational(a), rhs);
    ASSERT_TRUE(reference.has_value());
    EXPECT_EQ(*fast, *reference);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SolveCrtSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{6}, std::size_t{9}),
                       ::testing::Values(3u, 20u, 40u)));

TEST(SolveCrt, DetectsSingularSystems) {
  Xoshiro256 rng(4);
  IntMatrix a = IntMatrix::generate(4, 4, [&](std::size_t, std::size_t) {
    return BigInt(rng.range(-9, 9));
  });
  for (std::size_t i = 0; i < 4; ++i) a(i, 3) = a(i, 0);
  std::vector<BigInt> b(4, BigInt(1));
  EXPECT_FALSE(ccmx::la::solve_crt(a, b).has_value());
}

TEST(SolveCrt, EmptySystem) {
  const auto x = ccmx::la::solve_crt(IntMatrix(0, 0), {});
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(x->empty());
}

TEST(SolveCrt, SolutionIsExactRational) {
  // 2x = 1 -> x = 1/2 (a genuinely non-integer solution).
  IntMatrix a(1, 1);
  a(0, 0) = BigInt(2);
  const auto x = ccmx::la::solve_crt(a, {BigInt(1)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], Rational(BigInt(1), BigInt(2)));
}

TEST(SolveCrt, WideCoefficientDividedByLadderPrimes) {
  // d x = 1 with d the product of the first three ladder primes (184
  // bits).  Sizing the prime budget from entries capped at 62 bits
  // allowed only two zero-determinant primes, so the third "proved" the
  // system singular.
  BigInt d(1);
  for (std::size_t i = 0; i < 3; ++i) {
    d *= BigInt(static_cast<std::int64_t>(ccmx::num::ladder_prime(i)));
  }
  const auto x = ccmx::la::solve_crt(IntMatrix{{d}}, {BigInt(1)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], Rational(BigInt(1), d));
}

}  // namespace
