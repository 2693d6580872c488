// Randomized differential test of the exact-singularity engine.
//
// la::is_singular (multimodular, early exit) and la::det (Bareiss / CRT
// dispatch) are checked against det_bareiss over dense, wide-entry,
// singular (duplicated rows, low-rank 0/1 products, Lemma 3.5(a)
// completions) and adversarial nonsingular inputs whose determinant is a
// product of ladder primes, so the early exit must look past zero
// residues.  The kernel-vector certificate must fire on small integer
// dependencies, refuse dependencies that hold mod the first ladder prime
// only, and leave tall kernels to the prime loop; rational reconstruction
// is checked exhaustively on a small prime.  The Shoup mod-p kernels are
// checked against a naive u128 % p elimination, and the shared prime
// ladder against concurrent use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/modular.hpp"
#include "core/construction.hpp"
#include "linalg/det.hpp"
#include "linalg/det_crt.hpp"
#include "linalg/fp.hpp"
#include "util/int128.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::ModMatrix;
using ccmx::num::BigInt;
using ccmx::util::u128;
using ccmx::util::Xoshiro256;

// ------------------------------------------------------------- generators

/// Uniform magnitude below 2^bits (any width), random sign.
BigInt random_signed(unsigned bits, Xoshiro256& rng) {
  BigInt v(0);
  for (unsigned done = 0; done < bits; done += 32) {
    const unsigned chunk = bits - done < 32 ? bits - done : 32;
    v *= BigInt(std::int64_t{1} << chunk);
    v += BigInt(static_cast<std::int64_t>(rng.below(std::uint64_t{1} << chunk)));
  }
  return rng.coin() ? -v : v;
}

/// Dense signed entries of `bits` bits; one entry widened to 90 bits when
/// `wide` (entries past one 62-bit prime).
IntMatrix dense(std::size_t n, unsigned bits, bool wide, Xoshiro256& rng) {
  IntMatrix m = IntMatrix::generate(
      n, n, [&](std::size_t, std::size_t) { return random_signed(bits, rng); });
  if (wide && n > 0) m(rng.below(n), rng.below(n)) = random_signed(90, rng);
  return m;
}

/// Copies one row over another: singular for n >= 2.
IntMatrix duplicate_row(IntMatrix m, Xoshiro256& rng) {
  const std::size_t n = m.rows();
  const std::size_t src = rng.below(n);
  const std::size_t dst = (src + 1 + rng.below(n - 1)) % n;
  for (std::size_t j = 0; j < n; ++j) m(dst, j) = m(src, j);
  return m;
}

/// (n x r) * (r x n) product of random 0/1 factors: rank <= r < n.
IntMatrix low_rank_01(std::size_t n, std::size_t r, Xoshiro256& rng) {
  const auto bit = [&](std::size_t, std::size_t) {
    return BigInt(static_cast<std::int64_t>(rng.below(2)));
  };
  return IntMatrix::generate(n, r, bit) * IntMatrix::generate(r, n, bit);
}

/// diag(p_1, ..., p_j, 1, ...) over the first j ladder primes, hidden by
/// random unit lower / upper triangular factors: det = p_1 * ... * p_j,
/// so det = 0 mod each of the first j ladder primes.
IntMatrix ladder_diagonal(std::size_t n, std::size_t j, bool mix,
                          Xoshiro256& rng) {
  IntMatrix d = IntMatrix::identity(n, BigInt(1));
  for (std::size_t i = 0; i < j; ++i) {
    d(i, i) = BigInt(static_cast<std::int64_t>(ccmx::num::ladder_prime(i)));
  }
  if (!mix) return d;
  IntMatrix lower = IntMatrix::identity(n, BigInt(1));
  IntMatrix upper = IntMatrix::identity(n, BigInt(1));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      lower(r, c) = random_signed(3, rng);
      upper(c, r) = random_signed(3, rng);
    }
  }
  return lower * d * upper;
}

BigInt ladder_product(std::size_t j) {
  BigInt product(1);
  for (std::size_t i = 0; i < j; ++i) {
    product *= BigInt(static_cast<std::int64_t>(ccmx::num::ladder_prime(i)));
  }
  return product;
}

void expect_engines_agree(const IntMatrix& m, const char* kind) {
  const BigInt truth = ccmx::la::det_bareiss(m);
  EXPECT_EQ(ccmx::la::is_singular(m), truth.is_zero())
      << kind << " n=" << m.rows();
  EXPECT_EQ(ccmx::la::det(m), truth) << kind << " n=" << m.rows();
}

// ---------------------------------------------------- regression: wide entries

TEST(ExactSingularity, WideEntryGetsEnoughPrimes) {
  // One entry p1 * p2 (123 bits): a 62-bit cap on the entry width used to
  // size det_crt to two primes, both dividing det, so det_crt returned 0.
  const BigInt wide = ladder_product(2);
  EXPECT_EQ(wide, BigInt::from_string("5316911983139663574625576572814360891"));
  const IntMatrix m{{wide}};
  EXPECT_EQ(ccmx::la::det_bareiss(m), wide);
  EXPECT_EQ(ccmx::la::det_crt(m), wide);
  EXPECT_EQ(ccmx::la::det(m), wide);
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_GE(ccmx::la::det_crt_prime_count(m), 3u);
}

TEST(ExactSingularity, WideEntriesAboveTheCrossover) {
  for (const std::size_t n : {ccmx::la::kDetCrtCrossover, std::size_t{12}}) {
    IntMatrix m = IntMatrix::identity(n, BigInt(1));
    m(0, 0) = ladder_product(3);  // 184 bits in one entry
    m(n - 1, 0) = BigInt(5);
    EXPECT_EQ(ccmx::la::det_crt(m), ladder_product(3));
    EXPECT_EQ(ccmx::la::det(m), ladder_product(3));
    EXPECT_FALSE(ccmx::la::is_singular(m));
  }
}

// ------------------------------------------------------ randomized sweep

class EngineSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineSweep, IsSingularAndDetMatchBareiss) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xD3 + n);
  // Past n = 16 Bareiss itself gets slow: one 32-bit draw with one wide
  // entry.  Below, widths cycle through 1, 8, 31 and 62 bits.
  const bool large = n > 16;
  const int trials = large ? 1 : n <= 12 ? 6 : 4;
  const unsigned widths[] = {1, 8, 31, 62};
  for (int t = 0; t < trials; ++t) {
    const unsigned bits = large ? 32 : widths[t % 4];
    const IntMatrix m = dense(n, bits, large || t % 3 == 2, rng);
    expect_engines_agree(m, "dense");
    if (n < 2) continue;
    expect_engines_agree(duplicate_row(m, rng), "duplicate row");
    expect_engines_agree(low_rank_01(n, 1 + rng.below(n - 1), rng),
                         "low-rank 0/1");
  }
}

TEST_P(EngineSweep, LadderPrimeDeterminantsAreNonsingular) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xA5 + n);
  for (std::size_t j = 1; j <= std::min<std::size_t>(n, 4); ++j) {
    for (const bool mix : {false, true}) {
      const IntMatrix m = ladder_diagonal(n, j, mix, rng);
      EXPECT_FALSE(ccmx::la::is_singular(m)) << "n=" << n << " j=" << j;
      EXPECT_EQ(ccmx::la::det(m), ladder_product(j)) << "n=" << n;
      if (n <= 16) {
        EXPECT_EQ(ccmx::la::det_bareiss(m), ladder_product(j)) << "n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EngineSweep,
    ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                      std::size_t{3}, std::size_t{4}, std::size_t{5},
                      std::size_t{6}, std::size_t{7}, std::size_t{8},
                      std::size_t{9}, std::size_t{10}, std::size_t{11},
                      std::size_t{12}, std::size_t{16}, std::size_t{32},
                      std::size_t{48}, std::size_t{64}));

TEST(ExactSingularity, Lemma35CompletionsAreSingular) {
  Xoshiro256 rng(35);
  for (const auto& [half, k] : {std::pair<std::size_t, unsigned>{7, 2},
                                {9, 2}, {15, 4}, {31, 8}}) {
    const ccmx::core::ConstructionParams p(half, k);
    ASSERT_TRUE(p.valid());
    const auto seed = ccmx::core::FreeParts::random(p, rng);
    const auto parts = ccmx::core::lemma35_complete(p, seed.c, seed.e);
    ASSERT_TRUE(parts.has_value());
    const IntMatrix m = ccmx::core::build_m(p, *parts);
    EXPECT_TRUE(ccmx::la::is_singular(m)) << "2n=" << m.rows();
    EXPECT_TRUE(ccmx::la::det(m).is_zero()) << "2n=" << m.rows();
    if (m.rows() <= 30) {
      EXPECT_TRUE(ccmx::la::det_bareiss(m).is_zero()) << "2n=" << m.rows();
    }
  }
}

TEST(ExactSingularity, ZeroRowAndEmptyMatrix) {
  IntMatrix m = IntMatrix::identity(9, BigInt(7));
  for (std::size_t j = 0; j < 9; ++j) m(4, j) = BigInt(0);
  EXPECT_TRUE(ccmx::la::is_singular(m));
  EXPECT_EQ(ccmx::la::det(m), BigInt(0));
  EXPECT_FALSE(ccmx::la::is_singular(IntMatrix(0, 0)));
  EXPECT_EQ(ccmx::la::det(IntMatrix(0, 0)), BigInt(1));
  EXPECT_THROW((void)ccmx::la::is_singular(IntMatrix(2, 3)),
               ccmx::util::contract_error);
  EXPECT_THROW((void)ccmx::la::det(IntMatrix(3, 2)),
               ccmx::util::contract_error);
}

// ------------------------------------------------- kernel-vector certificate

/// Row or column dependencies with small integer coefficients over dense
/// 20-bit entries: the kernel of m mod p0 is spanned by a small vector.
enum class Dependency { kDuplicateRow, kDuplicateColumn, kTwoRows, kScaled };

IntMatrix dependent(std::size_t n, Dependency kind, Xoshiro256& rng) {
  IntMatrix m = dense(n, 20, false, rng);
  const std::size_t a = rng.below(n);
  const std::size_t b = (a + 1 + rng.below(n - 1)) % n;
  std::size_t c = rng.below(n);
  while (c == a || c == b) c = rng.below(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (kind) {
      case Dependency::kDuplicateRow:
        m(b, j) = m(a, j);
        break;
      case Dependency::kDuplicateColumn:
        m(j, b) = m(j, a);
        break;
      case Dependency::kTwoRows:  // r_c = 2 r_a - 3 r_b
        m(c, j) = m(a, j) * 2 - m(b, j) * 3;
        break;
      case Dependency::kScaled:  // 3 r_a = 2 r_b
        m(b, j) = m(a, j) * 3;
        m(a, j) *= 2;
        break;
    }
  }
  return m;
}

/// v^T m (left) or m v, exactly.  Requires v.size() == n.
std::vector<BigInt> apply(const IntMatrix& m, const std::vector<std::int64_t>& v,
                          bool left) {
  std::vector<BigInt> out(m.rows(), BigInt(0));
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      out[i] += (left ? m(j, i) : m(i, j)) * BigInt(v[j]);
    }
  }
  return out;
}

class KernelCertificate : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelCertificate, FiresOnSmallDependencies) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xCE + n);
  for (const Dependency kind :
       {Dependency::kDuplicateRow, Dependency::kDuplicateColumn,
        Dependency::kTwoRows, Dependency::kScaled}) {
    const IntMatrix m = dependent(n, kind, rng);
    const auto cert = ccmx::la::kernel_certificate(m);
    const int k = static_cast<int>(kind);
    EXPECT_EQ(cert.rank_mod_p, n - 1) << "kind=" << k << " n=" << n;
    ASSERT_FALSE(cert.vector.empty()) << "kind=" << k << " n=" << n;
    EXPECT_EQ(cert.left, kind != Dependency::kDuplicateColumn) << k;
    EXPECT_TRUE(std::any_of(cert.vector.begin(), cert.vector.end(),
                            [](std::int64_t c) { return c != 0; }));
    for (const BigInt& entry : apply(m, cert.vector, cert.left)) {
      EXPECT_TRUE(entry.is_zero()) << "kind=" << k << " n=" << n;
    }
    EXPECT_TRUE(ccmx::la::is_singular(m)) << "kind=" << k << " n=" << n;
    EXPECT_TRUE(ccmx::la::is_singular(m.transpose())) << k << " n=" << n;
    EXPECT_TRUE(ccmx::la::det_crt(m).is_zero()) << k << " n=" << n;
    if (n <= 12) {
      EXPECT_TRUE(ccmx::la::det_bareiss(m).is_zero()) << k;
    }
  }
}

/// U diag(p0, 1, ..., 1) (I + u e_0^T) P with U a dense unimodular product
/// of unit triangular factors and P a signed permutation: det = +-p0, so m
/// is nonsingular over Z but singular mod p0, and its kernel mod p0 is
/// spanned by P^T (e_0 - u) — a small vector, not a unit one, that lifts
/// to Z and must then fail the exact check.
IntMatrix fake_singular(std::size_t n, Xoshiro256& rng) {
  IntMatrix lower = IntMatrix::identity(n, BigInt(1));
  IntMatrix upper = IntMatrix::identity(n, BigInt(1));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      lower(r, c) = random_signed(2, rng);
      upper(c, r) = random_signed(2, rng);
    }
  }
  IntMatrix middle = IntMatrix::identity(n, BigInt(1));
  middle(0, 0) = BigInt(static_cast<std::int64_t>(ccmx::num::ladder_prime(0)));
  for (std::size_t i = 1; i < n; ++i) {
    const BigInt u = random_signed(3, rng);
    middle(i, 0) = i == 1 && u.is_zero() ? BigInt(5) : u;  // u_1 != 0
  }
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  IntMatrix signed_perm(n, n, BigInt(0));
  for (std::size_t i = 0; i < n; ++i) {
    signed_perm(i, perm[i]) = BigInt(rng.coin() ? 1 : -1);
  }
  return lower * upper * middle * signed_perm;
}

TEST_P(KernelCertificate, RefusesDependenciesThatHoldModP0Only) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xFA + n);
  const std::uint64_t p0 = ccmx::num::ladder_prime(0);
  for (int t = 0; t < 2; ++t) {
    const IntMatrix m = fake_singular(n, rng);
    // The candidate mod p0 reconstructs to a small non-unit vector, so it
    // reaches the exact check (here, m's own kernel; its transpose's is
    // tried first when certifying m^T).
    const auto kernel = ccmx::la::kernel_mod_p(ccmx::la::reduce_mod(m, p0), p0);
    ASSERT_EQ(kernel.rank, n - 1);
    std::size_t nonzero = 0;
    for (const std::uint64_t v : kernel.vector) {
      ASSERT_TRUE(ccmx::num::rational_reconstruct(v, p0).has_value());
      nonzero += v != 0;
    }
    EXPECT_GE(nonzero, 2u) << "n=" << n;
    for (const IntMatrix& input : {m, m.transpose()}) {
      const auto cert = ccmx::la::kernel_certificate(input);
      EXPECT_EQ(cert.rank_mod_p, n - 1);
      EXPECT_TRUE(cert.vector.empty()) << "n=" << n;
      EXPECT_FALSE(ccmx::la::is_singular(input)) << "n=" << n;
    }
    const BigInt det = ccmx::la::det_crt(m);
    EXPECT_EQ(det.abs(), BigInt(static_cast<std::int64_t>(p0))) << "n=" << n;
    if (n <= 12) {
      EXPECT_EQ(ccmx::la::det_bareiss(m), det) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelCertificate,
                         ::testing::Values(std::size_t{5}, std::size_t{12},
                                           std::size_t{32}, std::size_t{64}));

TEST(KernelCertificateLoop, TallKernelsFallThroughToThePrimeLoop) {
  // Lemma 3.5(a) completions: the kernel is made of powers of q.  At
  // (31, 8) they are far past one prime's reconstruction bound, so the
  // certificate stays empty and the Hadamard-count loop decides; smaller
  // completions may be certified, and then the vector must hold exactly.
  Xoshiro256 rng(351);
  for (const auto& [half, k] : {std::pair<std::size_t, unsigned>{7, 2},
                                {15, 4}, {31, 8}}) {
    const ccmx::core::ConstructionParams p(half, k);
    const auto seed = ccmx::core::FreeParts::random(p, rng);
    const auto parts = ccmx::core::lemma35_complete(p, seed.c, seed.e);
    ASSERT_TRUE(parts.has_value());
    const IntMatrix m = ccmx::core::build_m(p, *parts);
    for (const IntMatrix& input : {m, m.transpose()}) {
      const auto cert = ccmx::la::kernel_certificate(input);
      EXPECT_LT(cert.rank_mod_p, input.rows());
      if (half == 31) {
        EXPECT_TRUE(cert.vector.empty());
      }
      if (!cert.vector.empty()) {
        for (const BigInt& entry : apply(input, cert.vector, cert.left)) {
          EXPECT_TRUE(entry.is_zero()) << "2n=" << input.rows();
        }
      }
      EXPECT_TRUE(ccmx::la::is_singular(input)) << "2n=" << input.rows();
    }
  }
}

TEST(KernelCertificateLoop, IsSingularAgreesWithTheTranspose) {
  Xoshiro256 rng(0x7A);
  for (const std::size_t n : {std::size_t{5}, std::size_t{12}, std::size_t{32}}) {
    std::vector<IntMatrix> family{dense(n, 20, true, rng),
                                  duplicate_row(dense(n, 8, false, rng), rng),
                                  low_rank_01(n, n / 2, rng),
                                  ladder_diagonal(n, 2, true, rng),
                                  fake_singular(n, rng)};
    for (const Dependency kind :
         {Dependency::kDuplicateRow, Dependency::kDuplicateColumn,
          Dependency::kTwoRows, Dependency::kScaled}) {
      family.push_back(dependent(n, kind, rng));
    }
    for (std::size_t f = 0; f < family.size(); ++f) {
      EXPECT_EQ(ccmx::la::is_singular(family[f]),
                ccmx::la::is_singular(family[f].transpose()))
          << "n=" << n << " family " << f;
    }
  }
}

TEST(RationalReconstruction, ExhaustiveOnASmallPrime) {
  // Every residue mod 1009 against a brute-force search of the fractions
  // inside the bound: it must come back exactly when one exists.
  const std::uint64_t m = 1009;
  const auto bound = static_cast<std::int64_t>(
      ccmx::num::reconstruction_bound(m));
  EXPECT_EQ(bound, 22);
  std::vector<std::vector<ccmx::num::Fraction>> inside(m);
  for (std::int64_t b = 1; b <= bound; ++b) {
    const std::uint64_t inv = ccmx::num::invmod(static_cast<std::uint64_t>(b), m);
    for (std::int64_t a = -bound; a <= bound; ++a) {
      if (std::gcd(a, b) != 1) continue;
      const std::uint64_t a_mod = a < 0 ? m - static_cast<std::uint64_t>(-a)
                                        : static_cast<std::uint64_t>(a);
      inside[ccmx::num::mulmod(a_mod, inv, m)].push_back({a, b});
    }
  }
  std::size_t found = 0;
  for (std::uint64_t r = 0; r < m; ++r) {
    ASSERT_LE(inside[r].size(), 1u) << "bound too large for uniqueness";
    const auto f = ccmx::num::rational_reconstruct(r, m);
    ASSERT_EQ(f.has_value(), !inside[r].empty()) << "r=" << r;
    if (!f) continue;
    ++found;
    EXPECT_EQ(f->num, inside[r][0].num) << "r=" << r;
    EXPECT_EQ(f->den, inside[r][0].den) << "r=" << r;
  }
  EXPECT_GT(found, m / 2);
}

TEST(RationalReconstruction, RoundTripsAtTheLadderPrime) {
  const std::uint64_t p = ccmx::num::ladder_prime(0);
  const std::uint64_t bound = ccmx::num::reconstruction_bound(p);
  EXPECT_LT(2 * static_cast<u128>(bound) * bound, p);
  EXPECT_GE(2 * static_cast<u128>(bound + 1) * (bound + 1), p);
  const auto residue = [p](std::int64_t a, std::int64_t b) {
    const std::uint64_t mag = ccmx::num::mulmod(
        static_cast<std::uint64_t>(a < 0 ? -a : a),
        ccmx::num::invmod(static_cast<std::uint64_t>(b), p), p);
    return a < 0 && mag != 0 ? p - mag : mag;
  };
  const auto n = static_cast<std::int64_t>(bound);
  Xoshiro256 rng(61);
  std::vector<std::pair<std::int64_t, std::int64_t>> inside{
      {0, 1}, {1, 1}, {-1, 1}, {n, 1}, {-n, 1}, {1, n}, {-1, n},
      {n, n - 1}, {-(n - 1), n}};
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::int64_t>(rng.below(bound + 1));
    const auto b = static_cast<std::int64_t>(1 + rng.below(bound));
    if (std::gcd(a, b) == 1) inside.emplace_back(rng.coin() ? -a : a, b);
  }
  for (const auto& [a, b] : inside) {
    const auto f = ccmx::num::rational_reconstruct(residue(a, b), p);
    ASSERT_TRUE(f.has_value()) << a << "/" << b;
    EXPECT_EQ(f->num, a);
    EXPECT_EQ(f->den, b);
  }
  // Just past the bound: no fraction inside it shares these residues.
  for (const auto& [a, b] : {std::pair<std::int64_t, std::int64_t>{n + 1, 1},
                             {-(n + 1), 1}, {1, n + 1}, {-1, n + 1}}) {
    EXPECT_FALSE(ccmx::num::rational_reconstruct(residue(a, b), p))
        << a << "/" << b;
  }
  EXPECT_THROW((void)ccmx::num::rational_reconstruct(p, p),
               ccmx::util::contract_error);
}

// ------------------------------------------- Shoup kernels vs naive u128 % p

std::uint64_t naive_mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t p) {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % p);
}

/// Row echelon by the textbook u128 % p update: (rank, det accumulator).
std::pair<std::size_t, std::uint64_t> naive_echelon(ModMatrix a,
                                                    std::uint64_t p) {
  std::uint64_t det = 1;
  std::size_t row = 0;
  for (std::size_t col = 0; col < a.cols() && row < a.rows(); ++col) {
    std::size_t pivot = row;
    while (pivot < a.rows() && a(pivot, col) == 0) ++pivot;
    if (pivot == a.rows()) {
      det = 0;
      continue;
    }
    if (pivot != row) {
      a.swap_rows(pivot, row);
      det = (p - det) % p;
    }
    det = naive_mulmod(det, a(row, col), p);
    const std::uint64_t inv = ccmx::num::powmod(a(row, col), p - 2, p);
    for (std::size_t i = row + 1; i < a.rows(); ++i) {
      const std::uint64_t factor = naive_mulmod(a(i, col), inv, p);
      for (std::size_t j = col; j < a.cols(); ++j) {
        const std::uint64_t sub = naive_mulmod(factor, a(row, j), p);
        a(i, j) = (a(i, j) + p - sub) % p;
      }
    }
    ++row;
  }
  return {row, row == a.rows() && a.rows() == a.cols() ? det : 0};
}

/// Random entries in [0, p); every fourth matrix has a planted dependent
/// row so rank deficiency shows for large p too.
ModMatrix random_mod(std::size_t rows, std::size_t cols, std::uint64_t p,
                     int index, Xoshiro256& rng) {
  ModMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.below(p);
  }
  if (index % 4 == 0 && rows >= 2) {
    const std::uint64_t scale = rng.below(p);
    for (std::size_t j = 0; j < cols; ++j) {
      m(rows - 1, j) = naive_mulmod(m(0, j), scale, p);
    }
  }
  return m;
}

std::uint64_t largest_prime_below_2_62() {
  std::uint64_t c = (std::uint64_t{1} << 62) - 1;
  while (!ccmx::num::is_prime(c)) c -= 2;
  return c;
}

TEST(ShoupKernel, MulmodShoupMatchesMulmod) {
  Xoshiro256 rng(17);
  const std::uint64_t top = (std::uint64_t{1} << 63) - 25;  // prime
  ASSERT_TRUE(ccmx::num::is_prime(top));
  for (const std::uint64_t p :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{2147483647},
        largest_prime_below_2_62(), top}) {
    for (int t = 0; t < 2000; ++t) {
      const std::uint64_t f = t == 0 ? p - 1 : rng.below(p);
      const std::uint64_t b = t == 1 ? ~std::uint64_t{0} : rng();
      EXPECT_EQ(ccmx::num::mulmod_shoup(f, ccmx::num::shoup_precompute(f, p),
                                        b, p),
                ccmx::num::mulmod(f, b, p))
          << "p=" << p << " f=" << f << " b=" << b;
    }
  }
}

TEST(ShoupKernel, EliminationMatchesNaiveReference) {
  Xoshiro256 rng(2000);
  int cases = 0;
  for (const std::uint64_t p : {std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{2147483647},
                                largest_prime_below_2_62()}) {
    for (int t = 0; t < 120; ++t, ++cases) {
      const std::size_t n = 1 + rng.below(14);
      const ModMatrix square = random_mod(n, n, p, t, rng);
      const auto [rank, det] = naive_echelon(square, p);
      ASSERT_EQ(ccmx::la::det_mod_p(square, p), det) << "p=" << p;
      ASSERT_EQ(ccmx::la::rank_mod_p(square, p), rank) << "p=" << p;

      const std::size_t cols = 1 + rng.below(14);
      const ModMatrix wide = random_mod(n, cols, p, t + 1, rng);
      ASSERT_EQ(ccmx::la::rank_mod_p(wide, p), naive_echelon(wide, p).first);
      // A kernel vector: nonzero, killed by m, present iff rank < cols.
      for (const ModMatrix* m : {&square, &wide}) {
        const auto kernel = ccmx::la::kernel_mod_p(*m, p);
        ASSERT_EQ(kernel.rank, naive_echelon(*m, p).first);
        ASSERT_EQ(kernel.vector.empty(), kernel.rank == m->cols());
        if (kernel.vector.empty()) continue;
        ASSERT_NE(std::count(kernel.vector.begin(), kernel.vector.end(), 0u),
                  static_cast<std::ptrdiff_t>(m->cols()));
        ASSERT_EQ(ccmx::la::multiply_mod_p(*m, kernel.vector, p),
                  std::vector<std::uint64_t>(m->rows(), 0));
      }

      std::vector<std::uint64_t> b(n);
      for (auto& v : b) v = rng.below(p);
      const auto x = ccmx::la::solve_mod_p(wide, b, p);
      // Solvable iff rank [A | b] == rank A (naive reference); a returned
      // x must satisfy A x = b exactly.
      ModMatrix augmented(n, cols + 1);
      augmented.set_block(0, 0, wide);
      for (std::size_t i = 0; i < n; ++i) augmented(i, cols) = b[i];
      const bool solvable = naive_echelon(augmented, p).first ==
                            naive_echelon(wide, p).first;
      ASSERT_EQ(x.has_value(), solvable) << "p=" << p;
      if (x) {
        ASSERT_EQ(ccmx::la::multiply_mod_p(wide, *x, p), b);
      }
    }
  }
  EXPECT_EQ(cases, 480);
}

TEST(ShoupKernel, RejectsModuliAboveTwoToThe63) {
  EXPECT_THROW((void)ccmx::la::det_mod_p(ModMatrix(2, 2),
                                         (std::uint64_t{1} << 63) + 1),
               ccmx::util::contract_error);
}

// ------------------------------------------------------- shared prime ladder

/// The first `count` primes above 2^61, by trial scan (no cache).
std::vector<std::uint64_t> scanned_ladder(std::size_t count) {
  std::vector<std::uint64_t> primes;
  for (std::uint64_t c = (std::uint64_t{1} << 61) + 1; primes.size() < count;
       c += 2) {
    if (ccmx::num::is_prime(c)) primes.push_back(c);
  }
  return primes;
}

TEST(PrimeLadder, ConsecutivePrimesAboveTwoToThe61) {
  const auto expected = scanned_ladder(40);
  EXPECT_EQ(expected[0], 2305843009213693967u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ccmx::num::ladder_prime(i), expected[i]) << i;
  }
}

TEST(PrimeLadder, ConcurrentReadersSeeOneLadder) {
  // Threads ask for far-apart indices at once, so the cache grows under
  // contention; every answer must match the uncached scan.
  const auto expected = scanned_ladder(160);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const std::size_t index = (i * 7 + t * 13) % expected.size();
        mismatches[t] += ccmx::num::ladder_prime(index) != expected[index];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(PrimeLadder, ConcurrentSingularityChecksAgree) {
  // is_singular from many pool threads at once (its own sharding then runs
  // inline), on large duplicated-row inputs (kernel-vector certificates)
  // and nonsingular ones.
  Xoshiro256 rng(77);
  std::vector<IntMatrix> inputs;
  std::vector<bool> truth;
  for (int i = 0; i < 8; ++i) {
    IntMatrix m = dense(32, 20, false, rng);
    if (i % 2 == 0) m = duplicate_row(std::move(m), rng);
    truth.push_back(i % 2 == 0);
    inputs.push_back(std::move(m));
  }
  std::vector<int> verdicts(inputs.size(), -1);
  ccmx::util::parallel_for(0, inputs.size(), [&](std::size_t i) {
    verdicts[i] = ccmx::la::is_singular(inputs[i]) ? 1 : 0;
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(verdicts[i], truth[i] ? 1 : 0) << i;
  }
}

}  // namespace
