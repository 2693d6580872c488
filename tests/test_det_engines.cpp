// Randomized differential test of the exact-singularity engine.
//
// la::is_singular (multimodular, early exit) and la::det (Bareiss / CRT
// dispatch) are checked against det_bareiss over dense, wide-entry,
// singular (duplicated rows, low-rank 0/1 products, Lemma 3.5(a)
// completions) and adversarial nonsingular inputs whose determinant is a
// product of ladder primes, so the early exit must look past zero
// residues.  The Shoup mod-p kernels are checked against a naive
// u128 % p elimination, and the shared prime ladder against concurrent use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
  // inline), on large singular inputs that walk the whole prime ladder.
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
