// Randomized differential test of the exact-rank engine.
//
// la::rank (Bareiss below kRankCrtCrossover, the certified multimodular
// rank_crt from it) and rank_crt itself are checked against rank_bareiss
// and against the rational rank over rectangular shapes: empty, zero rows and
// columns, all-zero, entries wider than one 62-bit prime, and planted
// ranks.  Adversarial inputs hide their rank behind ladder primes, so the
// engine must look past the first residue and size its prime budget on the
// nonzero rows.  core::solvable (two rank calls) is checked against the
// rational solve, and is_singular (the same prime loop read as "rank < n")
// against det_bareiss.  The loop shards primes across the worker pool, so
// the concurrency cases also run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/modular.hpp"
#include "bigint/rational.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "linalg/det_crt.hpp"
#include "linalg/rref.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
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

IntMatrix dense(std::size_t rows, std::size_t cols, unsigned bits,
                Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return random_signed(bits, rng);
  });
}

/// (rows x r) * (r x cols) product of random factors: rank <= r, and
/// generically exactly min(r, rows, cols).
IntMatrix planted_rank(std::size_t rows, std::size_t cols, std::size_t r,
                       unsigned bits, Xoshiro256& rng) {
  return dense(rows, r, bits, rng) * dense(r, cols, bits, rng);
}

/// Zeroes one random row (or column, when `column`).
IntMatrix zero_line(IntMatrix m, bool column, Xoshiro256& rng) {
  if (column && m.cols() > 0) {
    const std::size_t j = rng.below(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) = BigInt(0);
  } else if (!column && m.rows() > 0) {
    const std::size_t i = rng.below(m.rows());
    for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) = BigInt(0);
  }
  return m;
}

BigInt ladder(std::size_t i) {
  return BigInt(static_cast<std::int64_t>(ccmx::num::ladder_prime(i)));
}

std::vector<ccmx::num::Rational> to_rational(const std::vector<BigInt>& v) {
  std::vector<ccmx::num::Rational> out;
  out.reserve(v.size());
  for (const BigInt& x : v) out.emplace_back(x);
  return out;
}

void expect_ranks_agree(const IntMatrix& m, const char* kind) {
  const std::size_t truth = ccmx::la::rank_bareiss(m);
  EXPECT_EQ(ccmx::la::rank_crt(m), truth)
      << kind << " " << m.rows() << "x" << m.cols();
  EXPECT_EQ(ccmx::la::rank(m), truth)
      << kind << " " << m.rows() << "x" << m.cols();
  if (m.rows() * m.cols() <= 64) {
    EXPECT_EQ(ccmx::la::rank(ccmx::la::to_rational(m)), truth)
        << kind << " " << m.rows() << "x" << m.cols();
  }
  if (m.is_square()) {
    EXPECT_EQ(ccmx::la::is_singular(m), ccmx::la::det_bareiss(m).is_zero())
        << kind << " n=" << m.rows();
  }
}

void expect_solvable_agrees(const IntMatrix& a, const std::vector<BigInt>& b,
                            const char* kind) {
  const bool truth =
      ccmx::la::solve(ccmx::la::to_rational(a), to_rational(b)).has_value();
  EXPECT_EQ(ccmx::core::solvable(a, b), truth)
      << kind << " " << a.rows() << "x" << a.cols();
}

// ------------------------------------------------------- edge shapes

TEST(RankEngine, EmptyAndZeroMatrices) {
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {0, 5}, {5, 0}, {1, 1},
        {3, 7}, {7, 3}, {13, 13}}) {
    const IntMatrix zero(rows, cols);
    EXPECT_EQ(ccmx::la::rank_crt(zero), 0u) << rows << "x" << cols;
    EXPECT_EQ(ccmx::la::rank(zero), 0u) << rows << "x" << cols;
    EXPECT_EQ(ccmx::la::rank_bareiss(zero), 0u) << rows << "x" << cols;
  }
  EXPECT_FALSE(ccmx::la::is_singular(IntMatrix(0, 0)));
  EXPECT_TRUE(ccmx::la::is_singular(IntMatrix(4, 4)));
}

// ----------------------------------------------- adversarial: ladder primes

TEST(RankEngine, LadderPrimeProductOnTheDiagonal) {
  // diag(p0 * p1, 1, ..., 1): rank n, but its rank mod each of the first
  // two ladder primes is n - 1.  A one-prime engine answers n - 1.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              std::size_t{12}, std::size_t{20}}) {
    IntMatrix m = IntMatrix::identity(n, BigInt(1));
    m(0, 0) = ladder(0) * ladder(1);
    EXPECT_EQ(ccmx::la::rank_crt(m), n) << "n=" << n;
    EXPECT_EQ(ccmx::la::rank(m), n) << "n=" << n;
    EXPECT_EQ(ccmx::la::rank_bareiss(m), n) << "n=" << n;
    EXPECT_FALSE(ccmx::la::is_singular(m)) << "n=" << n;
  }
}

TEST(RankEngine, ZeroRowsDoNotShrinkThePrimeBudget) {
  // [[p0, 0], [0, 0]] has rank 1 and rank 0 mod p0.  Sizing the budget by
  // a bound that collapses to 0 on a zero row runs one prime and answers 0.
  IntMatrix m(2, 2);
  m(0, 0) = ladder(0);
  EXPECT_EQ(ccmx::la::rank_crt(m), 1u);
  // The same behind a zero row in a larger, rectangular matrix, with the
  // product of three ladder primes in one entry.
  IntMatrix wide = IntMatrix::identity(6, BigInt(1)).augment(IntMatrix(6, 3));
  wide(0, 0) = ladder(0) * ladder(1) * ladder(2);
  for (std::size_t j = 0; j < wide.cols(); ++j) wide(5, j) = BigInt(0);
  EXPECT_EQ(ccmx::la::rank(wide), 5u);
  EXPECT_EQ(ccmx::la::rank(wide.transpose()), 5u);
  EXPECT_EQ(ccmx::la::rank_bareiss(wide), 5u);
  EXPECT_TRUE(ccmx::la::is_singular(wide.block(0, 0, 6, 6)));
}

TEST(RankEngine, DependentRowsBesideALadderMultiple) {
  // rank 2 with rank 1 mod p0: the loop has to run past the first prime
  // and stop on the certificate, not on reaching min(rows, cols).
  IntMatrix m{{ladder(0), BigInt(0), BigInt(0)},
              {BigInt(0), BigInt(3), BigInt(6)},
              {BigInt(0), BigInt(1), BigInt(2)}};
  EXPECT_EQ(ccmx::la::rank_crt(m), 2u);
  EXPECT_EQ(ccmx::la::rank_bareiss(m), 2u);
  EXPECT_TRUE(ccmx::la::is_singular(m));
}

// ------------------------------------------------------ randomized sweep

class RankSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RankSweep, MultimodularMatchesBareissAndRationals) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0x7A + n);
  const unsigned widths[] = {1, 8, 31, 62, 90};
  for (int t = 0; t < 5; ++t) {
    const unsigned bits = widths[t];
    // Square, tall and wide shapes around n.
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{n, n}, {n + 3, n}, {n, n + 2},
          {n / 2 + 1, n + 1}}) {
      const IntMatrix m = dense(rows, cols, bits, rng);
      expect_ranks_agree(m, "dense");
      expect_ranks_agree(zero_line(m, false, rng), "zero row");
      expect_ranks_agree(zero_line(m, true, rng), "zero column");
      const std::size_t r = rng.below(std::min(rows, cols) + 1);
      expect_ranks_agree(planted_rank(rows, cols, r, bits % 32 + 1, rng),
                         "planted rank");
    }
  }
}

TEST_P(RankSweep, SolvableMatchesTheRationalSolve) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Xoshiro256 rng(0x5B + n);
  // The rational reference solve is the slow side: fewer trials as n grows.
  const int trials = n > 8 ? 1 : n > 5 ? 2 : 4;
  for (int t = 0; t < trials; ++t) {
    const unsigned bits = t % 2 == 0 ? 8 : 20;
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{n, n - 1}, {n, n}, {n + 2, n},
          {n, n + 3}}) {
      // Low rank so that planted and random right-hand sides differ.
      const std::size_t r = std::min(rows, cols) / 2 + 1;
      const IntMatrix a = planted_rank(rows, cols, r, bits, rng);
      std::vector<BigInt> x(cols);
      for (BigInt& v : x) v = random_signed(bits, rng);
      expect_solvable_agrees(a, ccmx::la::multiply(a, x), "planted b");
      expect_solvable_agrees(a, dense(rows, 1, bits, rng).col(0), "random b");
      expect_solvable_agrees(a, std::vector<BigInt>(rows, BigInt(0)), "b = 0");
      expect_solvable_agrees(zero_line(a, true, rng),
                             dense(rows, 1, bits, rng).col(0), "zero column");
      const IntMatrix full = dense(rows, cols, bits, rng);
      expect_solvable_agrees(full, dense(rows, 1, bits, rng).col(0),
                             "dense A");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RankSweep,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{3},
                                           std::size_t{5}, std::size_t{8},
                                           std::size_t{13}));

TEST(RankEngine, SolvableBehindALadderPrime) {
  // A = diag(p0, 1, ..., 1), b = e_0: x_0 = 1/p0.  rank A mod p0 is n - 1
  // and rank [A | b] mod p0 is n, so a one-prime engine calls it
  // unsolvable.  n = 1 runs Bareiss, n = 6 the multimodular engine.
  for (const std::size_t n : {std::size_t{1}, std::size_t{6}}) {
    IntMatrix a = IntMatrix::identity(n, BigInt(1));
    a(0, 0) = ladder(0);
    std::vector<BigInt> b(n, BigInt(0));
    b[0] = BigInt(1);
    EXPECT_TRUE(ccmx::core::solvable(a, b)) << "n=" << n;
  }
  EXPECT_TRUE(ccmx::core::solvable(IntMatrix(0, 3), {}));
  EXPECT_TRUE(ccmx::core::solvable(IntMatrix(2, 0), {BigInt(0), BigInt(0)}));
  EXPECT_FALSE(ccmx::core::solvable(IntMatrix(2, 0), {BigInt(0), BigInt(1)}));
}

TEST(RankEngine, SolvableOnTheCorollary13Instances) {
  // M singular iff M' x = b solvable, on large dense and duplicated-row M.
  Xoshiro256 rng(13);
  for (const std::size_t n : {std::size_t{6}, std::size_t{16}}) {
    for (const bool duplicate : {false, true}) {
      IntMatrix m = dense(n, n, 16, rng);
      if (duplicate) {
        for (std::size_t j = 0; j < n; ++j) m(n - 1, j) = m(0, j);
      }
      const auto instance = ccmx::core::corollary13_instance(m);
      EXPECT_EQ(ccmx::core::solvable(instance.m_prime, instance.b),
                ccmx::la::det_bareiss(m).is_zero())
          << "n=" << n << " duplicate=" << duplicate;
    }
  }
}

// ------------------------------------------------------------ concurrency

TEST(RankEngine, ShardedLoopAndConcurrentCallersAgree) {
  // Rank-deficient 24 x 30 inputs walk the whole certificate, sharded over
  // the pool when called directly and run inline when nested.
  Xoshiro256 rng(91);
  std::vector<IntMatrix> inputs;
  std::vector<std::size_t> truth;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(planted_rank(24, 30, 10 + rng.below(10), 20, rng));
    truth.push_back(ccmx::la::rank_bareiss(inputs.back()));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(ccmx::la::rank(inputs[i]), truth[i]) << i;
  }
  std::vector<std::size_t> ranks(inputs.size(), 0);
  ccmx::util::parallel_for(0, inputs.size(), [&](std::size_t i) {
    ranks[i] = ccmx::la::rank(inputs[i]);
  });
  EXPECT_EQ(ranks, truth);
}

}  // namespace
