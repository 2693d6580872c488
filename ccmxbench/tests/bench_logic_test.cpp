// Tests of the benchmark's own logic: the percentile rule, span self time,
// and the label generators.
#include <gtest/gtest.h>

#include <vector>

#include "instances.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace ccmxbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_percentile(19), 0.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(99), 50.0);
  EXPECT_EQ(highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(highest_reportable_percentile(999), 90.0);
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(highest_reportable_percentile(10000), 99.9);
  EXPECT_EQ(samples_beyond(100, 90.0), 10U);
  EXPECT_EQ(samples_beyond(105, 90.0), 10U);
  EXPECT_EQ(samples_needed_for(90.0), 100U);
  EXPECT_EQ(samples_needed_for(50.0), 20U);
}

TEST(PercentileRule, QuantileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  SpanRecorder rec;
  const auto root = rec.open("root", 1, 0);
  const auto a = rec.open("a", 1, 10);
  rec.close(a, 50);
  const auto b = rec.open("b", 1, 30);  // overlaps a on [30, 50)
  const auto leaf = rec.open("leaf", 1, 35);
  rec.close(leaf, 40);
  rec.close(b, 70);
  rec.close(root, 100);

  const std::vector<std::int64_t> self = self_times(rec.spans());
  ASSERT_EQ(self.size(), 4U);
  EXPECT_EQ(self[0], 40);  // 100 minus the union [10, 70)
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 35);  // 40 minus its child's 5
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(rec.spans()[3].parent, rec.spans()[2].id);
}

TEST(SpanSelfTime, ChildOutsideItsParentOnlyCountsInside) {
  std::vector<Span> spans(3);
  spans[0] = {"p", 0, 100, 1, 0, 7};
  spans[1] = {"c1", 90, 130, 2, 1, 7};   // sticks out past the parent
  spans[2] = {"c2", 200, 300, 3, 1, 7};  // entirely outside
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 90);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 100);
}

TEST(SpanRecorder, RejectsOutOfOrderClose) {
  SpanRecorder rec;
  const auto outer = rec.open("outer", 1, 0);
  (void)rec.open("inner", 1, 1);
  EXPECT_THROW(rec.close(outer, 2), std::logic_error);
}

class Labels : public ::testing::Test {
 protected:
  // Three fixed primes the generators never saw.
  std::vector<std::uint64_t> primes() {
    Xoshiro256 rng(0xC0FFEE);
    return {random_prime62(rng), random_prime62(rng), random_prime62(rng)};
  }
};

TEST_F(Labels, RandomPrimesArePrimeAnd62Bits) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t p = random_prime62(rng);
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_EQ(p >> 61U, 1U);
  }
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
  EXPECT_TRUE(is_prime_u64((std::uint64_t{1} << 61U) - 1));
}

TEST_F(Labels, DetModPrimeMatchesSmallCases) {
  const IntMatrix m = IntMatrix::generate(
      3, 3, [](std::size_t i, std::size_t j) {
        const std::int64_t v[3][3] = {{2, 0, 1}, {1, 3, 2}, {1, 1, 1}};
        return ccmx::num::BigInt(v[i][j]);
      });
  // det = 2*(3-2) - 0 + 1*(1-3) = 0
  EXPECT_EQ(det_mod_prime(m, 1000003), 0U);
  IntMatrix n = m;
  n(2, 2) = ccmx::num::BigInt(2);  // det becomes 2*(6-2) + (1-3) = 6
  EXPECT_EQ(det_mod_prime(n, 1000003), 6U);
  n(0, 0) = ccmx::num::BigInt(-1);  // det = -1*4 + (1-3) = -6
  EXPECT_EQ(det_mod_prime(n, 1000003), 1000003U - 6U);
}

TEST_F(Labels, PlantedSingularInputsVanishModThreePrimes) {
  Xoshiro256 rng(11);
  const ConstructionParams hard(13, 8);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<IntMatrix> singular = {
        planted_duplicate_row(24, 32, rng), planted_duplicate_row(17, 8, rng),
        low_rank_01(32, 8, rng), hard_completed(hard, rng),
        system_planted_b(12, 16, rng)};
    for (const IntMatrix& m : singular) {
      for (const std::uint64_t p : primes()) {
        EXPECT_EQ(det_mod_prime(m, p), 0U);
      }
    }
  }
}

TEST_F(Labels, CertifiedInputsAreNonzeroModThreePrimes) {
  Xoshiro256 rng(12);
  const ConstructionParams hard(13, 8);
  int certified = 0;
  for (int trial = 0; trial < 8; ++trial) {
    for (const IntMatrix& m :
         {random_entries(20, 20, 32, rng), random_entries(12, 12, 8, rng),
          hard_random(hard, rng)}) {
      if (!certify_nonsingular(m, rng)) continue;
      ++certified;
      for (const std::uint64_t p : primes()) {
        EXPECT_NE(det_mod_prime(m, p), 0U);
      }
    }
  }
  EXPECT_EQ(certified, 24);
}

TEST_F(Labels, GeneratedEntriesFitTheirWidth) {
  Xoshiro256 rng(13);
  const IntMatrix low = low_rank_01(128, 32, rng);
  const IntMatrix dense = random_entries(8, 8, 8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_GE(dense(i, j).to_int64(), 0);
      EXPECT_LT(dense(i, j).to_int64(), 256);
    }
  }
  for (std::size_t i = 0; i < low.rows(); ++i) {
    for (std::size_t j = 0; j < low.cols(); ++j) {
      EXPECT_LE(low(i, j).to_int64(), 32);
    }
  }
}

}  // namespace
}  // namespace ccmxbench
