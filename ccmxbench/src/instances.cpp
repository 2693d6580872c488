#include "instances.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/int128.hpp"

namespace ccmxbench {

namespace {

using ccmx::num::BigInt;
using ccmx::util::u128;

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t p) {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % p);
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t p) {
  std::uint64_t result = 1 % p;
  base %= p;
  while (exp != 0) {
    if ((exp & 1U) != 0) result = mul_mod(result, base, p);
    base = mul_mod(base, base, p);
    exp >>= 1U;
  }
  return result;
}

std::uint64_t residue(const BigInt& v, std::uint64_t p) {
  const auto modulus = static_cast<std::int64_t>(p);  // p < 2^62
  const std::int64_t r = v.to_int64() % modulus;
  return static_cast<std::uint64_t>(r < 0 ? r + modulus : r);
}

BigInt entry(std::uint64_t v) { return BigInt(static_cast<std::int64_t>(v)); }

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (const std::uint64_t small : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL,
                                    17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % small == 0) return n == small;
  }
  std::uint64_t d = n - 1;
  unsigned s = 0;
  while ((d & 1U) == 0) {
    d >>= 1U;
    ++s;
  }
  // These twelve bases decide primality for every n < 3.3e24.
  for (const std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                                19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = pow_mod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (unsigned r = 1; r < s && composite; ++r) {
      x = mul_mod(x, x, n);
      composite = x != n - 1;
    }
    if (composite) return false;
  }
  return true;
}

std::uint64_t random_prime62(Xoshiro256& rng) {
  for (;;) {
    const std::uint64_t candidate =
        (std::uint64_t{1} << 61U) | (rng() >> 3U) | 1U;
    if (is_prime_u64(candidate)) return candidate;
  }
}

std::uint64_t det_mod_prime(const IntMatrix& m, std::uint64_t p) {
  if (m.rows() != m.cols()) throw std::invalid_argument("det of non-square");
  const std::size_t n = m.rows();
  std::vector<std::uint64_t> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i * n + j] = residue(m(i, j), p);
  }
  std::uint64_t det = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot * n + col] == 0) ++pivot;
    if (pivot == n) return 0;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[pivot * n + j], a[col * n + j]);
      }
      det = p - det;
    }
    const std::uint64_t pv = a[col * n + col];
    det = mul_mod(det, pv, p);
    const std::uint64_t inv = pow_mod(pv, p - 2, p);
    for (std::size_t i = col + 1; i < n; ++i) {
      const std::uint64_t f = mul_mod(a[i * n + col], inv, p);
      if (f == 0) continue;
      for (std::size_t j = col; j < n; ++j) {
        a[i * n + j] = (a[i * n + j] + p - mul_mod(f, a[col * n + j], p)) % p;
      }
    }
  }
  return det % p;
}

bool certify_nonsingular(const IntMatrix& m, Xoshiro256& rng) {
  return det_mod_prime(m, random_prime62(rng)) != 0;
}

IntMatrix random_entries(std::size_t rows, std::size_t cols, unsigned k,
                         Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return entry(rng.below(std::uint64_t{1} << k));
  });
}

IntMatrix planted_duplicate_row(std::size_t n, unsigned k, Xoshiro256& rng) {
  IntMatrix m = random_entries(n, n, k, rng);
  const std::size_t from = rng.below(n);
  std::size_t to = rng.below(n - 1);
  if (to >= from) ++to;
  for (std::size_t j = 0; j < n; ++j) m(to, j) = m(from, j);
  return m;
}

IntMatrix low_rank_01(std::size_t n, std::size_t r, Xoshiro256& rng) {
  std::vector<std::uint64_t> u(n * r);
  std::vector<std::uint64_t> v(r * n);
  for (auto& x : u) x = rng() & 1U;
  for (auto& x : v) x = rng() & 1U;
  return IntMatrix::generate(n, n, [&](std::size_t i, std::size_t j) {
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < r; ++t) sum += u[i * r + t] * v[t * n + j];
    return entry(sum);
  });
}

IntMatrix hard_completed(const ConstructionParams& p, Xoshiro256& rng) {
  const auto seed = ccmx::core::FreeParts::random(p, rng);
  const auto completed = ccmx::core::lemma35_complete(p, seed.c, seed.e);
  if (!completed) throw std::runtime_error("Lemma 3.5(a) completion failed");
  return ccmx::core::build_m(p, *completed);
}

IntMatrix hard_random(const ConstructionParams& p, Xoshiro256& rng) {
  return ccmx::core::build_m(p, ccmx::core::FreeParts::random(p, rng));
}

IntMatrix system_planted_b(std::size_t n, unsigned k, Xoshiro256& rng) {
  IntMatrix m = random_entries(n, n, k, rng);
  const std::size_t col = rng.below(n - 1);
  for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = m(i, col);
  return m;
}

}  // namespace ccmxbench
