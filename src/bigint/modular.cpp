#include "bigint/modular.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <numeric>
#include <utility>

#include "bigint/bigint.hpp"
#include "util/require.hpp"

namespace ccmx::num {

// CRT callers hand BigInt::mod_u64 residues straight into these routines, so
// the modulus word must be exactly one BigInt limb wide — if the limb width
// ever changes, the residue plumbing has to be revisited together with it.
static_assert(BigInt::kLimbBits == 8 * sizeof(std::uint64_t),
              "modular arithmetic assumes one-limb (64-bit) residues");

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  CCMX_REQUIRE(m > 0, "zero modulus");
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  while (exp != 0) {
    if (exp & 1u) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t invmod(std::uint64_t a, std::uint64_t m) {
  CCMX_REQUIRE(m > 1, "invmod needs modulus > 1");
  // Extended Euclid on words.  The Bezout coefficients of a alternate in
  // sign, t_j = (-1)^(j+1) u_j, so only their magnitudes u_j <= m are kept.
  std::uint64_t r0 = m, r1 = a % m;
  std::uint64_t u0 = 0, u1 = 1;
  bool odd = false;  // parity of the step count j: t_j = odd ? u_j : -u_j
  while (r1 != 0) {
    const std::uint64_t q = r0 / r1;
    r0 = std::exchange(r1, r0 - q * r1);
    u0 = std::exchange(u1, u0 + q * u1);
    odd = !odd;
  }
  CCMX_REQUIRE(r0 == 1, "invmod of a non-unit");
  return odd ? u0 : m - u0;
}

std::uint64_t reconstruction_bound(std::uint64_t m) {
  CCMX_REQUIRE(m >= 2, "reconstruction needs modulus >= 2");
  // Largest N with N^2 <= (m - 1) / 2, i.e. 2 N^2 < m; N < 2^32.
  const std::uint64_t half = (m - 1) / 2;
  auto n = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(half)));
  while (n * n > half) --n;
  while ((n + 1) * (n + 1) <= half) ++n;
  return n;
}

std::optional<Fraction> rational_reconstruct(std::uint64_t r,
                                             std::uint64_t m) {
  CCMX_REQUIRE(r < m, "residue must be reduced");
  const std::uint64_t bound = reconstruction_bound(m);
  // Invariant r_j = t_j r (mod m).  As in invmod the t_j alternate in sign,
  // so only their magnitudes u_j <= m and the sign of t_1 are kept.
  std::uint64_t r0 = m, r1 = r;
  std::uint64_t u0 = 0, u1 = 1;
  bool negative = false;  // sign of t_1
  while (r1 > bound) {
    const std::uint64_t q = r0 / r1;
    r0 = std::exchange(r1, r0 - q * r1);
    u0 = std::exchange(u1, u0 + q * u1);
    negative = !negative;
  }
  if (u1 > bound || std::gcd(r1, u1) != 1) return std::nullopt;
  const auto num = static_cast<std::int64_t>(r1);
  return Fraction{negative ? -num : num, static_cast<std::int64_t>(u1)};
}

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (const std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u,
                                29u, 31u, 37u}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  // This base set is deterministic for all n < 2^64 (Sinclair, 2011).
  for (const std::uint64_t a :
       {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL, 9780504ULL,
        1795265022ULL}) {
    std::uint64_t x = powmod(a % n, d, n);
    if (x == 0 || x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < r; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) {
  CCMX_REQUIRE(n <= (std::uint64_t{1} << 63), "next_prime scan too large");
  if (n <= 2) return 2;
  std::uint64_t candidate = n | 1u;
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

namespace {

std::mutex g_ladder_mutex;
std::vector<std::uint64_t> g_ladder;  // guarded by g_ladder_mutex

}  // namespace

std::uint64_t ladder_prime(std::size_t i) {
  const std::lock_guard<std::mutex> lock(g_ladder_mutex);
  while (g_ladder.size() <= i) {
    g_ladder.push_back(next_prime(
        g_ladder.empty() ? (std::uint64_t{1} << 61) + 1 : g_ladder.back() + 2));
  }
  return g_ladder[i];
}

std::uint64_t random_prime(unsigned bits, ccmx::util::Xoshiro256& rng) {
  CCMX_REQUIRE(bits >= 2 && bits <= 62, "random_prime bits out of range");
  const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
  const std::uint64_t hi = (std::uint64_t{1} << bits) - 1;
  for (;;) {
    std::uint64_t candidate = lo + rng.below(hi - lo + 1);
    candidate |= 1u;
    if (candidate >= lo && candidate <= hi && is_prime(candidate)) {
      return candidate;
    }
  }
}

std::vector<std::uint64_t> primes_up_to(std::uint64_t limit) {
  std::vector<std::uint64_t> primes;
  if (limit < 2) return primes;
  std::vector<bool> composite(static_cast<std::size_t>(limit) + 1, false);
  for (std::uint64_t p = 2; p <= limit; ++p) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    primes.push_back(p);
    for (std::uint64_t multiple = p * p; multiple <= limit; multiple += p) {
      composite[static_cast<std::size_t>(multiple)] = true;
    }
  }
  return primes;
}

std::optional<std::uint64_t> count_primes_with_bits(unsigned bits) {
  if (bits < 2 || bits > 20) return std::nullopt;
  const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
  const std::uint64_t hi = (std::uint64_t{1} << bits) - 1;
  std::uint64_t count = 0;
  for (std::uint64_t n = lo; n <= hi; ++n) {
    if (is_prime(n)) ++count;
  }
  return count;
}

}  // namespace ccmx::num
