// Machine-word modular arithmetic and primality.
//
// The probabilistic protocols (Leighton-style fingerprinting, Freivalds
// verification, rank mod p) work over Z_p for a random prime p of
// Theta(max{log n, log k}) bits.  All moduli fit in 64 bits, so arithmetic
// uses unsigned __int128 intermediates; Miller-Rabin with the fixed base set
// below is deterministic for every modulus < 2^64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/int128.hpp"
#include "util/rng.hpp"

namespace ccmx::num {

/// (a * b) mod m without overflow; m may be up to 2^64 - 1.
[[nodiscard]] inline std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                                          std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<ccmx::util::u128>(a) * b % m);
}

/// Shoup's precomputed companion of a fixed multiplier f < p < 2^63:
/// floor(f * 2^64 / p).  One u128 division here turns every later
/// mulmod_shoup(f, ..) into two multiplies and a conditional subtract.
[[nodiscard]] inline std::uint64_t shoup_precompute(std::uint64_t f,
                                                    std::uint64_t p) {
  return static_cast<std::uint64_t>((static_cast<ccmx::util::u128>(f) << 64) /
                                    p);
}

/// (f * b) mod p for f < p < 2^63, any 64-bit b, given
/// f_shoup = shoup_precompute(f, p).  The quotient estimate
/// floor(f_shoup * b / 2^64) is short by at most one, so f*b - q*p (exact
/// in wrapping 64-bit arithmetic) lies in [0, 2p) and one subtract
/// finishes; the result equals mulmod(f, b, p).
[[nodiscard]] inline std::uint64_t mulmod_shoup(std::uint64_t f,
                                                std::uint64_t f_shoup,
                                                std::uint64_t b,
                                                std::uint64_t p) {
  const auto q = static_cast<std::uint64_t>(
      (static_cast<ccmx::util::u128>(f_shoup) * b) >> 64);
  const std::uint64_t r = f * b - q * p;
  return r >= p ? r - p : r;
}

/// Row update dst[j] -= f * src[j] (mod p) for j in [0, len): the inner
/// loop of mod-p elimination.  Requires f < p < 2^63 and dst entries in
/// [0, p); src entries may be any 64-bit value.
inline void submul_row_mod(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t len, std::uint64_t f,
                           std::uint64_t p) {
  const std::uint64_t f_shoup = shoup_precompute(f, p);
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint64_t sub = mulmod_shoup(f, f_shoup, src[j], p);
    // Add p back on a borrow through a mask, not a branch: the borrow is
    // data-dependent and a branch on it mispredicts about half the time.
    const std::uint64_t borrow = static_cast<std::uint64_t>(dst[j] < sub);
    dst[j] = dst[j] - sub + (p & (std::uint64_t{0} - borrow));
  }
}

/// (base ^ exp) mod m.
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                                   std::uint64_t m);

/// Modular inverse of a mod m for gcd(a, m) == 1; throws otherwise.
[[nodiscard]] std::uint64_t invmod(std::uint64_t a, std::uint64_t m);

/// A reduced fraction num / den with den > 0.
struct Fraction {
  std::int64_t num = 0;
  std::int64_t den = 1;
};

/// The largest N with 2 N^2 < m: fractions with |num|, den <= N are told
/// apart by their residues mod m.  floor(sqrt(m / 2)) for odd m.
[[nodiscard]] std::uint64_t reconstruction_bound(std::uint64_t m);

/// The fraction a / b with |a|, b <= reconstruction_bound(m) and a = r b
/// (mod m), if there is one — then it is unique.  Wang's rational
/// reconstruction: the extended Euclid on (m, r), stopped at the first
/// remainder within the bound.  Requires m >= 2 and r < m.
[[nodiscard]] std::optional<Fraction> rational_reconstruct(std::uint64_t r,
                                                           std::uint64_t m);

/// Deterministic Miller-Rabin, valid for all n < 2^64.
[[nodiscard]] bool is_prime(std::uint64_t n);

/// Smallest prime >= n (n <= 2^63 to avoid overflow in the scan).
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n);

/// Uniform random prime with exactly `bits` bits (2 <= bits <= 62).
[[nodiscard]] std::uint64_t random_prime(unsigned bits,
                                         ccmx::util::Xoshiro256& rng);

/// The i-th prime (from 0) of the shared ladder: the primes above 2^61 in
/// increasing order.  Each exceeds 2^61, so j of them multiply past
/// 2^(61 j) — the unit the multimodular engines count in.
/// Thread-safe: guarded by a mutex; the cache grows on demand and is
/// shared by every caller in the process.
[[nodiscard]] std::uint64_t ladder_prime(std::size_t i);

/// All primes <= limit (simple sieve; limit <= 10^8 recommended).
[[nodiscard]] std::vector<std::uint64_t> primes_up_to(std::uint64_t limit);

/// Number of primes with exactly `bits` bits, counted exactly for
/// bits <= 20 (used by the fingerprint error analysis) — std::nullopt above.
[[nodiscard]] std::optional<std::uint64_t> count_primes_with_bits(
    unsigned bits);

}  // namespace ccmx::num
