// Corollary 1.3 in action: deciding whether A x = b has a solution costs
// as much communication as singularity testing.
//
// Builds instances three ways — a consistent system, an inconsistent one,
// and the paper's reduction instance derived from a singular restricted
// matrix — and runs both the deterministic and fingerprint solvability
// protocols on each.
//
// Build & run:  ./build/examples/solvability_audit
#include <iostream>

#include "comm/channel.hpp"
#include "core/construction.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/send_half.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx;

void audit(const std::string& label, const la::IntMatrix& a,
           const std::vector<num::BigInt>& b, unsigned k) {
  const std::size_t n = a.rows();
  // Pack [A | b] as an n x (n+1) layout; pad to even columns for pi_0 by
  // using an n x (n+1) layout with a custom split instead: we simply give
  // agent 0 the first (n+1)/2 columns.
  la::IntMatrix stacked(n, a.cols() + 1);
  stacked.set_block(0, 0, a);
  for (std::size_t i = 0; i < n; ++i) stacked(i, a.cols()) = b[i];

  const comm::MatrixBitLayout layout(n, a.cols() + 1, k);
  comm::Partition pi(layout.total_bits());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < a.cols() + 1; ++j) {
      for (unsigned bit = 0; bit < k; ++bit) {
        pi.assign(layout.bit_index(i, j, bit),
                  j < (a.cols() + 1) / 2 ? comm::Agent::kZero
                                         : comm::Agent::kOne);
      }
    }
  }
  const comm::BitVec input = layout.encode(stacked);

  const bool truth = core::solvable(a, b);
  const auto det_protocol = proto::make_send_half_solvability(layout);
  const auto det = comm::execute(det_protocol, input, pi);
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSolvability, 20, 2, 5);
  const auto prob = comm::execute(fp, input, pi);

  std::cout << label << "\n"
            << "  exact:        " << (truth ? "solvable" : "UNSOLVABLE")
            << "\n"
            << "  deterministic: answer="
            << (det.answer ? "solvable" : "UNSOLVABLE") << ", bits="
            << det.bits << "\n"
            << "  fingerprint:   answer="
            << (prob.answer ? "solvable" : "UNSOLVABLE") << ", bits="
            << prob.bits << "\n\n";
}

}  // namespace

int main() {
  using namespace ccmx;
  constexpr unsigned k = 3;
  util::Xoshiro256 rng(11);

  // (1) A consistent system: b = A x for a random x.
  {
    const std::size_t n = 6;
    const la::IntMatrix a =
        la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
          return num::BigInt(static_cast<std::int64_t>(rng.below(4)));
        });
    std::vector<num::BigInt> x(n);
    for (auto& v : x) v = num::BigInt(static_cast<std::int64_t>(rng.below(2)));
    const auto ax = multiply(a, x);
    // Entries of b must fit the layout's k bits; Ax of 2-bit inputs does.
    audit("(1) b = A x (consistent by construction)", a, ax, 2 * k);
  }

  // (2) A deliberately inconsistent system: duplicate rows in A, distinct b.
  {
    const std::size_t n = 6;
    la::IntMatrix a =
        la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
          return num::BigInt(static_cast<std::int64_t>(rng.below(8)));
        });
    for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = a(0, j);
    std::vector<num::BigInt> b(n, num::BigInt(1));
    b[n - 1] = num::BigInt(2);  // contradicts the duplicated row
    audit("(2) duplicated row, contradictory b", a, b, k);
  }

  // (3) The paper's reduction: a singular restricted M gives a solvable
  //     (M', b); a nonsingular one gives an unsolvable pair.
  {
    const core::ConstructionParams p(7, 2);
    const auto seed = core::FreeParts::random(p, rng);
    const auto singular_parts = core::lemma35_complete(p, seed.c, seed.e);
    const la::IntMatrix m = core::build_m(p, *singular_parts);
    const auto instance = core::corollary13_instance(m);
    std::cout << "(3) Corollary 1.3 instance from a singular restricted M\n"
              << "  det(M) = " << la::det(m) << " => the system must"
              << " be solvable:\n"
              << "  solvable(M', b) = "
              << (core::solvable(instance.m_prime, instance.b) ? "yes" : "no")
              << "\n";
  }
  return 0;
}
