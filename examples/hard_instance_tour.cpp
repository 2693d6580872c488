// A guided tour of the paper's hard-instance construction (Section 3).
//
// Walks through Figures 1 and 3 at the smallest valid parameters
// (n = 7, k = 2, q = 3): builds A and B, states Lemma 3.2, completes a
// random (C, E) to a singular instance via Lemma 3.5(a), and shows the
// counting facts (Lemma 3.4 span distinctness, the row census) that drive
// the Omega(k n^2) bound.
//
// Build & run:  ./build/examples/hard_instance_tour
#include <iostream>

#include "core/census.hpp"
#include "core/construction.hpp"
#include "core/figure_render.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "util/rng.hpp"

int main() {
  using namespace ccmx;
  using core::ConstructionParams;
  using core::FreeParts;

  const ConstructionParams p(7, 2);
  std::cout << "Parameters: n = " << p.n() << ", k = " << p.k()
            << "  =>  q = 2^k - 1 = " << p.q() << ", matrix size "
            << 2 * p.n() << "x" << 2 * p.n() << "\n";
  std::cout << "Geometry: C is " << p.half() << "x" << p.half() << ", D is "
            << p.half() << "x" << p.g() << ", E is " << p.half() << "x"
            << p.l() << ", y has " << p.n() - 1
            << " entries; m = q^L = " << p.m() << "\n\n";

  util::Xoshiro256 rng(1);
  const FreeParts seed = FreeParts::random(p, rng);

  std::cout << core::render_region_map(p) << "\n";

  std::cout << "The vector u = [(-q)^{n-2}, .., (-q)^0]^T (Definition 3.1):\n  [";
  for (const auto& v : p.u_vector()) std::cout << ' ' << v;
  std::cout << " ]\n\n";

  const la::IntMatrix a = core::build_a(p, seed.c);
  std::cout << "A (Fig. 3: unit diagonal, q-superdiagonal in the first "
            << p.half() << " columns, free block C, bottom row e_1):\n"
            << a.to_string() << "\n\n";

  std::cout << "Lemma 3.2: with dim Span(A) = n - 1 (always true here, the\n"
            << "diagonal forces it), M is singular iff B*u lies in Span(A).\n";
  std::cout << "rank(A) = " << la::rank(a) << " (= n - 1 = " << p.n() - 1
            << ")\n\n";

  // Lemma 3.5(a): complete (C, E) into a singular instance.
  const auto completed = core::lemma35_complete(p, seed.c, seed.e);
  if (!completed) {
    std::cout << "completion failed (should never happen)\n";
    return 1;
  }
  const la::IntMatrix m = core::build_m(p, *completed);
  std::cout << "Lemma 3.5(a): given (C, E), digits for D and y were chosen\n"
            << "(base -q numerals!) so that M is singular.  Check:\n";
  std::cout << "  det(M) = " << la::det(m) << "\n";
  std::cout << "  scalar characterization says: "
            << (core::restricted_singular(p, *completed) ? "singular"
                                                         : "nonsingular")
            << "\n\n";

  // Lemma 3.4: distinct C's give distinct spans (exhaustive at this size).
  const auto spans = core::lemma34_census(p, 20000, rng);
  std::cout << "Lemma 3.4 (exhaustive): " << spans.tested
            << " C instances -> " << spans.distinct
            << " distinct spans Span(A(C))  (q^{(n-1)^2/4} = "
            << core::total_rows(p) << ")\n\n";

  // Lemma 3.5(b): exact row census.
  const auto census =
      core::row_census(p, seed.c, std::uint64_t{1} << 24, 0, rng);
  const auto bounds = core::lemma35_bounds(p);
  std::cout << "Lemma 3.5(b) (exact census for this row): ones = "
            << census.ones << " of " << census.columns
            << " columns\n  log_q(ones) = " << census.log_q_ones
            << ", paper's window: [" << bounds.lower_exponent << ", "
            << bounds.upper_exponent << "]\n\n";

  std::cout << "Together: many rows (Lemma 3.4) x many ones per row (3.5) x\n"
            << "small 1-rectangles (3.7) => Yao's bound gives Omega(k n^2)\n"
            << "bits of communication, matching the trivial upper bound.\n";
  return 0;
}
