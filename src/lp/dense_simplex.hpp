#pragma once

/// \file dense_simplex.hpp
/// Two-phase primal simplex on a dense tableau — the solver the paper's
/// implementation used ("We have used a dense version of simplex algorithm",
/// Ou & Ranka §2.3, footnote 1).  It runs serially: libpigp's parallelism
/// is its SPMD ranks'.

#include <cstdint>

#include "lp/program.hpp"
#include "lp/solution.hpp"

namespace pigp::lp {

/// Tuning knobs shared by both simplex implementations.
struct SimplexOptions {
  double eps = 1e-9;             ///< pivot / reduced-cost tolerance
  double feasibility_tol = 1e-7; ///< phase-1 objective threshold
  std::int64_t max_iterations = 200000;
  bool always_bland = false;     ///< Bland's rule from the first pivot
  std::int64_t stall_limit = 128;  ///< non-improving pivots before Bland kicks in
};

/// Dense two-phase tableau simplex.  Upper bounds are handled as explicit
/// constraint rows; free variables are split.  Robust against degenerate and
/// redundant constraint systems (Bland fallback + artificial-driving).
class DenseSimplex {
 public:
  explicit DenseSimplex(SimplexOptions options = {}) : options_(options) {}

  [[nodiscard]] Solution solve(const LinearProgram& lp) const;

  [[nodiscard]] const SimplexOptions& options() const noexcept {
    return options_;
  }

 private:
  SimplexOptions options_;
};

}  // namespace pigp::lp
