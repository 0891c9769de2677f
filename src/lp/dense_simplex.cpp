#include "lp/dense_simplex.hpp"

#include <cmath>

#include "lp/standard_form.hpp"
#include "lp/tableau.hpp"
#include "support/check.hpp"

namespace pigp::lp {
namespace {

using detail::Tableau;

enum class IterateStatus { optimal, unbounded, iteration_limit };

/// Run primal simplex iterations until the current objective is optimal over
/// the columns enabled in \p allowed.  Dantzig pricing with an automatic
/// switch to Bland's rule after `stall_limit` non-improving pivots.
IterateStatus iterate(Tableau& tab, const std::vector<char>& allowed,
                      const SimplexOptions& opt, std::int64_t& iterations) {
  std::int64_t stall = 0;
  bool bland = opt.always_bland;
  double last_objective = tab.objective();

  for (;;) {
    // --- pricing ---
    int entering = -1;
    double best = -opt.eps;
    for (int j = 0; j < tab.ncols; ++j) {
      if (!allowed[static_cast<std::size_t>(j)]) continue;
      const double d = tab.reduced_cost(j);
      if (d < best) {
        entering = j;
        best = d;
        if (bland) break;  // first improving index
      }
    }
    if (entering < 0) return IterateStatus::optimal;

    // --- ratio test ---
    int leave_row = -1;
    double best_ratio = 0.0;
    for (int i = 0; i < tab.nrows; ++i) {
      const double a = tab.t(i, entering);
      if (a <= opt.eps) continue;
      const double ratio = tab.rhs(i) / a;
      if (leave_row < 0 || ratio < best_ratio - opt.eps ||
          (ratio < best_ratio + opt.eps &&
           tab.basis[static_cast<std::size_t>(i)] <
               tab.basis[static_cast<std::size_t>(leave_row)])) {
        leave_row = i;
        best_ratio = ratio;
      }
    }
    if (leave_row < 0) return IterateStatus::unbounded;

    detail::pivot(tab, leave_row, entering);
    if (++iterations > opt.max_iterations) {
      return IterateStatus::iteration_limit;
    }

    // --- stall detection (anti-cycling) ---
    const double objective = tab.objective();
    if (objective < last_objective - opt.eps) {
      stall = 0;
      last_objective = objective;
    } else if (!bland && ++stall > opt.stall_limit) {
      bland = true;
    }
  }
}

}  // namespace

Solution DenseSimplex::solve(const LinearProgram& lp) const {
  const detail::StandardForm sf =
      detail::make_standard_form(lp, /*bounds_as_rows=*/true);
  Tableau tab = detail::build_tableau(sf);

  Solution solution;
  std::vector<char> allowed(static_cast<std::size_t>(tab.ncols), 1);

  // ---------------------------------------------------------- phase 1
  if (tab.first_artificial < tab.ncols) {
    std::vector<double> phase1_cost(static_cast<std::size_t>(tab.ncols), 0.0);
    for (int j = tab.first_artificial; j < tab.ncols; ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    detail::rebuild_objective(tab, phase1_cost);
    const IterateStatus st =
        iterate(tab, allowed, options_, solution.phase1_iterations);
    solution.iterations = solution.phase1_iterations;
    if (st == IterateStatus::iteration_limit) {
      solution.status = SolveStatus::iteration_limit;
      return solution;
    }
    PIGP_CHECK(st != IterateStatus::unbounded,
               "phase-1 objective is bounded below by zero");
    // Scale feasibility tolerance with problem magnitude.
    double rhs_scale = 1.0;
    for (int i = 0; i < tab.nrows; ++i) {
      rhs_scale = std::max(rhs_scale, std::abs(tab.rhs(i)));
    }
    if (tab.objective() > options_.feasibility_tol * rhs_scale) {
      solution.status = SolveStatus::infeasible;
      return solution;
    }

    // Drive remaining basic artificials out of the basis (degenerate pivots);
    // rows where no structural/slack pivot exists are redundant and harmless.
    for (int r = 0; r < tab.nrows; ++r) {
      if (!tab.is_artificial(tab.basis[static_cast<std::size_t>(r)])) continue;
      for (int j = 0; j < tab.first_artificial; ++j) {
        if (std::abs(tab.t(r, j)) > 1e-7) {
          detail::pivot(tab, r, j);
          break;
        }
      }
    }
  }

  // ---------------------------------------------------------- phase 2
  for (int j = tab.first_artificial; j < tab.ncols; ++j) {
    allowed[static_cast<std::size_t>(j)] = 0;
  }
  detail::rebuild_objective(tab, sf.cost);
  std::int64_t phase2_iterations = 0;
  const IterateStatus st = iterate(tab, allowed, options_, phase2_iterations);
  solution.iterations += phase2_iterations;
  if (st == IterateStatus::iteration_limit) {
    solution.status = SolveStatus::iteration_limit;
    return solution;
  }
  if (st == IterateStatus::unbounded) {
    solution.status = SolveStatus::unbounded;
    return solution;
  }

  solution.status = SolveStatus::optimal;
  solution.x = sf.recover(detail::extract_structural(tab));
  solution.objective = lp.objective_value(solution.x);
  return solution;
}

}  // namespace pigp::lp
