#include "lp/bounded_simplex.hpp"

#include <cmath>

#include "lp/standard_form.hpp"
#include "lp/tableau.hpp"
#include "support/check.hpp"

namespace pigp::lp {
namespace {

using detail::Tableau;

enum class IterateStatus { optimal, unbounded, iteration_limit };

/// Flip nonbasic column j (y' = u - y): negate the column everywhere and
/// record the parity.  The variable is then at zero in current coordinates.
void flip_column(Tableau& tab, std::vector<char>& flipped, int col) {
  for (int i = 0; i <= tab.nrows; ++i) {
    tab.t(i, col) = -tab.t(i, col);
  }
  flipped[static_cast<std::size_t>(col)] ^= 1;
}

IterateStatus iterate(Tableau& tab, std::vector<char>& flipped,
                      const std::vector<char>& allowed,
                      const SimplexOptions& opt, std::int64_t& iterations) {
  std::vector<char> in_basis(static_cast<std::size_t>(tab.ncols), 0);
  for (int b : tab.basis) in_basis[static_cast<std::size_t>(b)] = 1;

  std::int64_t stall = 0;
  bool bland = opt.always_bland;
  double last_objective = tab.objective();

  for (;;) {
    // --- pricing: any nonbasic column at zero with negative reduced cost ---
    int entering = -1;
    double best = -opt.eps;
    for (int j = 0; j < tab.ncols; ++j) {
      if (!allowed[static_cast<std::size_t>(j)] ||
          in_basis[static_cast<std::size_t>(j)]) {
        continue;
      }
      const double d = tab.reduced_cost(j);
      if (d < best) {
        entering = j;
        best = d;
        if (bland) break;
      }
    }
    if (entering < 0) return IterateStatus::optimal;

    // --- ratio test: entering increases from 0 by t ---
    const double t_bound = tab.upper[static_cast<std::size_t>(entering)];
    int leave_row = -1;
    bool leave_at_upper = false;
    double best_ratio = t_bound;
    for (int i = 0; i < tab.nrows; ++i) {
      const double a = tab.t(i, entering);
      const int b = tab.basis[static_cast<std::size_t>(i)];
      double ratio = kInfinity;
      bool at_upper = false;
      if (a > opt.eps) {
        ratio = tab.rhs(i) / a;  // basic variable hits zero
      } else if (a < -opt.eps &&
                 tab.upper[static_cast<std::size_t>(b)] < kInfinity) {
        ratio = (tab.upper[static_cast<std::size_t>(b)] - tab.rhs(i)) / (-a);
        at_upper = true;
      } else {
        continue;
      }
      if (ratio < best_ratio - opt.eps ||
          (leave_row >= 0 && ratio < best_ratio + opt.eps &&
           b < tab.basis[static_cast<std::size_t>(leave_row)])) {
        leave_row = i;
        best_ratio = ratio;
        leave_at_upper = at_upper;
      }
    }

    if (leave_row < 0) {
      if (t_bound == kInfinity) return IterateStatus::unbounded;
      // Bound flip: entering runs all the way to its upper bound.
      for (int i = 0; i <= tab.nrows; ++i) {
        tab.t(i, tab.ncols) -= t_bound * tab.t(i, entering);
      }
      flip_column(tab, flipped, entering);
    } else {
      if (leave_at_upper) {
        // Re-express the leaving basic variable as its complement so it
        // leaves at zero like in the plain simplex.
        const int lcol = tab.basis[static_cast<std::size_t>(leave_row)];
        const double u = tab.upper[static_cast<std::size_t>(lcol)];
        for (int j = 0; j < tab.ncols; ++j) {
          tab.t(leave_row, j) = -tab.t(leave_row, j);
        }
        tab.t(leave_row, lcol) = 1.0;
        tab.t(leave_row, tab.ncols) = u - tab.t(leave_row, tab.ncols);
        flipped[static_cast<std::size_t>(lcol)] ^= 1;
      }
      const int leaving = tab.basis[static_cast<std::size_t>(leave_row)];
      detail::pivot(tab, leave_row, entering);
      in_basis[static_cast<std::size_t>(leaving)] = 0;
      in_basis[static_cast<std::size_t>(entering)] = 1;
    }

    if (++iterations > opt.max_iterations) {
      return IterateStatus::iteration_limit;
    }
    const double objective = tab.objective();
    if (objective < last_objective - opt.eps) {
      stall = 0;
      last_objective = objective;
    } else if (!bland && ++stall > opt.stall_limit) {
      bland = true;
    }
  }
}

/// Costs in current coordinates: a flipped column's contribution
/// c·y = c·u − c·y′ carries cost −c (constants cancel in reduced costs).
std::vector<double> flipped_costs(const std::vector<double>& cost,
                                  const std::vector<char>& flipped,
                                  int ncols) {
  std::vector<double> out(static_cast<std::size_t>(ncols), 0.0);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double c = j < cost.size() ? cost[j] : 0.0;
    out[j] = flipped[j] ? -c : c;
  }
  return out;
}

}  // namespace

Solution BoundedSimplex::solve(const LinearProgram& lp) const {
  const detail::StandardForm sf =
      detail::make_standard_form(lp, /*bounds_as_rows=*/false);
  Tableau tab = detail::build_tableau(sf);

  Solution solution;
  std::vector<char> flipped(static_cast<std::size_t>(tab.ncols), 0);
  std::vector<char> allowed(static_cast<std::size_t>(tab.ncols), 1);
  // Fixed columns (upper bound ~0) and artificials may never enter.
  for (int j = 0; j < tab.ncols; ++j) {
    if (tab.is_artificial(j) ||
        tab.upper[static_cast<std::size_t>(j)] < options_.eps) {
      allowed[static_cast<std::size_t>(j)] = 0;
    }
  }

  // ---------------------------------------------------------- phase 1
  if (tab.first_artificial < tab.ncols) {
    std::vector<double> phase1_cost(static_cast<std::size_t>(tab.ncols), 0.0);
    for (int j = tab.first_artificial; j < tab.ncols; ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    detail::rebuild_objective(tab, phase1_cost);
    const IterateStatus st = iterate(tab, flipped, allowed, options_,
                                     solution.phase1_iterations);
    solution.iterations = solution.phase1_iterations;
    if (st == IterateStatus::iteration_limit) {
      solution.status = SolveStatus::iteration_limit;
      return solution;
    }
    PIGP_CHECK(st != IterateStatus::unbounded,
               "phase-1 objective is bounded below by zero");
    double rhs_scale = 1.0;
    for (int i = 0; i < tab.nrows; ++i) {
      rhs_scale = std::max(rhs_scale, std::abs(tab.rhs(i)));
    }
    if (tab.objective() > options_.feasibility_tol * rhs_scale) {
      solution.status = SolveStatus::infeasible;
      return solution;
    }
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
  detail::rebuild_objective(tab,
                            flipped_costs(sf.cost, flipped, tab.ncols));
  std::int64_t phase2_iterations = 0;
  const IterateStatus st =
      iterate(tab, flipped, allowed, options_, phase2_iterations);
  solution.iterations += phase2_iterations;
  if (st == IterateStatus::iteration_limit) {
    solution.status = SolveStatus::iteration_limit;
    return solution;
  }
  if (st == IterateStatus::unbounded) {
    solution.status = SolveStatus::unbounded;
    return solution;
  }

  // Extract in current coordinates, then undo flips.
  std::vector<double> y = detail::extract_structural(tab);
  for (int j = 0; j < tab.num_structural; ++j) {
    if (flipped[static_cast<std::size_t>(j)]) {
      y[static_cast<std::size_t>(j)] =
          tab.upper[static_cast<std::size_t>(j)] - y[static_cast<std::size_t>(j)];
    }
  }
  solution.status = SolveStatus::optimal;
  solution.x = sf.recover(y);
  solution.objective = lp.objective_value(solution.x);
  return solution;
}

}  // namespace pigp::lp
