#pragma once

// The reference solve of a quotient flow: its LP (core::to_linear_program)
// solved by the paper's dense simplex or the bounded-variable simplex, the
// optimal vertex checked integral and rounded into the move matrix.  The
// pipeline solves every flow with the network simplex (core::solve_flow);
// the differential tests compare it against this oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/balance.hpp"
#include "lp/bounded_simplex.hpp"
#include "lp/dense_simplex.hpp"

namespace pigp::core::oracle {

enum class Solver { dense, bounded };

/// Solve \p program with \p solver.
inline lp::Solution solve_lp(const lp::LinearProgram& program, Solver solver) {
  return solver == Solver::bounded ? lp::BoundedSimplex().solve(program)
                                   : lp::DenseSimplex().solve(program);
}

/// \p flow solved through its LP.  lp_variables and lp_rows are the LP's,
/// lp_iterations its pivots; an optimal vertex must be integral (the LP is
/// a network LP) and is rounded into the move matrix.
inline FlowResult solve_flow(const QuotientFlow& flow,
                             Solver solver = Solver::dense) {
  pigp::DenseMatrix<int> vars;
  const lp::LinearProgram program = to_linear_program(flow, &vars);
  const lp::Solution solution = solve_lp(program, solver);
  FlowResult result;
  const std::size_t parts = flow.parts();
  result.moves.assign(parts, parts, 0);
  result.status = solution.status;
  result.lp_variables = program.num_variables();
  result.lp_rows = program.num_rows();
  result.lp_iterations = solution.iterations;
  if (solution.status != lp::SolveStatus::optimal) return result;
  result.objective = solution.objective;
  for (const double value : solution.x) {
    EXPECT_LE(std::abs(value - std::round(value)), 1e-6)
        << "quotient-flow LP optimum is not integral";
  }
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      if (vars(i, j) < 0) continue;
      const std::int64_t count =
          std::llround(solution.x[static_cast<std::size_t>(vars(i, j))]);
      result.moves(i, j) = count;
      result.moved += count;
    }
  }
  return result;
}

/// The first rung of decide_stage's α ladder (1, 2, 4, … ≤ alpha_max)
/// whose balance flow is feasible, solved by the oracle; the ladder stops
/// where excess / α rounds to nothing, as decide_stage's does.
struct Rung {
  double alpha = 0.0;  ///< 0 = no rung is feasible: best effort
  FlowResult flow;     ///< that rung's solve, or the best-effort one
};

inline Rung first_feasible_rung(const pigp::DenseMatrix<std::int64_t>& eps,
                                const std::vector<double>& excess,
                                double alpha_max,
                                Solver solver = Solver::dense) {
  for (double alpha = 1.0; alpha <= alpha_max; alpha *= 2.0) {
    const std::vector<double> rhs = staged_requirements(excess, alpha);
    if (std::all_of(rhs.begin(), rhs.end(),
                    [](double r) { return r == 0.0; })) {
      break;  // nothing left to request at this α
    }
    FlowResult flow = solve_flow(balance_flow(eps, rhs), solver);
    if (flow.status == lp::SolveStatus::optimal) return {alpha, flow};
  }
  const std::vector<double> rhs = staged_requirements(excess, 1.0);
  return {0.0, solve_flow(best_effort_flow(eps, rhs), solver)};
}

}  // namespace pigp::core::oracle
