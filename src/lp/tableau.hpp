#pragma once

/// \file tableau.hpp
/// Dense simplex tableau shared by DenseSimplex and BoundedSimplex: initial
/// basis construction (slack / surplus / artificial columns), objective-row
/// maintenance, and the pivot kernel.
///
/// Layout: rows 0..m-1 are constraints, row m is the reduced-cost row; the
/// last column holds the basic-variable values (constraints) and the negated
/// objective (cost row).

#include <vector>

#include "lp/standard_form.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::lp::detail {

struct Tableau {
  DenseMatrix<double> t;       ///< (m+1) x (ncols+1)
  std::vector<int> basis;      ///< basic column per constraint row
  std::vector<double> upper;   ///< per column; kInfinity when unbounded above
  int num_structural = 0;      ///< structural columns come first
  int first_artificial = 0;    ///< columns >= this are artificial
  int ncols = 0;
  int nrows = 0;

  [[nodiscard]] bool is_artificial(int col) const noexcept {
    return col >= first_artificial;
  }
  [[nodiscard]] double rhs(int row) const { return t(row, ncols); }
  [[nodiscard]] double reduced_cost(int col) const { return t(nrows, col); }
  /// Current objective value (the cost row stores its negation).
  [[nodiscard]] double objective() const { return -t(nrows, ncols); }
};

/// Build the initial tableau: normalize row signs so rhs >= 0, append slack
/// columns for <=, surplus + artificial for >=, artificial for =.  The
/// initial basis (slacks and artificials) is feasible with all structural
/// columns nonbasic at zero.
[[nodiscard]] Tableau build_tableau(const StandardForm& sf);

/// Recompute the reduced-cost row for \p cost (size ncols, zero-extended if
/// shorter), given the current basis.
void rebuild_objective(Tableau& tab, const std::vector<double>& cost);

/// Gaussian pivot on (row, col): scales the pivot row and eliminates the
/// column from every other row including the cost row.
void pivot(Tableau& tab, int row, int col);

/// Extract the canonical solution (structural columns only, zero for
/// nonbasic) — bound flips must already be undone by the caller.
[[nodiscard]] std::vector<double> extract_structural(const Tableau& tab);

}  // namespace pigp::lp::detail
