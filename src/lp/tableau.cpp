#include "lp/tableau.hpp"

#include <cmath>

#include "support/check.hpp"

namespace pigp::lp::detail {

Tableau build_tableau(const StandardForm& sf) {
  const int m = static_cast<int>(sf.rows.size());
  const int ns = sf.num_columns();

  // Count helper columns.
  int num_slack = 0;
  int num_artificial = 0;
  for (const CanonicalRow& row : sf.rows) {
    // Sign normalization may flip <= to >= and vice versa.
    const bool negate = row.rhs < 0.0;
    RowType type = row.type;
    if (negate) {
      if (type == RowType::less_equal) {
        type = RowType::greater_equal;
      } else if (type == RowType::greater_equal) {
        type = RowType::less_equal;
      }
    }
    if (type == RowType::less_equal) {
      ++num_slack;
    } else if (type == RowType::greater_equal) {
      ++num_slack;  // surplus
      ++num_artificial;
    } else {
      ++num_artificial;
    }
  }

  Tableau tab;
  tab.num_structural = ns;
  tab.first_artificial = ns + num_slack;
  tab.ncols = ns + num_slack + num_artificial;
  tab.nrows = m;
  tab.t = DenseMatrix<double>(static_cast<std::size_t>(m + 1),
                              static_cast<std::size_t>(tab.ncols + 1), 0.0);
  tab.basis.assign(static_cast<std::size_t>(m), -1);
  tab.upper = sf.upper;
  tab.upper.resize(static_cast<std::size_t>(tab.ncols), kInfinity);

  int next_slack = ns;
  int next_artificial = ns + num_slack;
  for (int r = 0; r < m; ++r) {
    const CanonicalRow& row = sf.rows[static_cast<std::size_t>(r)];
    const bool negate = row.rhs < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    RowType type = row.type;
    if (negate) {
      if (type == RowType::less_equal) {
        type = RowType::greater_equal;
      } else if (type == RowType::greater_equal) {
        type = RowType::less_equal;
      }
    }
    for (const auto& [col, coeff] : row.coeffs) {
      tab.t(r, col) = sign * coeff;
    }
    tab.t(r, tab.ncols) = sign * row.rhs;

    if (type == RowType::less_equal) {
      tab.t(r, next_slack) = 1.0;
      tab.basis[static_cast<std::size_t>(r)] = next_slack++;
    } else if (type == RowType::greater_equal) {
      tab.t(r, next_slack) = -1.0;  // surplus
      ++next_slack;
      tab.t(r, next_artificial) = 1.0;
      tab.basis[static_cast<std::size_t>(r)] = next_artificial++;
    } else {
      tab.t(r, next_artificial) = 1.0;
      tab.basis[static_cast<std::size_t>(r)] = next_artificial++;
    }
  }
  PIGP_ASSERT(next_slack == ns + num_slack);
  PIGP_ASSERT(next_artificial == tab.ncols);
  return tab;
}

void rebuild_objective(Tableau& tab, const std::vector<double>& cost) {
  const auto cost_of = [&cost](int col) {
    return static_cast<std::size_t>(col) < cost.size()
               ? cost[static_cast<std::size_t>(col)]
               : 0.0;
  };
  for (int j = 0; j <= tab.ncols; ++j) {
    tab.t(tab.nrows, j) = j < tab.ncols ? cost_of(j) : 0.0;
  }
  for (int r = 0; r < tab.nrows; ++r) {
    const double cb = cost_of(tab.basis[static_cast<std::size_t>(r)]);
    if (cb == 0.0) continue;
    for (int j = 0; j <= tab.ncols; ++j) {
      tab.t(tab.nrows, j) -= cb * tab.t(r, j);
    }
  }
}

void pivot(Tableau& tab, int row, int col) {
  const double piv = tab.t(row, col);
  PIGP_CHECK(std::abs(piv) > 1e-12, "pivot element too small");
  const double inv = 1.0 / piv;
  double* prow = tab.t.row(static_cast<std::size_t>(row)).data();
  const int width = tab.ncols + 1;
  for (int j = 0; j < width; ++j) prow[j] *= inv;
  prow[col] = 1.0;  // exact

  for (int i = 0; i <= tab.nrows; ++i) {
    if (i == row) continue;
    double* irow = tab.t.row(static_cast<std::size_t>(i)).data();
    const double factor = irow[col];
    if (factor == 0.0) continue;
    for (int j = 0; j < width; ++j) irow[j] -= factor * prow[j];
    irow[col] = 0.0;  // exact
  }
  tab.basis[static_cast<std::size_t>(row)] = col;
}

std::vector<double> extract_structural(const Tableau& tab) {
  std::vector<double> y(static_cast<std::size_t>(tab.num_structural), 0.0);
  for (int r = 0; r < tab.nrows; ++r) {
    const int col = tab.basis[static_cast<std::size_t>(r)];
    if (col < tab.num_structural) {
      y[static_cast<std::size_t>(col)] = tab.rhs(r);
    }
  }
  return y;
}

}  // namespace pigp::lp::detail
