#include "lp/program.hpp"

#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace pigp::lp {

int LinearProgram::add_variable(double objective, double lower, double upper,
                                std::string name) {
  PIGP_CHECK(!(std::isnan(lower) || std::isnan(upper)), "NaN bound");
  PIGP_CHECK(lower <= upper, "variable lower bound exceeds upper bound");
  PIGP_CHECK(lower < kInfinity && upper > -kInfinity,
             "bounds exclude all values");
  variables_.push_back({objective, lower, upper, std::move(name)});
  return static_cast<int>(variables_.size() - 1);
}

void LinearProgram::add_row(RowType type,
                            std::vector<std::pair<int, double>> coeffs,
                            double rhs, std::string name) {
  for (const auto& [var, coeff] : coeffs) {
    PIGP_CHECK(var >= 0 && var < num_variables(),
               "row references unknown variable");
    PIGP_CHECK(!std::isnan(coeff), "NaN coefficient");
  }
  PIGP_CHECK(!std::isnan(rhs), "NaN rhs");
  rows_.push_back({type, std::move(coeffs), rhs, std::move(name)});
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  PIGP_CHECK(x.size() == variables_.size(), "assignment size mismatch");
  double value = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    value += variables_[j].objective * x[j];
  }
  return value;
}

bool LinearProgram::is_feasible(const std::vector<double>& x,
                                double tol) const {
  PIGP_CHECK(x.size() == variables_.size(), "assignment size mismatch");
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    if (x[j] < variables_[j].lower - tol) return false;
    if (x[j] > variables_[j].upper + tol) return false;
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.coeffs) {
      lhs += coeff * x[static_cast<std::size_t>(var)];
    }
    switch (row.type) {
      case RowType::less_equal:
        if (lhs > row.rhs + tol) return false;
        break;
      case RowType::greater_equal:
        if (lhs < row.rhs - tol) return false;
        break;
      case RowType::equal:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

std::string LinearProgram::debug_string() const {
  std::ostringstream os;
  os << (sense_ == Sense::minimize ? "minimize" : "maximize") << '\n';
  // Streamed piecewise: building "x" + std::to_string(j) draws GCC 12's
  // -Wrestrict false positive inside std::string (GCC bug 105329).
  const auto put_name = [&](int j) {
    const auto& v = variables_[static_cast<std::size_t>(j)];
    if (v.name.empty()) {
      os << 'x' << j;
    } else {
      os << v.name;
    }
  };
  os << "  obj:";
  for (int j = 0; j < num_variables(); ++j) {
    const double c = variables_[static_cast<std::size_t>(j)].objective;
    if (c == 0.0) continue;
    os << ' ' << (c >= 0 ? "+" : "") << c << '*';
    put_name(j);
  }
  os << '\n';
  for (const Row& row : rows_) {
    os << "  " << (row.name.empty() ? "row" : row.name) << ':';
    for (const auto& [var, coeff] : row.coeffs) {
      os << ' ' << (coeff >= 0 ? "+" : "") << coeff << '*';
      put_name(var);
    }
    switch (row.type) {
      case RowType::less_equal: os << " <= "; break;
      case RowType::greater_equal: os << " >= "; break;
      case RowType::equal: os << " == "; break;
    }
    os << row.rhs << '\n';
  }
  for (int j = 0; j < num_variables(); ++j) {
    const auto& v = variables_[static_cast<std::size_t>(j)];
    os << "  " << v.lower << " <= ";
    put_name(j);
    os << " <= " << v.upper << '\n';
  }
  return os.str();
}

}  // namespace pigp::lp
