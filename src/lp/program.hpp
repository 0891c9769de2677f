#pragma once

/// \file program.hpp
/// Linear-program model shared by every solver in pigp::lp.
///
/// The incremental partitioner's LPs (Ou & Ranka §2.3 and §2.4) are flows
/// on the partition quotient graph: the load-balancing program
///     minimize   Σ l_ij
///     subject to 0 ≤ l_ij ≤ ε_ij,   Σ_k (l_jk − l_kj) = |B'(j)| − μ,
/// its slack-relaxed best-effort fallback, and the refinement program
///     maximize   Σ l_ij
///     subject to 0 ≤ l_ij ≤ b_ij,   Σ_k (l_jk − l_kj) = 0.
/// All three are stated as a core::QuotientFlow, which
/// core::to_linear_program translates into this class for a simplex
/// solver.

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pigp::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { minimize, maximize };

enum class RowType { less_equal, greater_equal, equal };

/// One linear constraint Σ coeff_k · x_{var_k}  (≤ | ≥ | =)  rhs.
struct Row {
  RowType type = RowType::equal;
  std::vector<std::pair<int, double>> coeffs;  ///< (variable index, coeff)
  double rhs = 0.0;
  std::string name;
};

/// Decision variable with box bounds.
struct Variable {
  double objective = 0.0;
  double lower = 0.0;
  double upper = kInfinity;
  std::string name;
};

/// In-memory LP model.  Variables are referenced by the dense index returned
/// from add_variable().
class LinearProgram {
 public:
  explicit LinearProgram(Sense sense = Sense::minimize) : sense_(sense) {}

  /// Add a variable; returns its index.  \p lower may be -inf (free below),
  /// \p upper may be +inf; lower must not exceed upper.
  int add_variable(double objective, double lower = 0.0,
                   double upper = kInfinity, std::string name = {});

  /// Add a constraint row.  Coefficients may repeat a variable; they are
  /// summed.  Variable indices must already exist.
  void add_row(RowType type, std::vector<std::pair<int, double>> coeffs,
               double rhs, std::string name = {});

  [[nodiscard]] Sense sense() const noexcept { return sense_; }
  [[nodiscard]] int num_variables() const noexcept {
    return static_cast<int>(variables_.size());
  }
  [[nodiscard]] int num_rows() const noexcept {
    return static_cast<int>(rows_.size());
  }
  [[nodiscard]] const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }

  /// Objective value c'x for a full assignment.
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// True when \p x satisfies all bounds and rows within \p tol.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                 double tol = 1e-6) const;

  /// Human-readable dump for debugging and golden tests.
  [[nodiscard]] std::string debug_string() const;

 private:
  Sense sense_;
  std::vector<Variable> variables_;
  std::vector<Row> rows_;
};

}  // namespace pigp::lp
