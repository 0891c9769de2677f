// Unit tests for the dense two-phase simplex: textbook problems with known
// optima, status detection, bounds, degenerate and redundant systems.

#include "lp/dense_simplex.hpp"

#include <gtest/gtest.h>

#include "lp/program.hpp"

namespace pigp::lp {
namespace {

constexpr double kTol = 1e-7;

TEST(DenseSimplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => opt 36 at (2, 6).
  LinearProgram lp(Sense::maximize);
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(5.0);
  lp.add_row(RowType::less_equal, {{x, 1.0}}, 4.0);
  lp.add_row(RowType::less_equal, {{y, 2.0}}, 12.0);
  lp.add_row(RowType::less_equal, {{x, 3.0}, {y, 2.0}}, 18.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, kTol);
}

TEST(DenseSimplex, TextbookMinimizationWithGe) {
  // min 0.12x + 0.15y s.t. 60x + 60y >= 300, 12x + 6y >= 36, 10x + 30y >= 90
  // classic diet problem => opt 0.66 at (3, 2).
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(0.12);
  const int y = lp.add_variable(0.15);
  lp.add_row(RowType::greater_equal, {{x, 60.0}, {y, 60.0}}, 300.0);
  lp.add_row(RowType::greater_equal, {{x, 12.0}, {y, 6.0}}, 36.0);
  lp.add_row(RowType::greater_equal, {{x, 10.0}, {y, 30.0}}, 90.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 0.66, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 3.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, kTol);
}

TEST(DenseSimplex, EqualityConstraints) {
  // min x + 2y + 3z s.t. x + y + z = 10, x - y = 2  => x,y from z = 0:
  // x = 6, y = 4, z = 0 -> obj 14.
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0);
  const int z = lp.add_variable(3.0);
  lp.add_row(RowType::equal, {{x, 1.0}, {y, 1.0}, {z, 1.0}}, 10.0);
  lp.add_row(RowType::equal, {{x, 1.0}, {y, -1.0}}, 2.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 14.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 6.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 4.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(z)], 0.0, kTol);
}

TEST(DenseSimplex, DetectsInfeasible) {
  // x >= 5 and x <= 3 cannot hold together.
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(1.0);
  lp.add_row(RowType::greater_equal, {{x, 1.0}}, 5.0);
  lp.add_row(RowType::less_equal, {{x, 1.0}}, 3.0);

  EXPECT_EQ(DenseSimplex().solve(lp).status, SolveStatus::infeasible);
}

TEST(DenseSimplex, DetectsUnbounded) {
  // max x with only x >= 1.
  LinearProgram lp(Sense::maximize);
  const int x = lp.add_variable(1.0);
  lp.add_row(RowType::greater_equal, {{x, 1.0}}, 1.0);

  EXPECT_EQ(DenseSimplex().solve(lp).status, SolveStatus::unbounded);
}

TEST(DenseSimplex, HonorsVariableBounds) {
  // max x + y with 1 <= x <= 2, 0 <= y <= 0.5 and x + y <= 10 (slack).
  LinearProgram lp(Sense::maximize);
  const int x = lp.add_variable(1.0, 1.0, 2.0);
  const int y = lp.add_variable(1.0, 0.0, 0.5);
  lp.add_row(RowType::less_equal, {{x, 1.0}, {y, 1.0}}, 10.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 2.5, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.5, kTol);
}

TEST(DenseSimplex, FreeVariable) {
  // min |shape|: x free, minimize x subject to x >= -7 expressed as a row.
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(1.0, -kInfinity, kInfinity);
  lp.add_row(RowType::greater_equal, {{x, 1.0}}, -7.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, -7.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], -7.0, kTol);
}

TEST(DenseSimplex, NegativeLowerBound) {
  // min x + y, x in [-5, -1], y in [2, inf), x + y >= 0.
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(1.0, -5.0, -1.0);
  const int y = lp.add_variable(1.0, 2.0);
  lp.add_row(RowType::greater_equal, {{x, 1.0}, {y, 1.0}}, 0.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 0.0, kTol);
  EXPECT_TRUE(lp.is_feasible(s.x));
}

TEST(DenseSimplex, RedundantEqualityRows) {
  // The balance LP of the paper always contains one redundant equality
  // (the per-partition excesses sum to zero); the solver must cope.
  LinearProgram lp(Sense::minimize);
  const int a = lp.add_variable(1.0);
  const int b = lp.add_variable(1.0);
  lp.add_row(RowType::equal, {{a, 1.0}, {b, -1.0}}, 3.0);
  lp.add_row(RowType::equal, {{a, -1.0}, {b, 1.0}}, -3.0);  // negation of row 0

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(DenseSimplex, DegenerateCycleProne) {
  // Beale's classic cycling example; must terminate via the Bland fallback.
  LinearProgram lp(Sense::minimize);
  const int x1 = lp.add_variable(-0.75);
  const int x2 = lp.add_variable(150.0);
  const int x3 = lp.add_variable(-0.02);
  const int x4 = lp.add_variable(6.0);
  lp.add_row(RowType::less_equal,
             {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}}, 0.0);
  lp.add_row(RowType::less_equal,
             {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}}, 0.0);
  lp.add_row(RowType::less_equal, {{x3, 1.0}}, 1.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
}

TEST(DenseSimplex, BlandOnlyModeSolves) {
  SimplexOptions opt;
  opt.always_bland = true;
  LinearProgram lp(Sense::maximize);
  const int x = lp.add_variable(2.0);
  const int y = lp.add_variable(3.0);
  lp.add_row(RowType::less_equal, {{x, 1.0}, {y, 1.0}}, 4.0);
  lp.add_row(RowType::less_equal, {{x, 1.0}, {y, 3.0}}, 6.0);

  const Solution s = DenseSimplex(opt).solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.objective, 9.0, kTol);  // (3, 1)
}

TEST(DenseSimplex, FixedVariable) {
  // A variable fixed by equal bounds participates as a constant.
  LinearProgram lp(Sense::maximize);
  const int x = lp.add_variable(1.0, 2.0, 2.0);
  const int y = lp.add_variable(1.0, 0.0, kInfinity);
  lp.add_row(RowType::less_equal, {{x, 1.0}, {y, 1.0}}, 5.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 3.0, kTol);
}

TEST(DenseSimplex, EmptyObjectiveFindsFeasiblePoint) {
  LinearProgram lp(Sense::minimize);
  const int x = lp.add_variable(0.0);
  lp.add_row(RowType::equal, {{x, 2.0}}, 8.0);

  const Solution s = DenseSimplex().solve(lp);
  ASSERT_EQ(s.status, SolveStatus::optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0, kTol);
}

}  // namespace
}  // namespace pigp::lp
