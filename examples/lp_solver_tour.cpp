// Tour of the LP substrate: building programs with the model API and
// solving them with both simplex implementations, and network programs
// with the network simplex too.  Ends by reconstructing the paper's own
// Figure 5 load-balancing LP and showing that every solver reproduces the
// printed optimum (l03 = 8, l12 = 1, objective 9).

#include <iostream>

#include "lp/bounded_simplex.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/network_flow.hpp"
#include "lp/program.hpp"
#include "support/table.hpp"

namespace {

using namespace pigp;

void solve_and_print(const char* title, const lp::LinearProgram& program) {
  std::cout << title << "\n" << program.debug_string();
  // The network simplex takes only network LPs (equality rows, [0, u]
  // bounds, one +1 and one -1 per column): the balance LP, not the rest.
  const int solvers = lp::is_network_program(program) ? 3 : 2;
  for (int solver = 0; solver < solvers; ++solver) {
    const char* names[] = {"  dense simplex:   ", "  bounded simplex: ",
                           "  network simplex: "};
    const lp::Solution s =
        solver == 0   ? lp::DenseSimplex().solve(program)
        : solver == 1 ? lp::BoundedSimplex().solve(program)
                      : lp::solve_network_program(program, {});
    std::cout << names[solver] << lp::to_string(s.status);
    if (s.status == lp::SolveStatus::optimal) {
      std::cout << ", objective " << s.objective << ", x = [";
      for (std::size_t j = 0; j < s.x.size(); ++j) {
        std::cout << (j ? ", " : "") << s.x[j];
      }
      std::cout << "], " << s.iterations << " pivots";
    }
    std::cout << '\n';
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  // 1. A production-mix maximization with plain <= rows.
  {
    lp::LinearProgram program(lp::Sense::maximize);
    const int x = program.add_variable(3.0, 0.0, lp::kInfinity, "doors");
    const int y = program.add_variable(5.0, 0.0, lp::kInfinity, "windows");
    program.add_row(lp::RowType::less_equal, {{x, 1.0}}, 4.0, "plant1");
    program.add_row(lp::RowType::less_equal, {{y, 2.0}}, 12.0, "plant2");
    program.add_row(lp::RowType::less_equal, {{x, 3.0}, {y, 2.0}}, 18.0,
                    "plant3");
    solve_and_print("1) production mix (Hillier-Lieberman)", program);
  }

  // 2. Diet-style minimization with >= rows (needs phase 1).
  {
    lp::LinearProgram program(lp::Sense::minimize);
    const int x = program.add_variable(0.12, 0.0, lp::kInfinity, "grain");
    const int y = program.add_variable(0.15, 0.0, lp::kInfinity, "meal");
    program.add_row(lp::RowType::greater_equal, {{x, 60.0}, {y, 60.0}},
                    300.0, "protein");
    program.add_row(lp::RowType::greater_equal, {{x, 12.0}, {y, 6.0}}, 36.0,
                    "fat");
    program.add_row(lp::RowType::greater_equal, {{x, 10.0}, {y, 30.0}}, 90.0,
                    "fiber");
    solve_and_print("2) diet problem (two-phase)", program);
  }

  // 3. Box-constrained problem where the bounded-variable solver shines.
  {
    lp::LinearProgram program(lp::Sense::maximize);
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < 6; ++j) {
      const int v = program.add_variable(1.0 + j, 0.0, 1.0,
                                         "item" + std::to_string(j));
      coeffs.emplace_back(v, 1.0);
    }
    program.add_row(lp::RowType::less_equal, coeffs, 3.0, "knapsack");
    solve_and_print("3) fractional knapsack (all-bound optimum)", program);
  }

  // 4. The paper's Figure 5 LP.
  {
    lp::LinearProgram program(lp::Sense::minimize);
    const char* names[] = {"l01", "l02", "l03", "l10", "l12",
                           "l20", "l21", "l23", "l30", "l32"};
    const double caps[] = {9, 7, 12, 10, 11, 3, 7, 9, 7, 5};
    int v[10];
    for (int j = 0; j < 10; ++j) {
      v[j] = program.add_variable(1.0, 0.0, caps[j], names[j]);
    }
    program.add_row(lp::RowType::equal,
                    {{v[0], 1.0}, {v[1], 1.0}, {v[2], 1.0},
                     {v[3], -1.0}, {v[5], -1.0}, {v[8], -1.0}},
                    8.0, "balance0");
    program.add_row(lp::RowType::equal,
                    {{v[3], 1.0}, {v[4], 1.0}, {v[0], -1.0}, {v[6], -1.0}},
                    1.0, "balance1");
    program.add_row(lp::RowType::equal,
                    {{v[5], 1.0}, {v[6], 1.0}, {v[7], 1.0},
                     {v[1], -1.0}, {v[4], -1.0}, {v[9], -1.0}},
                    -1.0, "balance2");
    program.add_row(lp::RowType::equal,
                    {{v[8], 1.0}, {v[9], 1.0}, {v[2], -1.0}, {v[7], -1.0}},
                    -8.0, "balance3");
    solve_and_print("4) the paper's Figure 5 load-balancing LP "
                    "(expect objective 9: l03=8, l12=1)",
                    program);
  }
  return 0;
}
