#pragma once

/// \file network_flow.hpp
/// Exact min-cost flow by primal network simplex — the solver for LPs
/// whose constraint matrix is a network matrix, which all three of the
/// paper's LPs are (Ou & Ranka §2.3–2.4: flows on the P-node quotient
/// graph).
///
/// The simplex basis of a network LP is a spanning tree, so a pivot is a
/// walk around one cycle of the tree instead of an elimination over a
/// dense tableau.  The implementation is the textbook primal network
/// simplex:
///   * an artificial root with one big-M artificial arc per node forms the
///     initial tree; artificial flow left over at the optimum means the
///     supplies cannot be met (infeasible);
///   * strongly feasible trees (Cunningham's leaving-arc rule) keep the
///     many degenerate pivots of zero-supply nodes from cycling;
///   * a pivot re-hangs only the subtree cut off by the leaving arc, and
///     re-derives depths and potentials there alone;
///   * block-search pricing scans the arcs in their fixed insertion order,
///     so every solve is deterministic;
///   * maximization negates the costs.
/// With integral capacities and supplies every flow is an integer, held
/// exactly in a double.  All storage is kept across reset(), so a warm
/// instance solves without touching the heap.

#include <cstdint>
#include <vector>

#include "lp/program.hpp"
#include "lp/solution.hpp"

namespace pigp::lp {

/// The tolerances and the pivot cap of a NetworkFlow solve.
struct NetworkOptions {
  /// Reduced-cost tolerance, scaled by 1 + max |cost|.
  double eps = 1e-9;
  /// Supply imbalance and leftover artificial flow that still count as
  /// feasible, scaled by max(1, max |supply|).
  double feasibility_tol = 1e-7;
  std::int64_t max_iterations = 200000;  ///< pivot cap
};

class NetworkFlow {
 public:
  /// Start a new network of \p nodes nodes with no arcs and zero supply.
  void reset(int nodes);

  /// Add the arc \p from → \p to carrying a flow in [0, \p capacity]
  /// (kInfinity allowed) at \p cost per unit; returns the arc's index.
  /// Arcs are priced in index order.
  int add_arc(int from, int to, double capacity, double cost);

  /// Node \p node's required net outflow: Σ out − Σ in = \p supply.
  /// Supplies must sum to zero for the network to be feasible.
  void set_supply(int node, double supply);

  /// Optimize Σ cost · flow in \p sense.
  [[nodiscard]] SolveStatus solve(Sense sense, const NetworkOptions& options);

  /// Flow on arc \p arc; meaningful after an optimal solve.
  [[nodiscard]] double flow(int arc) const {
    return flow_[static_cast<std::size_t>(arc)];
  }
  /// Σ cost · flow in the problem's own sense.
  [[nodiscard]] double objective() const noexcept { return objective_; }
  /// Pivots of the last solve, bound flips included.
  [[nodiscard]] std::int64_t pivots() const noexcept { return pivots_; }
  [[nodiscard]] int num_arcs() const noexcept { return arcs_; }

 private:
  bool find_entering_arc(double tolerance, int& entering);
  [[nodiscard]] int find_join(int u, int v) const;
  void init_tree();
  void rehang(int u_in, int v_in, int entering, int u_out);
  void attach(int child, int parent);
  void detach(int child);
  void derive_from_parent(int child);

  int nodes_ = 0;
  int arcs_ = 0;  ///< real arcs; the artificial ones follow them
  // Per arc (real, then one artificial per node).
  std::vector<int> source_;
  std::vector<int> target_;
  std::vector<double> capacity_;
  std::vector<double> cost_;       ///< as given
  std::vector<double> work_cost_;  ///< minimization costs of this solve
  std::vector<double> flow_;
  std::vector<signed char> state_;  ///< +1 at lower, -1 at upper, 0 tree
  // Per node (the root is index nodes_).
  std::vector<double> supply_;
  std::vector<double> potential_;
  std::vector<int> parent_;
  std::vector<int> pred_;              ///< tree arc to the parent
  std::vector<signed char> up_;        ///< 1 when pred_ points to parent
  std::vector<int> depth_;
  // Children as doubly linked sibling lists (-1 ends a list).
  std::vector<int> first_child_;
  std::vector<int> next_sibling_;
  std::vector<int> prev_sibling_;
  std::vector<int> stack_;  ///< DFS over a re-hung subtree
  int next_arc_ = 0;  ///< where block-search pricing resumes
  double objective_ = 0.0;
  std::int64_t pivots_ = 0;
};

/// True when \p program is a network LP: every row an equality, every
/// variable bounded to [0, u] (u may be infinite), and every column with
/// at most one +1 and at most one −1 after summing repeated coefficients.
[[nodiscard]] bool is_network_program(const LinearProgram& program);

/// Solve a network LP with NetworkFlow: rows become nodes (plus a ground
/// node for one-sided columns), columns become arcs in index order.
/// Throws CheckError when !is_network_program(program).
[[nodiscard]] Solution solve_network_program(const LinearProgram& program,
                                             const NetworkOptions& options);

}  // namespace pigp::lp
