// The network simplex against the dense simplex, the oracle of
// flow_oracle.hpp.
//
// Every flow is solved both ways: the statuses must match exactly, the
// optimal objectives within 1e-9 relative, and the network flow must be
// integral, within capacity and exactly conserved.  The flows come from a
// random generator (2 to 64 parts, sparse and dense capacities, supply and
// circulation, with and without slack, both senses),
// from the refinement golden inputs, and from decide_stage's α ladder on a
// power-law graph, where the first feasible α and its move count must
// match too.

#include "lp/network_flow.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../core/refine_golden_inputs.hpp"
#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/refine.hpp"
#include "flow_oracle.hpp"
#include "graph/partition_state.hpp"
#include "support/rng.hpp"

namespace pigp::core {
namespace {

const lp::NetworkOptions kOptions{};

/// Σ (out − in) of the move matrix at node q.
std::int64_t net_outflow(const pigp::DenseMatrix<std::int64_t>& moves,
                         std::size_t q) {
  std::int64_t net = 0;
  for (std::size_t k = 0; k < moves.rows(); ++k) {
    net += moves(q, k) - moves(k, q);
  }
  return net;
}

/// Solve \p flow with the network simplex and the oracle and compare;
/// returns the status.
lp::SolveStatus expect_same_optimum(const QuotientFlow& flow,
                                    const std::string& what) {
  const FlowResult dense = oracle::solve_flow(flow);
  const FlowResult net = solve_flow(flow, kOptions);
  EXPECT_EQ(net.status, dense.status) << what;
  EXPECT_EQ(net.lp_variables, dense.lp_variables) << what;
  EXPECT_EQ(net.lp_rows, dense.lp_rows) << what;
  if (net.status != lp::SolveStatus::optimal ||
      dense.status != lp::SolveStatus::optimal) {
    return dense.status;
  }
  EXPECT_NEAR(net.objective, dense.objective,
              1e-9 * std::max(1.0, std::abs(dense.objective)))
      << what;

  // Within capacity and, without slack, conserved exactly.
  const std::size_t parts = flow.parts();
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      const double capacity = i != j ? flow.capacity(i, j) : 0.0;
      EXPECT_GE(net.moves(i, j), 0) << what;
      EXPECT_LE(static_cast<double>(net.moves(i, j)), capacity) << what;
      moved += net.moves(i, j);
    }
    if (flow.slack_cost.empty()) {
      const double supply = flow.supply.empty() ? 0.0 : flow.supply[i];
      EXPECT_EQ(static_cast<double>(net_outflow(net.moves, i)), supply)
          << what << " node " << i;
    }
  }
  EXPECT_EQ(net.moved, moved) << what;

  // The same LP through solve_lp: every variable, slack included, is an
  // integer, inside its bounds, and every row holds with zero tolerance.
  const lp::LinearProgram program = to_linear_program(flow);
  const lp::Solution x = solve_lp(program, LpSolverKind::network, kOptions);
  EXPECT_EQ(x.status, lp::SolveStatus::optimal) << what;
  if (x.status == lp::SolveStatus::optimal) {
    for (const double value : x.x) {
      EXPECT_EQ(value, std::floor(value)) << what;
    }
    EXPECT_TRUE(program.is_feasible(x.x, 0.0)) << what;
    EXPECT_NEAR(x.objective, dense.objective,
                1e-9 * std::max(1.0, std::abs(dense.objective)))
        << what;
  }
  return dense.status;
}

struct RandomShape {
  std::size_t parts;
  double density;
  bool supply;
  bool slack;
  lp::Sense sense;
};

/// A random flow of \p shape: integral capacities and supplies, costs
/// that are either all one (the balance LP's massive ties) or random.
QuotientFlow random_flow(const RandomShape& shape, pigp::SplitMix64& rng) {
  QuotientFlow flow(shape.parts, shape.sense);
  const bool unit_cost = rng.next_below(2) == 0;
  for (std::size_t i = 0; i < shape.parts; ++i) {
    for (std::size_t j = 0; j < shape.parts; ++j) {
      if (i == j || rng.next_double() >= shape.density) continue;
      flow.capacity(i, j) = static_cast<double>(1 + rng.next_below(12));
      flow.cost(i, j) = unit_cost ? 1.0 : rng.next_in(0.001, 4.0);
    }
  }
  if (shape.supply) {
    // Supplies summing to zero, occasionally beyond what the arcs carry.
    flow.supply.assign(shape.parts, 0.0);
    const auto spread = static_cast<std::uint64_t>(
        rng.next_below(2) == 0 ? 6 : 30);
    for (std::size_t q = 0; q + 1 < shape.parts; ++q) {
      const double b = static_cast<double>(rng.next_below(2 * spread + 1)) -
                       static_cast<double>(spread);
      flow.supply[q] = b;
      flow.supply.back() -= b;
    }
  }
  if (shape.slack) {
    // Maximizing against a positive slack price would be unbounded.
    const double sign = shape.sense == lp::Sense::minimize ? 1.0 : -1.0;
    flow.slack_cost.assign(shape.parts, 0.0);
    for (double& c : flow.slack_cost) c = sign * rng.next_in(0.5, 2.0);
  }
  return flow;
}

TEST(NetworkFlowDifferential, RandomFlowsMatchTheDenseSimplex) {
  pigp::SplitMix64 rng(20);
  int optimal = 0;
  int infeasible = 0;
  for (const std::size_t parts : {2, 3, 8, 16, 32, 64}) {
    // The dense oracle costs O(rows² · columns) per pivot: fewer draws at
    // the top sizes.
    const int draws = parts <= 16 ? 6 : (parts == 32 ? 2 : 1);
    for (const double density : {0.15, 0.8}) {
      for (const bool supply : {false, true}) {
        for (const bool slack : {false, true}) {
          for (const lp::Sense sense :
               {lp::Sense::minimize, lp::Sense::maximize}) {
            if (parts == 64 && density > 0.5) continue;
            const RandomShape shape{parts, density, supply, slack, sense};
            for (int d = 0; d < draws; ++d) {
              const std::string what =
                  "P=" + std::to_string(parts) +
                  " density=" + std::to_string(density) +
                  " supply=" + std::to_string(supply) +
                  " slack=" + std::to_string(slack) +
                  " max=" + std::to_string(sense == lp::Sense::maximize) +
                  " draw=" + std::to_string(d);
              const lp::SolveStatus status =
                  expect_same_optimum(random_flow(shape, rng), what);
              optimal += status == lp::SolveStatus::optimal ? 1 : 0;
              infeasible += status == lp::SolveStatus::infeasible ? 1 : 0;
            }
          }
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 10);
}

// ------------------------------------------------- refinement golden flows

/// Round-one refinement candidates of \p p: each boundary vertex's best
/// destination (largest out(v, j) − in(v), ties to the smaller part) when
/// its gain is positive.
pigp::DenseMatrix<std::vector<GainCandidate>> candidates_of(
    const graph::Graph& g, const graph::Partitioning& p) {
  const auto parts = static_cast<std::size_t>(p.num_parts);
  pigp::DenseMatrix<std::vector<GainCandidate>> candidates(parts, parts);
  std::vector<double> out(parts, 0.0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const graph::PartId from = p.part[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto weights = g.incident_edge_weights(v);
    double in = 0.0;
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
      if (q == from) {
        in += weights[i];
      } else {
        out[static_cast<std::size_t>(q)] += weights[i];
      }
    }
    int best = -1;
    double gain = 0.0;
    for (std::size_t q = 0; q < parts; ++q) {
      if (out[q] > 0.0 && (best < 0 || out[q] - in > gain)) {
        best = static_cast<int>(q);
        gain = out[q] - in;
      }
    }
    if (best >= 0 && gain > 0.0) {
      candidates(static_cast<std::size_t>(from), static_cast<std::size_t>(best))
          .push_back(GainCandidate{v, gain});
    }
  }
  return candidates;
}

TEST(NetworkFlowDifferential, RefinementFlowsOfTheGoldenInputs) {
  // The golden inputs' initial partitions and the partitions after one and
  // two refine rounds, full and halved caps.
  for (const char* name : {"grid_banded", "grid_shuffled", "geometric",
                           "geometric_large", "hub", "hub_sparse"}) {
    golden::GoldenInput in = golden::golden_input(name);
    for (int rounds = 0; rounds <= 2; ++rounds) {
      graph::Partitioning p = in.p;
      if (rounds > 0) {
        RefineOptions opt = in.opt;
        opt.max_rounds = rounds;
        (void)refine_partitioning(in.g, p, opt);
      }
      const auto candidates = candidates_of(in.g, p);
      for (const double cap_scale : {1.0, 0.5}) {
        const std::string what = std::string(name) + " after " +
                                 std::to_string(rounds) + " round(s) cap " +
                                 std::to_string(cap_scale);
        QuotientFlow flow;
        refinement_flow_into(candidates, cap_scale, flow);
        EXPECT_EQ(expect_same_optimum(flow, what), lp::SolveStatus::optimal)
            << what;
      }
    }
  }
}

// ------------------------------------------------ decide_stage's α ladder

TEST(NetworkFlowDifferential, BalanceLadderOnAPowerLawGraph) {
  // A hub-heavy graph split into 16 parts with part 0 holding a third of
  // the vertices, layered to a few depths: shallow layerings make α = 1
  // infeasible, so the ladder climbs.  The last case keeps only three of
  // part 0's outgoing capacities, which no rung fits: best effort.
  const graph::Graph g = golden::hub_graph(3000, 2, 7);
  graph::Partitioning p;
  p.num_parts = 16;
  p.part.resize(3000);
  for (std::size_t v = 0; v < 3000; ++v) {
    p.part[v] = v < 1000 ? 0 : static_cast<graph::PartId>(1 + v % 15);
  }
  const graph::PartitionState state(g, p);
  std::vector<double> targets;
  graph::balance_targets_into(g.total_vertex_weight(), p.num_parts, targets);
  std::vector<double> excess(16, 0.0);
  ASSERT_GT(compute_excess(state.weights(), targets, excess), 100.0);

  const BalanceOptions options;
  std::vector<double> alphas;
  struct Case {
    int depth;  ///< -1 = exhausted
    bool cut;   ///< keep only eps(0, 1) = 3 of part 0's row
  };
  for (const Case c : {Case{-1, false}, Case{1, false}, Case{0, false},
                       Case{0, true}}) {
    BoundaryLayering layering(g, p);
    layering.reseed(state);
    layering.grow(c.depth);
    pigp::DenseMatrix<std::int64_t> eps = layering.eps();
    if (c.cut) {
      for (std::size_t k = 0; k < 16; ++k) eps(0, k) = 0;
      eps(0, 1) = 3;
    }
    const std::string what = "depth " + std::to_string(c.depth) +
                             (c.cut ? " cut" : "");

    // Every rung: same status, same optimum.
    double first_feasible = 0.0;
    for (double alpha = 1.0; alpha <= options.alpha_max; alpha *= 2.0) {
      const lp::SolveStatus status = expect_same_optimum(
          balance_flow(eps, staged_requirements(excess, alpha)),
          what + " alpha " + std::to_string(alpha));
      if (status == lp::SolveStatus::optimal && first_feasible == 0.0) {
        first_feasible = alpha;
      }
    }
    (void)expect_same_optimum(
        best_effort_flow(eps, staged_requirements(excess, 1.0)),
        what + " best effort");

    // decide_stage treats the layering as exhausted: the full ladder,
    // landing on the oracle ladder's first feasible rung.
    const oracle::Rung want =
        oracle::first_feasible_rung(eps, excess, options.alpha_max);
    const StageDecision got = decide_stage(eps, excess, true, c.depth, options);
    EXPECT_EQ(want.alpha, first_feasible) << what;
    EXPECT_EQ(got.stats.alpha, want.alpha) << what;
    EXPECT_EQ(got.stats.vertices_moved, static_cast<double>(want.flow.moved))
        << what;
    EXPECT_EQ(got.progress, want.flow.moved > 0) << what;
    alphas.push_back(got.stats.alpha);
  }
  // The cases cover α = 1, a climbed ladder and best effort (α = 0).
  EXPECT_EQ(alphas.front(), 1.0);
  EXPECT_EQ(alphas.back(), 0.0);
  EXPECT_TRUE(std::any_of(alphas.begin(), alphas.end(),
                          [](double a) { return a > 1.0; }));
}

// ------------------------------------------------------- solve_lp routing

TEST(NetworkFlowSolveLp, RoutesANetworkProgram) {
  pigp::DenseMatrix<std::int64_t> eps(3, 3, 0);
  eps(0, 1) = 4;
  eps(1, 2) = 4;
  eps(0, 2) = 1;
  const lp::LinearProgram program =
      build_balance_lp(eps, {3.0, 0.0, -3.0}, nullptr);
  ASSERT_TRUE(lp::is_network_program(program));
  const lp::Solution s = solve_lp(program, LpSolverKind::network, kOptions);
  ASSERT_EQ(s.status, lp::SolveStatus::optimal);
  // One unit straight across, two through the middle: 1 + 2 · 2 = 5.
  EXPECT_DOUBLE_EQ(s.objective, 5.0);
  EXPECT_TRUE(program.is_feasible(s.x, 0.0));
  EXPECT_GT(s.iterations, 0);
}

TEST(NetworkFlowSolveLp, RejectsAnyOtherProgram) {
  // An inequality row.
  lp::LinearProgram inequality;
  const int x = inequality.add_variable(1.0, 0.0, 4.0);
  inequality.add_row(lp::RowType::less_equal, {{x, 1.0}}, 2.0);
  // A coefficient other than ±1.
  lp::LinearProgram scaled;
  const int y = scaled.add_variable(1.0, 0.0, 4.0);
  scaled.add_row(lp::RowType::equal, {{y, 2.0}}, 2.0);
  // Two +1 entries in one column.
  lp::LinearProgram two_tails;
  const int z = two_tails.add_variable(1.0, 0.0, 4.0);
  two_tails.add_row(lp::RowType::equal, {{z, 1.0}}, 1.0);
  two_tails.add_row(lp::RowType::equal, {{z, 1.0}}, 1.0);
  // A nonzero lower bound.
  lp::LinearProgram lower;
  const int w = lower.add_variable(1.0, 1.0, 4.0);
  lower.add_row(lp::RowType::equal, {{w, 1.0}}, 1.0);
  for (const lp::LinearProgram* program :
       {&inequality, &scaled, &two_tails, &lower}) {
    EXPECT_FALSE(lp::is_network_program(*program));
    EXPECT_THROW((void)solve_lp(*program, LpSolverKind::network, kOptions),
                 CheckError);
  }
}

TEST(NetworkFlowSolveLp, RepeatedCoefficientsAreSummed) {
  // x appears twice in row 0 (+1 + 1 − 1 = +1) and once in row 1 (−1):
  // an arc 0 → 1 carrying the unit row 0 ships.
  lp::LinearProgram program;
  const int x = program.add_variable(2.0, 0.0, 5.0);
  program.add_row(lp::RowType::equal, {{x, 1.0}, {x, 1.0}, {x, -1.0}}, 1.0);
  program.add_row(lp::RowType::equal, {{x, -1.0}}, -1.0);
  ASSERT_TRUE(lp::is_network_program(program));
  const lp::Solution s = solve_lp(program, LpSolverKind::network, kOptions);
  ASSERT_EQ(s.status, lp::SolveStatus::optimal);
  EXPECT_DOUBLE_EQ(s.x[0], 1.0);
  EXPECT_DOUBLE_EQ(s.objective, 2.0);
}

TEST(NetworkFlowSolveLp, ReportsUnboundedLikeTheSimplex) {
  // A maximized uncapacitated 2-cycle.
  lp::LinearProgram program(lp::Sense::maximize);
  const int a = program.add_variable(1.0);
  const int b = program.add_variable(1.0);
  program.add_row(lp::RowType::equal, {{a, 1.0}, {b, -1.0}}, 0.0);
  program.add_row(lp::RowType::equal, {{b, 1.0}, {a, -1.0}}, 0.0);
  EXPECT_EQ(solve_lp(program, LpSolverKind::network, kOptions).status,
            lp::SolveStatus::unbounded);
  EXPECT_EQ(oracle::solve_lp(program, oracle::Solver::dense).status,
            lp::SolveStatus::unbounded);
}

// --------------------------------------------------------- the raw solver

TEST(NetworkFlow, WarmInstanceIsReusedAcrossShapes) {
  // One instance, a bigger network then a smaller one: reset() forgets
  // the old arcs and the artificial arcs of the last solve.
  lp::NetworkFlow net;
  net.reset(4);
  (void)net.add_arc(0, 1, 5.0, 1.0);
  (void)net.add_arc(1, 2, 5.0, 1.0);
  (void)net.add_arc(2, 3, 5.0, 1.0);
  (void)net.add_arc(0, 3, 2.0, 2.5);
  net.set_supply(0, 4.0);
  net.set_supply(3, -4.0);
  ASSERT_EQ(net.solve(lp::Sense::minimize, kOptions),
            lp::SolveStatus::optimal);
  // 2 units direct (cost 2.5 < 3), 2 along the path.
  EXPECT_DOUBLE_EQ(net.objective(), 2 * 2.5 + 2 * 3.0);
  EXPECT_DOUBLE_EQ(net.flow(3), 2.0);

  net.reset(2);
  EXPECT_EQ(net.add_arc(0, 1, 3.0, 1.0), 0);
  net.set_supply(0, 4.0);
  net.set_supply(1, -4.0);
  EXPECT_EQ(net.solve(lp::Sense::minimize, kOptions),
            lp::SolveStatus::infeasible);
  net.set_supply(0, 3.0);
  net.set_supply(1, -3.0);
  ASSERT_EQ(net.solve(lp::Sense::minimize, kOptions),
            lp::SolveStatus::optimal);
  EXPECT_DOUBLE_EQ(net.flow(0), 3.0);
  EXPECT_EQ(net.num_arcs(), 1);
}

TEST(NetworkFlow, UnbalancedSuppliesAreInfeasibleWithoutPivoting) {
  lp::NetworkFlow net;
  net.reset(2);
  (void)net.add_arc(0, 1, 10.0, 1.0);
  net.set_supply(0, 2.0);
  net.set_supply(1, -1.0);
  EXPECT_EQ(net.solve(lp::Sense::minimize, kOptions),
            lp::SolveStatus::infeasible);
  EXPECT_EQ(net.pivots(), 0);
}

TEST(NetworkFlow, PivotLimitIsReported) {
  lp::NetworkFlow net;
  net.reset(3);
  (void)net.add_arc(0, 1, 5.0, 1.0);
  (void)net.add_arc(1, 2, 5.0, 1.0);
  net.set_supply(0, 5.0);
  net.set_supply(2, -5.0);
  lp::NetworkOptions capped;
  capped.max_iterations = 0;
  EXPECT_EQ(net.solve(lp::Sense::minimize, capped),
            lp::SolveStatus::iteration_limit);
}

}  // namespace
}  // namespace pigp::core
