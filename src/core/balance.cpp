#include "core/balance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "lp/bounded_simplex.hpp"
#include "support/check.hpp"

namespace pigp::core {

lp::Solution solve_lp(const lp::LinearProgram& program, LpSolverKind kind,
                      const lp::SimplexOptions& options) {
  if (kind == LpSolverKind::bounded) {
    return lp::BoundedSimplex(options).solve(program);
  }
  return lp::DenseSimplex(options).solve(program);
}

std::vector<double> staged_requirements(const std::vector<double>& excess,
                                        double alpha) {
  PIGP_CHECK(alpha >= 1.0, "alpha must be at least 1");
  const std::size_t parts = excess.size();
  std::vector<double> rhs(parts, 0.0);
  std::vector<double> remainder(parts, 0.0);
  double base_sum = 0.0;
  for (std::size_t q = 0; q < parts; ++q) {
    const double raw = excess[q] / alpha;
    rhs[q] = std::floor(raw);
    remainder[q] = raw - rhs[q];
    base_sum += rhs[q];
  }
  // Σ raw = 0 (targets sum to the total weight), so the remainders sum to
  // -base_sum, a non-negative integer; bump that many largest remainders.
  auto bumps = static_cast<std::int64_t>(std::llround(-base_sum));
  std::vector<std::size_t> order(parts);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&remainder](std::size_t a,
                                                     std::size_t b) {
    if (remainder[a] != remainder[b]) return remainder[a] > remainder[b];
    return a < b;
  });
  for (std::size_t i = 0; bumps > 0 && i < parts; ++i, --bumps) {
    rhs[order[i]] += 1.0;
  }
  return rhs;
}

namespace {

/// Visit every arc lane in variable order: (i, j, lane) lexicographic.
template <typename Visit>
void for_each_arc(const QuotientFlow& flow, Visit&& visit) {
  const std::size_t parts = flow.lanes.front().capacity.rows();
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      for (std::size_t l = 0; l < flow.lanes.size(); ++l) {
        if (i != j && flow.lanes[l].capacity(i, j) > 0.0) visit(i, j, l);
      }
    }
  }
}

}  // namespace

lp::LinearProgram to_linear_program(
    const QuotientFlow& flow, std::vector<pigp::DenseMatrix<int>>* lane_vars) {
  const std::size_t parts = flow.lanes.front().capacity.rows();
  PIGP_CHECK((flow.supply.empty() || flow.supply.size() == parts) &&
                 (flow.slack_cost.empty() || flow.slack_cost.size() == parts),
             "supply / slack cost size mismatch");
  lp::LinearProgram program(flow.sense);
  std::vector<pigp::DenseMatrix<int>> vars(
      flow.lanes.size(), pigp::DenseMatrix<int>(parts, parts, -1));
  for_each_arc(flow, [&](std::size_t i, std::size_t j, std::size_t l) {
    const QuotientFlow::Lane& lane = flow.lanes[l];
    vars[l](i, j) = program.add_variable(lane.cost(i, j), 0.0,
                                         lane.capacity(i, j));
  });
  for (std::size_t q = 0; q < parts; ++q) {
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t k = 0; k < parts; ++k) {
      for (const auto& v : vars) {
        if (v(q, k) >= 0) coeffs.emplace_back(v(q, k), 1.0);
      }
      for (const auto& v : vars) {
        if (v(k, q) >= 0) coeffs.emplace_back(v(k, q), -1.0);
      }
    }
    if (!flow.slack_cost.empty()) {
      coeffs.emplace_back(program.add_variable(flow.slack_cost[q]), 1.0);
      coeffs.emplace_back(program.add_variable(flow.slack_cost[q]), -1.0);
    }
    if (flow.supply.empty() && coeffs.empty()) continue;
    program.add_row(lp::RowType::equal, std::move(coeffs),
                    flow.supply.empty() ? 0.0 : flow.supply[q]);
  }
  if (lane_vars != nullptr) *lane_vars = std::move(vars);
  return program;
}

FlowResult solve_flow(const QuotientFlow& flow, LpSolverKind kind,
                      const lp::SimplexOptions& options) {
  const lp::LinearProgram program = to_linear_program(flow);
  const lp::Solution solution = solve_lp(program, kind, options);
  FlowResult result;
  result.status = solution.status;
  result.objective = solution.objective;
  result.lp_variables = program.num_variables();
  result.lp_rows = program.num_rows();
  result.lp_iterations = solution.iterations;
  if (solution.status != lp::SolveStatus::optimal) return result;
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
  for (const double value : solution.x) {
    PIGP_CHECK(std::abs(value - std::round(value)) <= 1e-6,
               "quotient-flow LP optimum is not integral");
  }
#endif
  const std::size_t parts = flow.lanes.front().capacity.rows();
  result.moves = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
  std::size_t var = 0;  // arcs are the first variables, in visit order
  for_each_arc(flow, [&](std::size_t i, std::size_t j, std::size_t) {
    const std::int64_t count = std::llround(solution.x[var++]);
    result.moves(i, j) += count;
    result.moved += count;
  });
  return result;
}

QuotientFlow balance_flow(const pigp::DenseMatrix<std::int64_t>& eps,
                          std::vector<double> rhs) {
  const std::size_t parts = eps.rows();
  PIGP_CHECK(eps.cols() == parts, "eps must be square");
  PIGP_CHECK(rhs.size() == parts, "rhs size mismatch");
  QuotientFlow flow(parts, lp::Sense::minimize);
  QuotientFlow::Lane& lane = flow.lanes.front();
  std::copy(eps.data(), eps.data() + parts * parts, lane.capacity.data());
  lane.cost.fill(1.0);
  flow.supply = std::move(rhs);
  return flow;
}

QuotientFlow best_effort_flow(const pigp::DenseMatrix<std::int64_t>& eps,
                              std::vector<double> rhs) {
  QuotientFlow flow = balance_flow(eps, std::move(rhs));
  flow.lanes.front().cost.fill(1e-3);
  flow.slack_cost.assign(eps.rows(), 1.0);
  return flow;
}

lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars) {
  std::vector<pigp::DenseMatrix<int>> lane_vars;
  lp::LinearProgram program =
      to_linear_program(balance_flow(eps, rhs), &lane_vars);
  if (pair_vars != nullptr) *pair_vars = std::move(lane_vars.front());
  return program;
}

namespace {

/// Record a solved stage flow as the stage's decision.
StageDecision accept(FlowResult flow, double alpha, int layer_depth) {
  return {.deepen = false,
          .progress = flow.moved > 0,
          .stats = {.alpha = alpha,
                    .lp_variables = flow.lp_variables,
                    .lp_rows = flow.lp_rows,
                    .lp_iterations = flow.lp_iterations,
                    .vertices_moved = static_cast<double>(flow.moved),
                    .layer_depth = layer_depth},
          .moves = std::move(flow.moves)};
}

}  // namespace

StageDecision decide_stage(const pigp::DenseMatrix<std::int64_t>& eps,
                           const std::vector<double>& excess, bool exhausted,
                           int depth_budget, const BalanceOptions& options) {
  const int layer_depth = exhausted ? -1 : depth_budget;
  // Paper staging: smallest feasible alpha in {1, 2, 4, ...} — only
  // α = 1 before exhaustion, since nothing else could be accepted there.
  const double alpha_max = exhausted ? options.alpha_max : 1.0;
  for (double alpha = 1.0; alpha <= alpha_max; alpha *= 2.0) {
    std::vector<double> rhs = staged_requirements(excess, alpha);
    if (std::all_of(rhs.begin(), rhs.end(),
                    [](double r) { return r == 0.0; })) {
      break;  // excess too small relative to alpha; nothing to request
    }
    FlowResult flow = solve_flow(balance_flow(eps, std::move(rhs)),
                                 options.solver, options.simplex);
    if (flow.status == lp::SolveStatus::optimal) {
      return accept(std::move(flow), alpha, layer_depth);
    }
  }
  if (!exhausted) {
    return {.deepen = true, .progress = false, .stats = {}, .moves = {}};
  }
  // No α fits the full capacities: move whatever they admit this stage;
  // the next stage re-layers and continues.
  FlowResult flow =
      solve_flow(best_effort_flow(eps, staged_requirements(excess, 1.0)),
                 options.solver, options.simplex);
  PIGP_CHECK(flow.status == lp::SolveStatus::optimal,
             "relaxed balance LP is always feasible");
  return accept(std::move(flow), 0.0, layer_depth);  // alpha 0: best effort
}

double compute_excess(const std::vector<double>& weight,
                      const std::vector<double>& targets,
                      std::vector<double>& excess) {
  double max_dev = 0.0;
  for (std::size_t q = 0; q < weight.size(); ++q) {
    excess[q] = weight[q] - targets[q];
    max_dev = std::max(max_dev, std::abs(excess[q]));
  }
  return max_dev;
}

BalanceResult balance_load(const graph::Graph& g,
                           graph::Partitioning& partitioning,
                           const BalanceOptions& options) {
  // One O(V+E) rescan to seed the maintained state (it also validates),
  // then the single state-driven driver below.
  graph::PartitionState state(g, partitioning);
  return balance_load(g, partitioning, state, options);
}

BalanceResult balance_load(const graph::Graph& g,
                           graph::Partitioning& partitioning,
                           graph::PartitionState& state,
                           const BalanceOptions& options, Workspace* ws) {
  BalanceResult result;
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  std::vector<double> local_targets;
  std::vector<double> local_excess;
  std::vector<double>& targets = ws ? ws->balance_targets : local_targets;
  std::vector<double>& excess = ws ? ws->balance_excess : local_excess;
  graph::balance_targets_into(g.total_vertex_weight(), partitioning.num_parts,
                              targets);
  excess.assign(parts, 0.0);
  // Bound on first use: an already-balanced call (the common case on a
  // well-behaved stream) never pays any per-vertex array setup.  With a
  // workspace the layering is the session-persistent one — its bind() is
  // O(1) at steady state; without one, a call-local instance.
  std::optional<BoundaryLayering> layering_storage;

  for (int stage = 0; stage < options.max_stages; ++stage) {
    // Current excess per partition from the maintained weights — O(P).
    result.final_max_deviation =
        compute_excess(state.weights(), targets, excess);
    if (result.final_max_deviation <= options.tolerance) {
      result.balanced = true;
      return result;
    }
    if (ws == nullptr && !layering_storage) {
      layering_storage.emplace(g, partitioning);
    }
    BoundaryLayering& layering = ws ? ws->layering : *layering_storage;
    if (ws != nullptr && stage == 0) ws->layering.bind(g, partitioning);

    // Boundary-seeded layering, depth-capped with lazy deepening: a mildly
    // imbalanced stream labels a thin shell and stops as soon as
    // decide_stage accepts on it.
    layering.reseed(state, options.num_threads);
    LayerDepth depth(options.max_layers);
    layering.grow(depth.budget, options.num_threads);
    StageDecision decision = decide_stage(
        layering.eps(), excess, layering.exhausted(), depth.budget, options);
    while (decision.deepen) {
      layering.grow(depth.deepen(), options.num_threads);
      decision = decide_stage(layering.eps(), excess, layering.exhausted(),
                              depth.budget, options);
    }

    if (!decision.progress) {
      // Nothing can move at all (e.g. a partition with no boundary);
      // report imbalance to the caller, who may fall back to
      // repartitioning from scratch (§2.3).
      return result;
    }
    result.stages.push_back(decision.stats);
    apply_balance_transfers(g, partitioning, layering, decision.moves,
                            state);
  }

  // Stage budget exhausted; report the residual deviation — O(P).
  result.final_max_deviation =
      compute_excess(state.weights(), targets, excess);
  result.balanced = result.final_max_deviation <= options.tolerance;
  return result;
}

}  // namespace pigp::core
