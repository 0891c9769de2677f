#include "core/balance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "support/check.hpp"

namespace pigp::core {

lp::Solution solve_lp(const lp::LinearProgram& program, LpSolverKind,
                      const lp::NetworkOptions& options) {
  return lp::solve_network_program(program, options);
}

// pigp:steady-state
void QuotientFlow::reset(std::size_t parts, lp::Sense flow_sense) {
  sense = flow_sense;
  capacity.assign(parts, parts, 0.0);
  cost.assign(parts, parts, 0.0);
  supply.clear();
  slack_cost.clear();
}

void staged_requirements_into(const std::vector<double>& excess, double alpha,
                              FlowWorkspace& ws) {
  PIGP_CHECK(alpha >= 1.0, "alpha must be at least 1");
  const std::size_t parts = excess.size();
  std::vector<double>& rhs = ws.rhs;
  std::vector<double>& remainder = ws.remainder;
  std::vector<std::size_t>& order = ws.order;
  rhs.assign(parts, 0.0);
  remainder.assign(parts, 0.0);
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
  order.resize(parts);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&remainder](std::size_t a,
                                                     std::size_t b) {
    if (remainder[a] != remainder[b]) return remainder[a] > remainder[b];
    return a < b;
  });
  for (std::size_t i = 0; bumps > 0 && i < parts; ++i, --bumps) {
    rhs[order[i]] += 1.0;
  }
}

std::vector<double> staged_requirements(const std::vector<double>& excess,
                                        double alpha) {
  FlowWorkspace ws;
  staged_requirements_into(excess, alpha, ws);
  return std::move(ws.rhs);
}

namespace {

/// Visit every arc in variable order: (i, j) lexicographic.
template <typename Visit>
void for_each_arc(const QuotientFlow& flow, Visit&& visit) {
  const std::size_t parts = flow.parts();
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      if (i != j && flow.capacity(i, j) > 0.0) visit(i, j);
    }
  }
}

}  // namespace

lp::LinearProgram to_linear_program(
    const QuotientFlow& flow, pigp::DenseMatrix<int>* pair_vars) {
  const std::size_t parts = flow.parts();
  PIGP_CHECK((flow.supply.empty() || flow.supply.size() == parts) &&
                 (flow.slack_cost.empty() || flow.slack_cost.size() == parts),
             "supply / slack cost size mismatch");
  lp::LinearProgram program(flow.sense);
  pigp::DenseMatrix<int> vars(parts, parts, -1);
  for_each_arc(flow, [&](std::size_t i, std::size_t j) {
    vars(i, j) =
        program.add_variable(flow.cost(i, j), 0.0, flow.capacity(i, j));
  });
  for (std::size_t q = 0; q < parts; ++q) {
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t k = 0; k < parts; ++k) {
      if (vars(q, k) >= 0) coeffs.emplace_back(vars(q, k), 1.0);
      if (vars(k, q) >= 0) coeffs.emplace_back(vars(k, q), -1.0);
    }
    if (!flow.slack_cost.empty()) {
      coeffs.emplace_back(program.add_variable(flow.slack_cost[q]), 1.0);
      coeffs.emplace_back(program.add_variable(flow.slack_cost[q]), -1.0);
    }
    if (flow.supply.empty() && coeffs.empty()) continue;
    program.add_row(lp::RowType::equal, std::move(coeffs),
                    flow.supply.empty() ? 0.0 : flow.supply[q]);
  }
  if (pair_vars != nullptr) *pair_vars = std::move(vars);
  return program;
}

namespace {

/// Number of nodes of a circulation without slack that have an arc — the
/// LP gives only those a row.
int nodes_with_arcs(const QuotientFlow& flow) {
  const std::size_t parts = flow.parts();
  int rows = 0;
  for (std::size_t q = 0; q < parts; ++q) {
    bool any = false;
    for (std::size_t k = 0; k < parts && !any; ++k) {
      any = k != q && (flow.capacity(q, k) > 0.0 || flow.capacity(k, q) > 0.0);
    }
    rows += any ? 1 : 0;
  }
  return rows;
}

}  // namespace

// The flow as a network: arcs in for_each_arc order, then each node's
// slack pair to a ground node whose supply closes the balance; the flows
// are the move counts.
// pigp:steady-state
const FlowResult& solve_flow(const QuotientFlow& flow,
                             const lp::NetworkOptions& options,
                             FlowWorkspace& ws) {
  const std::size_t parts = flow.parts();
  PIGP_CHECK((flow.supply.empty() || flow.supply.size() == parts) &&
                 (flow.slack_cost.empty() || flow.slack_cost.size() == parts),
             "supply / slack cost size mismatch");
  lp::NetworkFlow& net = ws.network;
  const bool slack = !flow.slack_cost.empty();
  const int ground = static_cast<int>(parts);
  net.reset(ground + (slack ? 1 : 0));
  for_each_arc(flow, [&](std::size_t i, std::size_t j) {
    (void)net.add_arc(static_cast<int>(i), static_cast<int>(j),
                      flow.capacity(i, j), flow.cost(i, j));
  });
  double total = 0.0;
  for (std::size_t q = 0; q < flow.supply.size(); ++q) {
    net.set_supply(static_cast<int>(q), flow.supply[q]);
    total += flow.supply[q];
  }
  if (slack) {
    for (std::size_t q = 0; q < parts; ++q) {
      const auto node = static_cast<int>(q);
      (void)net.add_arc(node, ground, lp::kInfinity, flow.slack_cost[q]);
      (void)net.add_arc(ground, node, lp::kInfinity, flow.slack_cost[q]);
    }
    net.set_supply(ground, -total);
  }
  FlowResult& result = ws.result;
  result.status = net.solve(flow.sense, options);
  result.objective = 0.0;
  result.moves.assign(parts, parts, 0);
  result.moved = 0;
  result.lp_variables = net.num_arcs();
  result.lp_rows = flow.supply.empty() && !slack ? nodes_with_arcs(flow)
                                                 : static_cast<int>(parts);
  result.lp_iterations = net.pivots();
  if (result.status != lp::SolveStatus::optimal) return result;
  result.objective = net.objective();
  int arc = 0;
  for_each_arc(flow, [&](std::size_t i, std::size_t j) {
    const double value = net.flow(arc++);
    const auto count = static_cast<std::int64_t>(value);
    PIGP_ASSERT(static_cast<double>(count) == value);
    result.moves(i, j) = count;
    result.moved += count;
  });
  return result;
}

FlowResult solve_flow(const QuotientFlow& flow,
                      const lp::NetworkOptions& options) {
  FlowWorkspace ws;
  (void)solve_flow(flow, options, ws);
  return std::move(ws.result);
}

void balance_flow_into(const pigp::DenseMatrix<std::int64_t>& eps,
                       const std::vector<double>& rhs, QuotientFlow& flow) {
  const std::size_t parts = eps.rows();
  PIGP_CHECK(eps.cols() == parts, "eps must be square");
  PIGP_CHECK(rhs.size() == parts, "rhs size mismatch");
  flow.reset(parts, lp::Sense::minimize);
  std::copy(eps.data(), eps.data() + parts * parts, flow.capacity.data());
  flow.cost.fill(1.0);
  flow.supply.assign(rhs.begin(), rhs.end());
}

QuotientFlow balance_flow(const pigp::DenseMatrix<std::int64_t>& eps,
                          const std::vector<double>& rhs) {
  QuotientFlow flow;
  balance_flow_into(eps, rhs, flow);
  return flow;
}

void best_effort_flow_into(const pigp::DenseMatrix<std::int64_t>& eps,
                           const std::vector<double>& rhs, QuotientFlow& flow) {
  balance_flow_into(eps, rhs, flow);
  flow.cost.fill(1e-3);
  flow.slack_cost.assign(eps.rows(), 1.0);
}

QuotientFlow best_effort_flow(const pigp::DenseMatrix<std::int64_t>& eps,
                              const std::vector<double>& rhs) {
  QuotientFlow flow;
  best_effort_flow_into(eps, rhs, flow);
  return flow;
}

lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars) {
  return to_linear_program(balance_flow(eps, rhs), pair_vars);
}

namespace {

/// Record ws.result, a solved stage flow, as the stage's decision (the
/// copy reuses the decision's move-matrix storage).
void accept(FlowWorkspace& ws, double alpha, int layer_depth) {
  const FlowResult& flow = ws.result;
  StageDecision& decision = ws.decision;
  decision.deepen = false;
  decision.progress = flow.moved > 0;
  decision.stats = {.alpha = alpha,
                    .lp_variables = flow.lp_variables,
                    .lp_rows = flow.lp_rows,
                    .lp_iterations = flow.lp_iterations,
                    .vertices_moved = static_cast<double>(flow.moved),
                    .layer_depth = layer_depth};
  decision.moves = flow.moves;
}

}  // namespace

// pigp:steady-state
void decide_stage(const pigp::DenseMatrix<std::int64_t>& eps,
                  const std::vector<double>& excess, bool exhausted,
                  int depth_budget, const BalanceOptions& options,
                  FlowWorkspace& ws) {
  const int layer_depth = exhausted ? -1 : depth_budget;
  // Paper staging: smallest feasible alpha in {1, 2, 4, ...} — only
  // α = 1 before exhaustion, since nothing else could be accepted there.
  const double alpha_max = exhausted ? options.alpha_max : 1.0;
  for (double alpha = 1.0; alpha <= alpha_max; alpha *= 2.0) {
    staged_requirements_into(excess, alpha, ws);
    if (std::all_of(ws.rhs.begin(), ws.rhs.end(),
                    [](double r) { return r == 0.0; })) {
      break;  // excess too small relative to alpha; nothing to request
    }
    balance_flow_into(eps, ws.rhs, ws.stage);
    if (solve_flow(ws.stage, options.simplex, ws).status ==
        lp::SolveStatus::optimal) {
      accept(ws, alpha, layer_depth);
      return;
    }
  }
  if (!exhausted) {
    ws.decision.deepen = true;
    ws.decision.progress = false;
    ws.decision.stats = {};
    return;
  }
  // No α fits the full capacities: move whatever they admit this stage;
  // the next stage re-layers and continues.
  staged_requirements_into(excess, 1.0, ws);
  best_effort_flow_into(eps, ws.rhs, ws.stage);
  PIGP_CHECK(solve_flow(ws.stage, options.simplex, ws).status ==
                 lp::SolveStatus::optimal,
             "relaxed balance LP is always feasible");
  accept(ws, 0.0, layer_depth);  // alpha 0: best effort
}

StageDecision decide_stage(const pigp::DenseMatrix<std::int64_t>& eps,
                           const std::vector<double>& excess, bool exhausted,
                           int depth_budget, const BalanceOptions& options) {
  FlowWorkspace ws;
  decide_stage(eps, excess, exhausted, depth_budget, options, ws);
  return std::move(ws.decision);
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
  // Working storage: pooled in the session workspace when given, call-local
  // otherwise — identical decisions either way.
  Workspace local_ws;
  Workspace& w = ws != nullptr ? *ws : local_ws;
  std::vector<double>& targets = w.balance_targets;
  std::vector<double>& excess = w.balance_excess;
  FlowWorkspace& flow_ws = w.flow;
  BoundaryLayering& layering = w.layering;
  graph::balance_targets_into(g.total_vertex_weight(), partitioning.num_parts,
                              targets);
  excess.assign(parts, 0.0);

  for (int stage = 0; stage < options.max_stages; ++stage) {
    // Current excess per partition from the maintained weights — O(P).
    result.final_max_deviation =
        compute_excess(state.weights(), targets, excess);
    if (result.final_max_deviation <= options.tolerance) {
      result.balanced = true;
      return result;
    }
    // Bound on first use: an already-balanced call (the common case on a
    // well-behaved stream) never pays any per-vertex array setup.  The
    // session-persistent layering's bind() is O(1) at steady state.
    if (stage == 0) layering.bind(g, partitioning);

    // Boundary-seeded layering with lazy deepening: the first decision is
    // made on the seed shell (budget 0 grows nothing), so a mildly
    // imbalanced stream labels only its boundary; deeper layers are
    // labelled only while decide_stage cannot accept.
    result.seeds_analyzed += layering.reseed(state);
    LayerDepth depth(options.max_layers);
    layering.grow(depth.budget);
    decide_stage(layering.eps(), excess, layering.exhausted(), depth.budget,
                 options, flow_ws);
    while (flow_ws.decision.deepen) {
      layering.grow(depth.deepen());
      decide_stage(layering.eps(), excess, layering.exhausted(), depth.budget,
                   options, flow_ws);
    }
    const StageDecision& decision = flow_ws.decision;

    if (!decision.progress) {
      // Nothing can move at all (e.g. a partition with no boundary);
      // report imbalance to the caller, who may fall back to
      // repartitioning from scratch (§2.3).
      return result;
    }
    result.stages.push_back(decision.stats);
    apply_balance_transfers(g, partitioning, layering, decision.moves,
                            state, &w.transfer);
  }

  // Stage budget exhausted; report the residual deviation — O(P).
  result.final_max_deviation =
      compute_excess(state.weights(), targets, excess);
  result.balanced = result.final_max_deviation <= options.tolerance;
  return result;
}

}  // namespace pigp::core
