#pragma once

/// \file balance.hpp
/// Step 3 of the incremental partitioner: LP-based load balancing
/// (Ou & Ranka §2.3, equations 10–13).
///
/// Given the layering counts ε_ij, solve
///     minimize   Σ l_ij                                   (10)
///     subject to 0 ≤ l_ij ≤ ε_ij                          (11)
///                Σ_k (l_qk − l_kq) = W'(q) − μ_q   ∀q     (12)
/// and move the selected vertices (boundary layers first).  When the
/// one-shot LP is infeasible — the localized refinement dumped more excess
/// into a partition than its boundary can shed — the balance condition is
/// relaxed to move only 1/α of the excess per stage (13) and the procedure
/// iterates; the paper reports 1–3 stages on its workloads.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/program.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

struct Workspace;

/// Which simplex implementation to use.
enum class LpSolverKind {
  dense,    ///< the paper's dense two-phase simplex
  bounded,  ///< bounded-variable simplex (the paper's future-work variant)
};

[[nodiscard]] lp::Solution solve_lp(const lp::LinearProgram& program,
                                    LpSolverKind kind,
                                    const lp::SimplexOptions& options);

struct BalanceOptions {
  /// Upper bound C on the relaxation factor α (paper: C > α > 1).
  double alpha_max = 64.0;
  int max_stages = 12;
  /// |W(q) − target_q| ≤ tolerance counts as balanced.
  double tolerance = 0.5;
  LpSolverKind solver = LpSolverKind::dense;
  lp::SimplexOptions simplex;
  int num_threads = 1;
  /// Initial depth cap of the boundary-seeded layering, deepened lazily
  /// per LayerDepth and decide_stage.  0 = unlimited: always grow to
  /// exhaustion, exactly the batch layering's labels and capacities.
  int max_layers = 4;
};

/// Telemetry for one balance stage.
struct BalanceStage {
  double alpha = 1.0;
  int lp_variables = 0;
  int lp_rows = 0;
  std::int64_t lp_iterations = 0;
  double vertices_moved = 0.0;
  /// Layering depth the stage decision was made at; -1 when the layering
  /// was grown to exhaustion (batch-equivalent capacities).
  int layer_depth = -1;
};

struct BalanceResult {
  bool balanced = false;
  std::vector<BalanceStage> stages;
  double final_max_deviation = 0.0;
};

/// One flow problem on the P-node quotient graph: the shape all three of
/// the paper's LPs share — balance (eqs. 10–13), its slack-relaxed
/// best-effort fallback, and refinement (eqs. 14–16).  Each lane's arc
/// (i, j), i ≠ j, with capacity > 0 is a variable l in [0, capacity] at
/// the lane's cost; node q's row is Σ (out − in) [+ s⁺ − s⁻] = supply_q.
struct QuotientFlow {
  /// Parallel arcs per ordered pair (refinement's positive- and zero-gain
  /// lanes); their flows add up in the move matrix.
  struct Lane {
    pigp::DenseMatrix<double> capacity;  ///< 0 = no arc
    pigp::DenseMatrix<double> cost;
  };
  QuotientFlow(std::size_t parts, lp::Sense sense, std::size_t lanes = 1)
      : sense(sense),
        lanes(lanes, Lane{pigp::DenseMatrix<double>(parts, parts, 0.0),
                          pigp::DenseMatrix<double>(parts, parts, 0.0)}) {}

  lp::Sense sense;
  std::vector<Lane> lanes;
  /// Empty = a circulation: all-zero supply, and a node without arcs gets
  /// no row.  Otherwise every node gets its row.
  std::vector<double> supply;
  /// Per-node cost of the slack pair s⁺_q, s⁻_q ≥ 0; empty = no slack.
  std::vector<double> slack_cost;
};

/// A solved QuotientFlow; moves/moved are set only when optimal.
struct FlowResult {
  lp::SolveStatus status = lp::SolveStatus::infeasible;
  double objective = 0.0;
  pigp::DenseMatrix<std::int64_t> moves;  ///< flow per pair, lanes summed
  std::int64_t moved = 0;
  int lp_variables = 0;
  int lp_rows = 0;
  std::int64_t lp_iterations = 0;
};

/// The one translation of a flow into an LP.  Variables: the arcs in
/// (i, j, lane) order, then each node's (s⁺, s⁻) when slack is priced.
/// Row q lists, for each k, q's out-lanes to k (+1) then its in-lanes from
/// k (−1), then its slack.  \p lane_vars receives each lane's variable
/// index per pair (-1 when absent).
[[nodiscard]] lp::LinearProgram to_linear_program(
    const QuotientFlow& flow,
    std::vector<pigp::DenseMatrix<int>>* lane_vars = nullptr);

/// Solve \p flow and harvest the integer move matrix.  An optimal vertex
/// of these network-matrix LPs is integral; Debug and PIGP_VALIDATE builds
/// check every value is within 1e-6 of an integer before rounding.
[[nodiscard]] FlowResult solve_flow(const QuotientFlow& flow,
                                    LpSolverKind kind,
                                    const lp::SimplexOptions& options);

/// A balance stage's flow: arc (i, j) per eps_ij > 0 with capacity ε_ij
/// and unit cost; supply = \p rhs, each partition's net outflow.
[[nodiscard]] QuotientFlow balance_flow(
    const pigp::DenseMatrix<std::int64_t>& eps, std::vector<double> rhs);

/// The best-effort fallback: the balance arcs at a light cost (minimal
/// movement among max-progress solutions) plus unit slack on every node,
/// so it is always feasible and moves as far toward \p rhs as ε admits.
[[nodiscard]] QuotientFlow best_effort_flow(
    const pigp::DenseMatrix<std::int64_t>& eps, std::vector<double> rhs);

/// The LP of balance_flow(eps, rhs); \p pair_vars receives the variable
/// index per (i, j) pair (-1 when absent).  For tests and benchmarks.
[[nodiscard]] lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars);

/// Round per-partition flow requirements excess/alpha to integers that sum
/// to zero (largest-remainder).  Exposed for tests.
[[nodiscard]] std::vector<double> staged_requirements(
    const std::vector<double>& excess, double alpha);

/// excess_q = W(q) − target_q, the per-stage input of every balance
/// driver; returns the max |excess|.  \p excess must have weight.size().
[[nodiscard]] double compute_excess(const std::vector<double>& weight,
                                    const std::vector<double>& targets,
                                    std::vector<double>& excess);

/// The deepening schedule both balance drivers share: label max_layers
/// levels past the boundary (0 = unlimited), then on each deepen grow by
/// the current depth, doubling it.
struct LayerDepth {
  explicit LayerDepth(int max_layers)
      : budget(max_layers == 0 ? -1 : max_layers) {}
  /// Levels to grow by now (the current depth); doubles the budget.
  int deepen() { return std::exchange(budget, 2 * budget); }
  int budget;  ///< total depth labeled so far; -1 = unlimited
};

/// One balance stage's decision at the current layering depth.
struct StageDecision {
  bool deepen = false;    ///< grow the layering and decide again
  bool progress = false;  ///< false = the decided stage moves nothing
  BalanceStage stats;
  pigp::DenseMatrix<std::int64_t> moves;
};

/// The stage rule both balance drivers (balance_load and the SPMD
/// handshake) apply to the current ε.  α = 1 is accepted at any depth; the
/// rest of the α ladder (smallest feasible α by doubling, up to
/// alpha_max) and then the best-effort fallback run only once the layering
/// is \p exhausted — capacities equal to the batch layering's, so the α
/// chosen is the batch pipeline's.  Before that, an infeasible α = 1
/// deepens.  stats.layer_depth is \p depth_budget, or -1 when exhausted.
[[nodiscard]] StageDecision decide_stage(
    const pigp::DenseMatrix<std::int64_t>& eps,
    const std::vector<double>& excess, bool exhausted, int depth_budget,
    const BalanceOptions& options);

/// Run balance stages in place on \p partitioning until balanced or the
/// stage limit is hit.  Layering is recomputed each stage.  This batch
/// entry builds a PartitionState (one O(V+E) rescan) and delegates to the
/// state-driven overload below — there is exactly one balance driver.
[[nodiscard]] BalanceResult balance_load(const graph::Graph& g,
                                         graph::Partitioning& partitioning,
                                         const BalanceOptions& options = {});

/// Boundary-local balance driver: per-stage excess comes from \p state's
/// maintained weights (O(P), not an O(V) rescan), layering seeds come from
/// its boundary index, growth is depth-capped per options.max_layers with
/// lazy deepening on infeasibility, and transfers are applied through the
/// state so it ends consistent with \p partitioning.  \p state must
/// describe (g, partitioning) on entry and partitioning must be fully
/// assigned.  A non-null \p ws supplies the target/excess buffers and the
/// persistent BoundaryLayering, making an already-balanced call (and the
/// per-stage layering setup) allocation-free; decisions are identical
/// either way.
[[nodiscard]] BalanceResult balance_load(const graph::Graph& g,
                                         graph::Partitioning& partitioning,
                                         graph::PartitionState& state,
                                         const BalanceOptions& options = {},
                                         Workspace* ws = nullptr);

}  // namespace pigp::core
