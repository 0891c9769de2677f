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
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "lp/network_flow.hpp"
#include "lp/program.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

struct FlowWorkspace;
struct Workspace;

/// The LP solver of the pipeline: the primal network simplex on the
/// quotient graph.  The dense and bounded simplex of src/lp are reference
/// solvers that tests and benchmarks call directly.
enum class LpSolverKind {
  network,
};

/// Solve \p program with the network simplex.  It accepts only a network
/// LP (lp::is_network_program — every LP a QuotientFlow translates into)
/// and throws CheckError for any other program.
[[nodiscard]] lp::Solution solve_lp(const lp::LinearProgram& program,
                                    LpSolverKind kind,
                                    const lp::NetworkOptions& options);

struct BalanceOptions {
  /// Upper bound C on the relaxation factor α (paper: C > α > 1).
  double alpha_max = 64.0;
  int max_stages = 12;
  /// |W(q) − target_q| ≤ tolerance counts as balanced.
  double tolerance = 0.5;
  /// Not a setting: kept for perfbench's LP probe until its next migration.
  static constexpr LpSolverKind solver = LpSolverKind::network;
  lp::NetworkOptions simplex;
  /// Not a setting: perfbench's probes, until ROADMAP item 1.
  static constexpr int num_threads = 1;
  /// Depth of the first deepened shell of the boundary-seeded layering.
  /// Each stage is first decided on the layer-0 seeds alone; only when
  /// they cannot carry the staged excess does the layering grow to this
  /// depth, and then double per LayerDepth and decide_stage.  0 =
  /// unlimited: always grow to exhaustion, exactly the batch layering's
  /// labels and capacities.
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
  /// Layer-0 seeds whose vertex analysis a reseed (re)computed, summed
  /// over the stages (and the ranks of an SPMD run): the seeds the state's
  /// cache could not answer — the balance twin of
  /// RefineStats::vertices_analyzed.
  std::int64_t seeds_analyzed = 0;
};

/// One flow problem on the P-node quotient graph: the shape all three of
/// the paper's LPs share — balance (eqs. 10–13), its slack-relaxed
/// best-effort fallback, and refinement (eqs. 14–16).  Each arc (i, j),
/// i ≠ j, with capacity > 0 is a variable l in [0, capacity] at cost
/// cost(i, j); node q's row is Σ (out − in) [+ s⁺ − s⁻] = supply_q.
struct QuotientFlow {
  QuotientFlow() = default;
  QuotientFlow(std::size_t parts, lp::Sense sense) { reset(parts, sense); }

  /// Re-shape in place to \p parts × \p parts, every arc absent, no
  /// supply and no slack; storage is reused.
  void reset(std::size_t parts, lp::Sense sense);
  [[nodiscard]] std::size_t parts() const { return capacity.rows(); }

  lp::Sense sense = lp::Sense::minimize;
  pigp::DenseMatrix<double> capacity;  ///< 0 = no arc
  pigp::DenseMatrix<double> cost;
  /// Empty = a circulation: all-zero supply, and a node without arcs gets
  /// no row.  Otherwise every node gets its row.
  std::vector<double> supply;
  /// Per-node cost of the slack pair s⁺_q, s⁻_q ≥ 0; empty = no slack.
  std::vector<double> slack_cost;
};

/// A solved QuotientFlow.  moves/moved are zero unless optimal.
/// lp_variables counts arcs (slack arcs included), lp_rows the nodes with a
/// row, lp_iterations the pivots.
struct FlowResult {
  lp::SolveStatus status = lp::SolveStatus::infeasible;
  double objective = 0.0;
  pigp::DenseMatrix<std::int64_t> moves;  ///< flow per pair
  std::int64_t moved = 0;
  int lp_variables = 0;
  int lp_rows = 0;
  std::int64_t lp_iterations = 0;
};

/// The one translation of a flow into an LP, for build_balance_lp and the
/// reference solvers of the tests.  Variables: the arcs in (i, j) order,
/// then each node's (s⁺, s⁻) when slack is priced.
/// Row q lists, for each k, q's arc to k (+1) then its arc from k (−1),
/// then its slack.  \p pair_vars receives the variable index per pair (-1
/// when absent).
[[nodiscard]] lp::LinearProgram to_linear_program(
    const QuotientFlow& flow, pigp::DenseMatrix<int>* pair_vars = nullptr);

/// Solve \p flow with the network simplex into ws.result and return it;
/// the integer move matrix holds each arc's flow.  The flows are integers
/// by construction (capacities and supplies are counts) and are written to
/// the move matrix as they are; a warm \p ws makes the solve
/// allocation-free.
const FlowResult& solve_flow(const QuotientFlow& flow,
                             const lp::NetworkOptions& options,
                             FlowWorkspace& ws);

/// solve_flow with call-local buffers.
[[nodiscard]] FlowResult solve_flow(const QuotientFlow& flow,
                                    const lp::NetworkOptions& options);

/// A balance stage's flow: arc (i, j) per eps_ij > 0 with capacity ε_ij
/// and unit cost; supply = \p rhs, each partition's net outflow.  Written
/// into \p flow, reusing its storage.
void balance_flow_into(const pigp::DenseMatrix<std::int64_t>& eps,
                       const std::vector<double>& rhs, QuotientFlow& flow);

[[nodiscard]] QuotientFlow balance_flow(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs);

/// The best-effort fallback: the balance arcs at a light cost (minimal
/// movement among max-progress solutions) plus unit slack on every node,
/// so it is always feasible and moves as far toward \p rhs as ε admits.
void best_effort_flow_into(const pigp::DenseMatrix<std::int64_t>& eps,
                           const std::vector<double>& rhs, QuotientFlow& flow);

[[nodiscard]] QuotientFlow best_effort_flow(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs);

/// The LP of balance_flow(eps, rhs); \p pair_vars receives the variable
/// index per (i, j) pair (-1 when absent).  For tests and benchmarks.
[[nodiscard]] lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars);

/// Round per-partition flow requirements excess/alpha to integers that sum
/// to zero (largest-remainder), into ws.rhs.
void staged_requirements_into(const std::vector<double>& excess, double alpha,
                              FlowWorkspace& ws);

[[nodiscard]] std::vector<double> staged_requirements(
    const std::vector<double>& excess, double alpha);

/// excess_q = W(q) − target_q, the per-stage input of every balance
/// driver; returns the max |excess|.  \p excess must have weight.size().
[[nodiscard]] double compute_excess(const std::vector<double>& weight,
                                    const std::vector<double>& targets,
                                    std::vector<double>& excess);

/// The deepening schedule both balance drivers share.  A stage is first
/// decided on the seed shell (depth 0: reseed, no growth) — a mild excess
/// fits the boundary and never labels deeper; the first deepen grows to
/// max_layers, and each later one grows by the current depth, doubling
/// it.  max_layers = 0 is unlimited: grow to exhaustion at once.
struct LayerDepth {
  explicit LayerDepth(int max_layers)
      : budget(max_layers == 0 ? -1 : 0), first(max_layers) {}
  /// Levels to grow by now; the budget becomes the new total depth.
  int deepen() {
    if (budget < 0) return -1;
    const int levels = budget == 0 ? first : budget;
    budget += levels;
    return levels;
  }
  int budget;  ///< total depth labeled so far; -1 = unlimited
  int first;   ///< the first deepen's depth (max_layers)
};

/// One balance stage's decision at the current layering depth.
struct StageDecision {
  bool deepen = false;    ///< grow the layering and decide again
  bool progress = false;  ///< false = the decided stage moves nothing
  BalanceStage stats;
  pigp::DenseMatrix<std::int64_t> moves;  ///< meaningful unless deepen
};

/// Pooled storage of the quotient-flow solves: the flows, the staged
/// requirements, the network solver's arc, tree and potential arrays, the
/// result and the stage decision.  Once warm, a stage decision or a
/// refinement solve on the network solver allocates nothing.  Lives in
/// core::Workspace (Workspace::flow); callers without one use a call-local
/// instance.
struct FlowWorkspace {
  QuotientFlow stage;       ///< the current α rung's balance or best effort
  QuotientFlow refinement;  ///< the current refinement round's flow
  std::vector<double> rhs;  ///< staged_requirements_into's output
  std::vector<double> remainder;
  std::vector<std::size_t> order;
  lp::NetworkFlow network;
  FlowResult result;
  StageDecision decision;
};

/// The stage rule both balance drivers (balance_load and the SPMD
/// handshake) apply to the current ε.  α = 1 is accepted at any depth —
/// the seed shell included, since ε only grows with depth and a feasible
/// α = 1 stays feasible on the exhausted capacities; the
/// rest of the α ladder (smallest feasible α by doubling, up to
/// alpha_max) and then the best-effort fallback run only once the layering
/// is \p exhausted — capacities equal to the batch layering's, so the α
/// chosen is the batch pipeline's.  Before that, an infeasible α = 1
/// deepens.  stats.layer_depth is \p depth_budget, or -1 when exhausted.
/// The decision is written to ws.decision.
void decide_stage(const pigp::DenseMatrix<std::int64_t>& eps,
                  const std::vector<double>& excess, bool exhausted,
                  int depth_budget, const BalanceOptions& options,
                  FlowWorkspace& ws);

/// decide_stage with call-local buffers.
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
/// its boundary index, each stage is decided first on the seed shell and
/// deepened per LayerDepth (to options.max_layers, then doubling) only
/// while α = 1 does not fit, and transfers are applied through the
/// state so it ends consistent with \p partitioning.  \p state must
/// describe (g, partitioning) on entry and partitioning must be fully
/// assigned.  A non-null \p ws supplies the target/excess buffers, the
/// persistent BoundaryLayering and the flow buffers, making an
/// already-balanced call (and the per-stage layering setup and stage
/// decisions) allocation-free; decisions are identical either way.
[[nodiscard]] BalanceResult balance_load(const graph::Graph& g,
                                         graph::Partitioning& partitioning,
                                         graph::PartitionState& state,
                                         const BalanceOptions& options = {},
                                         Workspace* ws = nullptr);

}  // namespace pigp::core
